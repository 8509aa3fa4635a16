"""Symbolic expression engine.

Immutable expression trees over coordinates, named constants, exact
rationals, built-in unary functions and abstract single-variable functions
with formal derivatives (X, X', X'', ...). Every public operation returns
the canonical rational-function normal form in which each coordinate, each
named constant, each (abstract function, derivative order) pair and each
built-in function application is treated as an independent opaque
indeterminate. No trigonometric or hyperbolic identities are applied;
identity checking beyond literal cancellation is the job of the numeric
probe in :func:`is_identically_zero`.

The concrete surface syntax (also produced by :func:`to_string`):

    expr    := term (('+'|'-') term)* ;
    term    := factor (('*'|'/') factor)* ;
    factor  := '-' factor | atom ('^' integer)? ;
    atom    := rational | ident primes? ( '(' expr ')' )? | '(' expr ')' ;
    primes  := '\\''+ ;
    rational:= integer ('/' integer)? ;
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from . import _poly
from ._poly import Poly  # noqa: F401

__all__ = [
    "Expr", "Rat", "Coord", "Const", "FuncApp", "KnownFunc", "Sum", "Product",
    "Power", "FuncSymbol", "SymbolTable", "ZeroVerdict", "ProbeConfig",
    "ExprError", "ParseError", "EvalError", "SingularPointError",
    "SubstitutionError", "ResourceLimitError",
    "parse", "to_string", "simplify", "differentiate", "substitute",
    "eval_numeric", "is_identically_zero", "equivalent", "esum", "eprod",
    "ZERO", "ONE", "KNOWN_FUNCTIONS", "DEFAULT_PROBE_COUNT",
    "DEFAULT_ZERO_TOL", "DEFAULT_EPSILON", "probe_interval",
]

KNOWN_FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tan", "exp", "log", "sqrt")

DEFAULT_PROBE_COUNT = 20
DEFAULT_ZERO_TOL = 1e-9
DEFAULT_EPSILON = 1e-9
# factors nest at most this deep; a parenthesised group, a function argument
# and a unary minus each open one more level
MAX_NESTING = 100
# a power may expand to at most this many terms (as _power_term_bound counts
# them): the largest count in the tests, bundled metrics and benchmark inputs
# is 201, for (1+t+t^2)^100, and 20000 draws of the quotient-rule property's
# denominators squared reach at most 820
MAX_EXPANSION_TERMS = 2000


class ExprError(Exception):
    """Malformed expression or unsupported operation."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Numeric evaluation failed (missing binding or math domain)."""


class SingularPointError(EvalError):
    """A denominator fell below epsilon, or a value overflowed a double, at
    the evaluation point."""


class SubstitutionError(ExprError):
    pass


class ResourceLimitError(ExprError):
    """An operation would pass a size budget such as MAX_EXPANSION_TERMS."""


# ---------------------------------------------------------------------------
# node types

class Expr:
    """Base class; instances are immutable and hashable."""

    __slots__ = ()
    # the (num, den) normal form, stored by simplify on the node it returns
    _nf = None

    def __add__(self, other):
        return simplify(Sum((self, _as_expr(other))))

    __radd__ = __add__

    def __sub__(self, other):
        return simplify(Sum((self, Product((Rat(-1), _as_expr(other))))))

    def __rsub__(self, other):
        return simplify(Sum((_as_expr(other), Product((Rat(-1), self)))))

    def __mul__(self, other):
        return simplify(Product((self, _as_expr(other))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return simplify(Product((self, Power(_as_expr(other), -1))))

    def __rtruediv__(self, other):
        return simplify(Product((_as_expr(other), Power(self, -1))))

    def __pow__(self, n: int):
        return simplify(Power(self, n))

    def __neg__(self):
        return simplify(Product((Rat(-1), self)))

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Coord(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class FuncSymbol:
    """A single-variable function symbol, abstract unless a body is given."""

    name: str
    var: str
    body: Optional[Expr] = None

    def app(self, order: int = 0) -> Expr:
        return simplify(FuncApp(self, order, Coord(self.var)))

    @property
    def is_abstract(self) -> bool:
        return self.body is None


@dataclass(frozen=True)
class FuncApp(Expr):
    func: FuncSymbol
    order: int
    arg: Expr

    def __post_init__(self):
        if self.order < 0:
            raise ExprError("derivative order must be non-negative")


@dataclass(frozen=True)
class KnownFunc(Expr):
    kind: str
    arg: Expr

    def __post_init__(self):
        if self.kind not in KNOWN_FUNCTIONS:
            raise ExprError(f"unknown built-in function {self.kind!r}")


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ExprError("exponents are restricted to integers")


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(Fraction(x))
    raise ExprError(f"cannot coerce {x!r} to an expression")


# ---------------------------------------------------------------------------
# canonical normalization

class _AtomKey(tuple):
    """A polynomial indeterminate: it hashes, compares and sorts as the tuple
    (kind, name, var, order, argument text) and carries its atom node."""

    def __new__(cls, atom: Expr):
        if isinstance(atom, Coord):
            key = (0, atom.name, "", 0, "")
        elif isinstance(atom, Const):
            key = (1, atom.name, "", 0, "")
        elif isinstance(atom, FuncApp):
            key = (2, atom.func.name, atom.func.var, atom.order, to_string(atom.arg))
        else:
            key = (3, atom.kind, "", 0, to_string(atom.arg))
        self = super().__new__(cls, key)
        self.atom = atom
        return self


def _frac_of(e: Expr):
    if e._nf is not None:
        return e._nf
    if isinstance(e, Rat):
        return _poly.p_const(e.value), _poly.p_one()
    if isinstance(e, FuncApp):
        arg = simplify(e.arg)
        if e.func.body is not None:
            return _frac_of(_apply_body(e.func.body, e.func.var, e.order, arg))
        e = FuncApp(e.func, e.order, arg)
    elif isinstance(e, KnownFunc):
        e = KnownFunc(e.kind, simplify(e.arg))
    if isinstance(e, (Coord, Const, FuncApp, KnownFunc)):
        return _poly.p_atom(_AtomKey(e)), _poly.p_one()
    if isinstance(e, Sum):
        acc = _poly.F_ZERO
        for t in e.terms:
            acc = _poly.f_add(acc, _frac_of(t))
        return acc
    if isinstance(e, Product):
        acc = _poly.F_ONE
        for f in e.factors:
            acc = _poly.f_mul(acc, _frac_of(f))
        return acc
    if isinstance(e, Power):
        base = _frac_of(e.base)
        n = abs(e.exponent)
        for p in base:
            if n > 1 and _power_term_bound(p, n) > MAX_EXPANSION_TERMS:
                raise ResourceLimitError(
                    f"power {e.exponent} of a {len(p)}-term polynomial may "
                    f"expand past {MAX_EXPANSION_TERMS} terms"
                )
        try:
            return _poly.f_pow(base, e.exponent)
        except ZeroDivisionError:
            raise ExprError("division by an identically zero expression") from None
    raise ExprError(f"unsupported node {type(e).__name__}")


def _power_term_bound(p: Poly, n: int) -> int:
    """An upper bound on the number of terms of p**n, computed without expanding.

    A k-term polynomial to the n has at most C(n+k-1, k-1) terms, and no more
    than the product over its atoms a of n*deg_a(p) + 1; the second bound is
    the tight one for a polynomial in few atoms, such as (1 + t + t^2)^100.
    """
    degree = {}
    for mono in p:
        for atom, e in mono:
            degree[atom] = max(degree.get(atom, 0), e)
    return min(math.comb(n + len(p) - 1, n), math.prod(n * d + 1 for d in degree.values()))


def _mono_sort_key(mono) -> tuple:
    return tuple((atom, -e) for atom, e in mono)


def _term_expr(mono, coef: Fraction) -> Expr:
    factors = []
    if coef != 1 or not mono:
        factors.append(Rat(coef))
    for key, e in mono:
        atom = key.atom
        factors.append(atom if e == 1 else Power(atom, e))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def _poly_expr(p: Poly, den_mono=None) -> Expr:
    """Rebuild a polynomial (optionally divided by a monomial) as an Expr."""
    terms = []
    for mono, coef in p.items():
        if den_mono:
            d = dict(mono)
            for atom, e in den_mono:
                n = d.get(atom, 0) - e
                if n:
                    d[atom] = n
                else:
                    d.pop(atom, None)
            mono = tuple(sorted(d.items()))
        terms.append((mono, coef))
    terms.sort(key=lambda t: _mono_sort_key(t[0]))
    exprs = [_term_expr(m, c) for m, c in terms]
    if not exprs:
        return ZERO
    if len(exprs) == 1:
        return exprs[0]
    return Sum(tuple(exprs))


def _expr_of_frac(fr) -> Expr:
    num, den = fr
    if _poly.p_is_zero(num):
        return ZERO
    if _poly.p_is_const(den):
        # canonical den for polynomials is exactly 1
        return _poly_expr(num)
    if len(den) == 1:
        ((mono, coef),) = den.items()
        scaled = _poly.p_scale(num, Fraction(1) / coef) if coef != 1 else num
        return _poly_expr(scaled, den_mono=mono)
    # general denominator: split off its monomial content, keep the rest
    content = tuple(sorted(_poly._mono_content(den).items()))
    rest = _poly._strip_mono(den, content) if content else den
    rest_expr = _poly_expr(rest)
    num_expr = _poly_expr(num, den_mono=content if content else None)
    factors = []
    if isinstance(num_expr, Product):
        factors.extend(num_expr.factors)
    elif num_expr != ONE:
        factors.append(num_expr)
    factors.append(Power(rest_expr, -1))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def simplify(e: Expr) -> Expr:
    """Canonical rational-function normal form over the opaque atoms. The
    result keeps its (num, den) form: simplifying it again returns it as is,
    and expressions built from it read that form instead of its tree."""
    if e._nf is not None:
        return e
    return _node(_frac_of(e))


def _node(fr) -> Expr:
    """The canonical node of a reduced (num, den) pair, carrying that pair."""
    s = _expr_of_frac(fr)
    object.__setattr__(s, "_nf", fr)
    return s


def esum(terms: Iterable) -> Expr:
    """The canonical sum of terms, built as one node. A term is an expression
    or a number, or a tuple of them that stands for their product; a term
    with a zero factor adds nothing. A number becomes a constant pair
    without a Rat node.

    Products and the sum run on the factors' stored (num, den) pairs. A
    product is left unreduced. Numerators over the running denominator (1
    while every denominator is 1) add as plain polynomials; a term over
    another denominator joins through f_add. One f_make reduces the result
    unless its denominator is 1."""
    num, den = _poly.p_zero(), _poly.p_one()
    for t in terms:
        pairs = [(_poly.p_const(f), _poly.p_one()) if type(f) in (int, Fraction)
                 else _frac_of(_as_expr(f)) for f in (t if isinstance(t, tuple) else (t,))]
        if not all(n for n, _ in pairs):
            continue
        tn, td = pairs[0] if pairs else _poly.F_ONE
        for n, d in pairs[1:]:
            tn = _poly.p_mul(tn, n)
            if not _poly.p_is_const(d):
                td = d if _poly.p_is_const(td) else _poly.p_mul(td, d)
        if td == den:
            num = _poly.p_add(num, tn)
        elif _poly.p_is_const(td):
            num = _poly.p_add(num, _poly.p_mul(tn, den))
        elif _poly.p_is_const(den):
            num, den = _poly.p_add(_poly.p_mul(num, td), tn), td
        else:
            num, den = _poly.f_add((num, den), (tn, td))
    if _poly.p_is_const(den):
        # scaling by 1 turns an integral Fraction coefficient into an int
        return _node((_poly.p_scale(num, 1), den))
    return _node(_poly.f_make(num, den))


def eprod(factors: Iterable) -> Expr:
    return esum((tuple(factors),))


def equivalent(a: Expr, b: Expr) -> bool:
    """Structural equality after canonicalization (exact, no numerics)."""
    return simplify(Sum((a, Product((Rat(-1), b))))) == ZERO


# ---------------------------------------------------------------------------
# differentiation

def _known_derivative(kind: str, arg: Expr) -> Expr:
    if kind == "sin":
        return KnownFunc("cos", arg)
    if kind == "cos":
        return Product((Rat(-1), KnownFunc("sin", arg)))
    if kind == "sinh":
        return KnownFunc("cosh", arg)
    if kind == "cosh":
        return KnownFunc("sinh", arg)
    if kind == "tan":
        return Sum((ONE, Power(KnownFunc("tan", arg), 2)))
    if kind == "exp":
        return KnownFunc("exp", arg)
    if kind == "log":
        return Power(arg, -1)
    if kind == "sqrt":
        return Product((Rat(Fraction(1, 2)), Power(KnownFunc("sqrt", arg), -1)))
    raise ExprError(f"no derivative rule for {kind!r}")


def _d_atom(atom: Expr, v: str, memo: dict):
    """d atom/dv as a (num, den) pair, or None when it is 0."""
    if isinstance(atom, Coord):
        return _poly.F_ONE if atom.name == v else None
    if isinstance(atom, Const):
        return None
    inner = _d_nf(_frac_of(atom.arg), v, memo)
    if _poly.p_is_zero(inner[0]):
        return None
    if isinstance(atom, FuncApp):
        jet = FuncApp(atom.func, atom.order + 1, atom.arg)
        outer = _poly.p_atom(_AtomKey(jet)), _poly.p_one()
    else:
        outer = _frac_of(_known_derivative(atom.kind, atom.arg))
    if _poly.p_is_const(outer[1]) and _poly.p_is_const(inner[1]):
        return _poly.p_mul(outer[0], inner[0]), _poly.p_one()
    return _poly.f_mul(outer, inner)


def _d_poly(p: Poly, derivs: dict):
    """dp/dv = sum over atoms a of (dp/da) a', as a (num, den) pair; den is 1
    unless an atom derivative has a denominator."""
    num, den = _poly.p_zero(), _poly.p_one()
    for key, (a_num, a_den) in derivs.items():
        partial: Poly = {}
        for mono, coef in p.items():
            for i, (atom, e) in enumerate(mono):
                if atom == key:
                    shifted = ((atom, e - 1),) if e > 1 else ()
                    partial[mono[:i] + shifted + mono[i + 1:]] = coef * e
                    break
        if not partial:
            continue
        term = _poly.p_mul(partial, a_num)
        if _poly.p_is_const(a_den):
            num = _poly.p_add(num, term if _poly.p_is_const(den) else _poly.p_mul(term, den))
        else:
            num, den = _poly.f_add((num, den), (term, a_den))
    return num, den


def _d_nf(fr, v: str, memo: dict):
    """d(num/den)/dv as a reduced (num, den) pair: the quotient rule over the
    chain rule through each atom; memo keeps each atom's derivative."""
    num, den = fr
    derivs = {}
    for key in _poly.p_atoms(num) | _poly.p_atoms(den):
        if key not in memo:
            memo[key] = _d_atom(key.atom, v, memo)
        if memo[key] is not None:
            derivs[key] = memo[key]
    if not derivs:
        return _poly.F_ZERO
    a, b = _d_poly(num, derivs)
    if _poly.p_is_const(den):
        # den is exactly 1 here, and a polynomial num' is already reduced up
        # to an integral Fraction coefficient, which scaling by 1 makes an int
        return (_poly.p_scale(a, 1), b) if _poly.p_is_const(b) else _poly.f_make(a, b)
    c, d = _d_poly(den, derivs)
    if _poly.p_is_zero(c):
        return _poly.f_make(a, _poly.p_mul(b, den))
    # (a/b)/den - num (c/d)/den^2
    return _poly.f_make(
        _poly.p_sub(_poly.p_mul(_poly.p_mul(a, d), den), _poly.p_mul(_poly.p_mul(num, c), b)),
        _poly.p_mul(_poly.p_mul(b, d), _poly.p_mul(den, den)),
    )


def differentiate(e: Expr, v: Union[str, Coord]) -> Expr:
    """Partial derivative in v, computed on the stored normal form of e: the
    quotient rule on (num, den), and the chain rule through each polynomial
    atom (a coordinate, an abstract-function jet or a built-in function of
    its argument). The result keeps its normal form, as simplify's does."""
    name = v.name if isinstance(v, Coord) else v
    return _node(_d_nf(simplify(e)._nf, name, {}))


# ---------------------------------------------------------------------------
# substitution

def _apply_body(body: Expr, var: str, order: int, arg: Expr) -> Expr:
    """The order-th derivative of a function body in var, evaluated at arg."""
    for _ in range(order):
        body = differentiate(body, var)
    if arg != Coord(var):
        body = substitute(body, {var: arg})
    return body


def _atoms(e: Expr):
    """Every Coord, Const, FuncApp and KnownFunc atom of e's normal form,
    each application before the atoms of its argument."""
    num, den = simplify(e)._nf
    for key in _poly.p_atoms(num) | _poly.p_atoms(den):
        yield key.atom
        if isinstance(key.atom, (FuncApp, KnownFunc)):
            yield from _atoms(key.atom.arg)


def _free_coords(e: Expr) -> set:
    return {a.name for a in _atoms(e) if isinstance(a, Coord)}


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution, then canonical simplification.

    Keys may be FuncSymbol instances (the replacement expression is written
    in the symbol's own variable, and its normal form may name no other
    coordinate; all derivative orders are rewritten through it), Coord/Const
    instances, or plain coordinate/constant names.
    """
    func_b: dict = {}
    name_b: dict = {}
    for key, value in bindings.items():
        value = _as_expr(value)
        if isinstance(key, FuncSymbol):
            extra = _free_coords(value) - {key.var}
            if extra:
                raise SubstitutionError(
                    f"binding for {key.name}({key.var}) depends on other "
                    f"coordinate(s): {sorted(extra)}"
                )
            func_b[(key.name, key.var)] = value
        elif isinstance(key, (Coord, Const)):
            name_b[key.name] = value
        elif isinstance(key, str):
            name_b[key] = value
        else:
            raise SubstitutionError(f"unsupported binding key {key!r}")

    def walk(x: Expr) -> Expr:
        if isinstance(x, (Coord, Const)):
            return name_b.get(x.name, x)
        if isinstance(x, FuncApp):
            arg = walk(x.arg)
            repl = func_b.get((x.func.name, x.func.var))
            if repl is None:
                return FuncApp(x.func, x.order, arg)
            return _apply_body(repl, x.func.var, x.order, arg)
        if isinstance(x, KnownFunc):
            return KnownFunc(x.kind, walk(x.arg))
        if isinstance(x, Sum):
            return Sum(tuple(walk(t) for t in x.terms))
        if isinstance(x, Product):
            return Product(tuple(walk(f) for f in x.factors))
        if isinstance(x, Power):
            return Power(walk(x.base), x.exponent)
        return x

    return simplify(walk(e))


# ---------------------------------------------------------------------------
# numeric evaluation

_MATH = {
    "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
    "tan": math.tan, "exp": math.exp,
}


# a value that overflows a double is a singular point, like a vanishing
# denominator: the zero test and the finite-difference check draw again
_OVERFLOW = "value overflows a double"


def _finite(x: float) -> float:
    # float sums and products overflow to inf (or nan) without raising
    if not math.isfinite(x):
        raise SingularPointError(_OVERFLOW)
    return x


def _eval(e: Expr, env: Mapping, epsilon: float) -> float:
    if isinstance(e, Rat):
        try:
            return float(e.value)
        except OverflowError:
            raise SingularPointError(_OVERFLOW) from None
    if isinstance(e, (Coord, Const)):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"no binding for {e.name!r}") from None
    if isinstance(e, FuncApp):
        try:
            return env[(e.func.name, e.order)]
        except KeyError:
            raise EvalError(
                f"no binding for {e.func.name}{chr(39) * e.order}"
            ) from None
    if isinstance(e, KnownFunc):
        a = _eval(e.arg, env, epsilon)
        if e.kind == "log":
            if a <= epsilon:
                raise SingularPointError("log argument not positive")
            return math.log(a)
        if e.kind == "sqrt":
            if a < 0:
                raise SingularPointError("sqrt of a negative value")
            return math.sqrt(a)
        try:
            return _MATH[e.kind](a)
        except OverflowError:
            raise SingularPointError(_OVERFLOW) from None
    if isinstance(e, Sum):
        return _finite(sum(_eval(t, env, epsilon) for t in e.terms))
    if isinstance(e, Product):
        r = 1.0
        for f in e.factors:
            r *= _eval(f, env, epsilon)
        return _finite(r)
    if isinstance(e, Power):
        b = _eval(e.base, env, epsilon)
        if e.exponent < 0 and abs(b) <= epsilon:
            raise SingularPointError(
                f"denominator magnitude {abs(b):.3e} below epsilon"
            )
        try:
            return b ** e.exponent
        except OverflowError:
            raise SingularPointError(_OVERFLOW) from None
    raise EvalError(f"cannot evaluate {type(e).__name__}")


def eval_numeric(e: Expr, point: Mapping, epsilon: float = DEFAULT_EPSILON) -> float:
    """IEEE double evaluation at a point.

    Point keys: coordinate/constant names, function names with primes
    ("X", "X'", "X''"), or (name, order) tuples for abstract-function jets.
    """
    env: dict = {}
    for key, value in point.items():
        value = float(value)
        if isinstance(key, tuple):
            name, order = key
            env[(name, int(order))] = value
        else:
            stripped = key.rstrip("'")
            order = len(key) - len(stripped)
            if order:
                env[(stripped, order)] = value
            else:
                env[key] = value
                env[(key, 0)] = value
    return _eval(e, env, epsilon)


# ---------------------------------------------------------------------------
# probe-based zero testing

# safe default intervals; they keep f(theta) away from 0 for the sin, sinh
# and identity variants and keep denominators bounded away from 0
_COORD_INTERVALS = {
    "t": (0.5, 2.0),
    "r": (0.5, 2.0),
    "theta": (0.3, 1.2),
    "phi": (0.1, 3.0),
}
_FIBER_INTERVAL = (-1.0, 1.0)
_VALUE_INTERVAL = (0.5, 2.0)
_JET_INTERVAL = (-2.0, 2.0)


def _is_fiber_name(name: str) -> bool:
    return len(name) > 1 and name[0] == "u" and name[1:].isdigit()


def probe_interval(label: str) -> tuple:
    """Default probe interval for a symbol label ("theta", "c1", "X'")."""
    stripped = label.rstrip("'")
    order = len(label) - len(stripped)
    if order:
        return _JET_INTERVAL
    if stripped in _COORD_INTERVALS:
        return _COORD_INTERVALS[stripped]
    if _is_fiber_name(stripped):
        return _FIBER_INTERVAL
    return _VALUE_INTERVAL


def _probe_symbol(a: Expr) -> tuple:
    """(env key, display label) of a coordinate, constant or function jet."""
    if isinstance(a, FuncApp):
        return (a.func.name, a.order), a.func.name + "'" * a.order
    return a.name, a.name


def _probe_symbols(*exprs: Expr) -> dict:
    """Env keys -> display labels for every free symbol of the expressions."""
    return dict(
        _probe_symbol(a) for e in exprs for a in _atoms(e) if not isinstance(a, KnownFunc)
    )


@dataclass(frozen=True)
class ZeroVerdict:
    kind: str  # "zero" | "nonzero" | "unknown"
    witness: Optional[dict] = None
    value: Optional[float] = None

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.kind == "nonzero"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


@dataclass(frozen=True)
class ProbeConfig:
    """Settings of the probe-based zero test and the finite-difference check."""

    seed: int = 0
    probes: int = DEFAULT_PROBE_COUNT
    zero_tol: float = DEFAULT_ZERO_TOL
    fd_step: float = 1e-5
    fd_rel_tol: float = 1e-6
    domain: Optional[Mapping] = None  # label -> (lo, hi), defaults per symbol

    def __post_init__(self):
        if self.probes < 1:
            raise ValueError("probes must be >= 1")
        if not all(0 < x < math.inf for x in (self.zero_tol, self.fd_step, self.fd_rel_tol)):
            raise ValueError("tolerances and steps must be positive and finite")
        for label, (lo, hi) in (self.domain or {}).items():
            if not lo < hi:
                raise ValueError(f"degenerate probe interval for {label!r}")


_MAX_REDRAWS = 8


def _probe_points(symbols: Mapping, cfg: ProbeConfig):
    """Per probe, a lazy iterator over its _MAX_REDRAWS candidate points
    (env, labeled); callers take the next candidate when a point is singular.

    env maps each key of symbols, and labeled each label, to one draw from
    the label's cfg.domain interval or its default probe_interval.
    """
    ordered = sorted(symbols.items(), key=lambda kv: kv[1])
    intervals = [(key, label, (cfg.domain or {}).get(label) or probe_interval(label))
                 for key, label in ordered]

    def draw(probe: int, attempt: int) -> tuple:
        rng = random.Random(((cfg.seed & 0xFFFFFFFF) * 1000003 + probe) * 101 + attempt)
        env = {}
        labeled = {}
        for key, label, (lo, hi) in intervals:
            env[key] = labeled[label] = rng.uniform(lo, hi)
        return env, labeled

    for probe in range(cfg.probes):
        yield (draw(probe, attempt) for attempt in range(_MAX_REDRAWS))


def is_identically_zero(e: Expr, *, cfg: ProbeConfig = ProbeConfig()) -> ZeroVerdict:
    """Sound tri-state zero test with the probe settings of cfg.

    "zero" is claimed only when the canonical form is literally 0. Otherwise
    cfg.probes random points over the safe domain (cfg.seed, cfg.domain) look
    for a numeric witness; if none exceeds cfg.zero_tol the verdict is
    "unknown", never silently zero. A point where a denominator falls below
    DEFAULT_EPSILON or a value overflows a double is singular and is drawn
    again.
    """
    s = simplify(e)
    if s == ZERO:
        return ZeroVerdict("zero")
    for candidates in _probe_points(_probe_symbols(s), cfg):
        for env, labeled in candidates:
            try:
                value = _eval(s, env, DEFAULT_EPSILON)
            except SingularPointError:
                continue
            if abs(value) > cfg.zero_tol:
                return ZeroVerdict("nonzero", witness=labeled, value=value)
            break
    return ZeroVerdict("unknown")


# ---------------------------------------------------------------------------
# parsing

class SymbolTable:
    """Declared coordinates and function symbols for the surface syntax.

    Bare identifiers that are neither coordinates nor declared functions
    parse as named constants and are recorded in ``consts``.
    """

    def __init__(self, coords: Iterable[str] = (), funcs: Iterable[FuncSymbol] = ()):
        self.coords: list = []
        self.funcs: dict = {}
        self.consts: set = set()
        for c in coords:
            self.declare_coord(c)
        for f in funcs:
            self.declare_func(f)

    def declare_coord(self, name: str):
        self._check_name(name)
        if name not in self.coords:
            self.coords.append(name)

    def declare_func(self, func: FuncSymbol) -> FuncSymbol:
        self._check_name(func.name)
        if func.var not in self.coords:
            raise ExprError(
                f"function {func.name} depends on undeclared coordinate {func.var!r}"
            )
        self.funcs[func.name] = func
        return func

    def _check_name(self, name: str):
        if name in KNOWN_FUNCTIONS:
            raise ExprError(f"{name!r} is a reserved function name")

    def copy(self) -> "SymbolTable":
        t = SymbolTable()
        t.coords = list(self.coords)
        t.funcs = dict(self.funcs)
        t.consts = set(self.consts)
        return t

    @classmethod
    def default_gks(cls) -> "SymbolTable":
        t = cls(coords=("t", "r", "theta", "phi"))
        t.declare_func(FuncSymbol("X", "t"))
        t.declare_func(FuncSymbol("Y", "t"))
        t.declare_func(FuncSymbol("f", "theta"))
        return t


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if c == "'":
            tokens.append(("prime", c, i))
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, symbols: SymbolTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.symbols = symbols
        self.depth = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                t = self.term()
                terms.append(t if value == "+" else Product((Rat(-1), t)))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                f = self.factor()
                factors.append(f if value == "*" else Power(f, -1))
            else:
                break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Expr:
        # every nesting level of the grammar passes through here
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", self.peek()[2]
            )
        self.depth += 1
        f = self._factor()
        self.depth -= 1
        return f

    def _factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Product((Rat(-1), self.factor()))
        a = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            sign = 1
            kind, value, offset = self.peek()
            if kind == "op" and value == "-":
                self.next()
                sign = -1
                kind, value, offset = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent", offset)
            self.next()
            return Power(a, sign * int(value))
        return a

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "int":
            self.next()
            num = int(value)
            k2, v2, o2 = self.peek()
            if k2 == "op" and v2 == "/" and self.peek(1)[0] == "int":
                self.next()
                _, den, o3 = self.next()
                if int(den) == 0:
                    raise ParseError("zero denominator in rational", o3)
                return Rat(Fraction(num, int(den)))
            return Rat(Fraction(num))
        if kind == "op" and value == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            self.next()
            return self.ident_atom(value, offset)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)

    def ident_atom(self, name: str, offset: int) -> Expr:
        primes = 0
        while self.peek()[0] == "prime":
            self.next()
            primes += 1
        has_parens = self.peek()[0] == "op" and self.peek()[1] == "("
        arg = None
        if has_parens:
            self.next()
            arg = self.expr()
            self.expect_op(")")
        table = self.symbols
        if name in table.funcs:
            func = table.funcs[name]
            return FuncApp(func, primes, arg if arg is not None else Coord(func.var))
        if name in KNOWN_FUNCTIONS:
            if primes:
                raise ParseError(
                    f"prime notation is not supported on built-in {name!r}", offset
                )
            if arg is None:
                raise ParseError(f"built-in function {name!r} needs an argument", offset)
            return KnownFunc(name, arg)
        if primes:
            raise ParseError(
                f"unknown function name {name!r} used with prime notation "
                "but never declared", offset
            )
        if arg is not None:
            raise ParseError(f"unknown function name {name!r}", offset)
        if name in table.coords:
            return Coord(name)
        table.consts.add(name)
        return Const(name)


def parse(text: str, symbols: Optional[SymbolTable] = None) -> Expr:
    """Parse surface syntax into the canonical normal form."""
    if symbols is None:
        symbols = SymbolTable.default_gks()
    return simplify(_Parser(text, symbols).parse())


# ---------------------------------------------------------------------------
# printing

def _fmt_rat(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _atom_str(e: Expr) -> str:
    if isinstance(e, Coord) or isinstance(e, Const):
        return e.name
    if isinstance(e, FuncApp):
        return f"{e.func.name}{chr(39) * e.order}({to_string(e.arg)})"
    if isinstance(e, KnownFunc):
        return f"{e.kind}({to_string(e.arg)})"
    raise ExprError(f"not an atom: {e!r}")


def _base_str(e: Expr) -> str:
    if isinstance(e, (Sum, Product)):
        return f"({to_string(e)})"
    if isinstance(e, Rat):
        return f"({_fmt_rat(e.value)})"
    return _atom_str(e)


def _product_parts(e: Expr):
    """Split into (coefficient, [(base_str, exp)]) for product-like nodes."""
    coef = Fraction(1)
    parts = []
    factors = e.factors if isinstance(e, Product) else (e,)
    for f in factors:
        if isinstance(f, Rat):
            coef *= f.value
        elif isinstance(f, Power):
            parts.append((_base_str(f.base), f.exponent))
        else:
            parts.append((_base_str(f), 1))
    return coef, parts


def _unsigned_term(coef: Fraction, parts) -> str:
    pos = [(b, e) for b, e in parts if e > 0]
    neg = [(b, -e) for b, e in parts if e < 0]
    pieces = []
    if not pos or abs(coef) != 1:
        pieces.append(_fmt_rat(abs(coef)))
    pieces.extend(b if e == 1 else f"{b}^{e}" for b, e in pos)
    out = "*".join(pieces)
    for b, e in neg:
        out += "/" + (b if e == 1 else f"{b}^{e}")
    return out


def _term_str(e: Expr):
    """Render a sum term; returns (is_negative, unsigned_text)."""
    if isinstance(e, (Product, Power, Rat)):
        coef, parts = _product_parts(e)
        return coef < 0, _unsigned_term(coef, parts)
    return False, _atom_str(e)


def to_string(e: Expr) -> str:
    """Render in the surface syntax; parsing the output reproduces e
    whenever e is in canonical normal form."""
    if isinstance(e, Sum):
        out = []
        for i, t in enumerate(e.terms):
            neg, body = _term_str(t)
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append((" - " if neg else " + ") + body)
        return "".join(out)
    if isinstance(e, (Product, Power, Rat)):
        neg, body = _term_str(e)
        return ("-" if neg else "") + body
    return _atom_str(e)
