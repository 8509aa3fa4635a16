"""Symbolic expression engine.

A value is a :class:`Normal`: the canonical rational-function normal form,
a reduced (num, den) pair of polynomials over opaque atoms. Each
coordinate, each named constant, each (abstract function, derivative
order) pair and each built-in function application is an independent
indeterminate. No trigonometric or hyperbolic identities are applied.
Equal values have equal pairs, so equality is exact and structural.

The atoms (Coord, Const, FuncApp, KnownFunc) are the only other nodes: a
polynomial indeterminate carries its atom, and :func:`simplify` turns a
lone atom into its Normal through ``_frac_of``. The parser folds as it
reads, so every sum, product, power and number it meets is a Normal at
once, and every public operation returns a Normal. Printing, numeric
evaluation and substitution all read the pair, in the term order of
``_layout``.

Identity checking beyond literal cancellation is random-point identity
probing: :func:`is_identically_zero` evaluates a value at seeded points of
a safe domain and reports "zero", "nonzero" or "unknown".

The concrete surface syntax (also produced by :func:`to_string`):

    expr    := term (('+'|'-') term)* ;
    term    := factor (('*'|'/') factor)* ;
    factor  := '-' factor | atom ('^' integer)? ;
    atom    := integer | ident primes? ( '(' expr ')' )? | '(' expr ')' ;
    primes  := '\\''+ ;
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

from . import _poly
from ._poly import Poly  # noqa: F401

__all__ = [
    "Expr", "Normal", "Coord", "Const", "FuncApp", "KnownFunc", "FuncSymbol",
    "SymbolTable", "ZeroVerdict", "ProbeConfig",
    "ExprError", "ParseError", "EvalError", "SingularPointError",
    "SubstitutionError", "ResourceLimitError",
    "parse", "to_string", "simplify", "derivation", "differentiate", "substitute",
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
# a power, and the numerators or the denominators of a product the parser
# reads, may expand to at most this many terms (as _power_term_bound and
# _product_term_bound count them): the largest power count in the tests,
# bundled metrics and benchmark inputs is 201, for (1+t+t^2)^100; the
# quotient-rule property squares drawn denominators, which may pass it (a
# 66-term one reaches 2205), and expects the error there
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
# records

class _Record:
    """Base of the package's immutable records. A subclass lists its fields
    in _fields and in __slots__, and its __init__ checks them and stores
    each with _set. Records are equal when they are of one class and their
    fields are equal; the hash is that of the field tuple and the repr is
    Name(field=value, ...), as for a frozen dataclass. Assignment raises
    AttributeError."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# stores a field of a record that is being built
_set = object.__setattr__


# ---------------------------------------------------------------------------
# node types

class Expr:
    """Base class of values and atoms; instances are immutable and hashable,
    and every operator returns a Normal."""

    __slots__ = ()

    def __add__(self, other):
        return esum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return esum((self, (-1, other)))

    def __rsub__(self, other):
        return esum((other, (-1, self)))

    def __mul__(self, other):
        return eprod((self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return eprod((self, _as_expr(other) ** -1))

    def __rtruediv__(self, other):
        return eprod((other, self ** -1))

    def __pow__(self, n: int):
        """The integer power n. A power that may expand past
        MAX_EXPANSION_TERMS terms is a ResourceLimitError, and a negative
        power of 0 an ExprError. The base is a reduced pair, so its power
        is reduced without a gcd."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise ExprError("exponents are restricted to integers")
        base = _frac_of(self)
        for p in base:
            if abs(n) > 1 and _power_term_bound(p, abs(n)) > MAX_EXPANSION_TERMS:
                raise ResourceLimitError(
                    f"power {n} of a {len(p)}-term polynomial may "
                    f"expand past {MAX_EXPANSION_TERMS} terms"
                )
        try:
            return Normal(_poly.f_pow_reduced(base, n))
        except ZeroDivisionError:
            raise ExprError("division by an identically zero expression") from None

    def __neg__(self):
        """Only the numerator of the reduced pair changes sign."""
        num, den = _frac_of(self)
        return Normal((_poly.p_neg(num), den))

    def __str__(self):
        return to_string(self)


class Normal(Expr):
    """A canonical value: the reduced (num, den) pair of polynomials over the
    opaque atoms, as _poly.f_make leaves it. Two values are equal exactly
    when their pairs are; a Normal never equals an atom."""

    __slots__ = ("num", "den", "__weakref__")

    def __init__(self, fr):
        self.num, self.den = fr

    def __eq__(self, other):
        return isinstance(other, Normal) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __repr__(self):
        return f"Normal({to_string(self)!r})"


class Coord(Expr, _Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Const(Expr, _Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class FuncSymbol(_Record):
    """A single-variable function symbol, abstract unless a body is given."""

    __slots__ = _fields = ("name", "var", "body")

    def __init__(self, name: str, var: str, body: Optional[Expr] = None):
        _set(self, "name", name)
        _set(self, "var", var)
        _set(self, "body", body)

    def app(self, order: int = 0) -> Expr:
        return simplify(FuncApp(self, order, Coord(self.var)))


class FuncApp(Expr, _Record):
    __slots__ = _fields = ("func", "order", "arg")

    def __init__(self, func: FuncSymbol, order: int, arg: Expr):
        if order < 0:
            raise ExprError("derivative order must be non-negative")
        _set(self, "func", func)
        _set(self, "order", order)
        _set(self, "arg", arg)


class KnownFunc(Expr, _Record):
    __slots__ = _fields = ("kind", "arg")

    def __init__(self, kind: str, arg: Expr):
        if kind not in KNOWN_FUNCTIONS:
            raise ExprError(f"unknown built-in function {kind!r}")
        _set(self, "kind", kind)
        _set(self, "arg", arg)


ZERO = Normal(_poly.F_ZERO)
ONE = Normal(_poly.F_ONE)


def _as_expr(x) -> Expr:
    """x itself, or the constant value of a number."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Normal((_poly.p_const(x), _poly.p_one()))
    raise ExprError(f"cannot coerce {x!r} to an expression")


# ---------------------------------------------------------------------------
# canonical normalization

class _AtomKey(tuple):
    """A polynomial indeterminate: it hashes, compares and sorts as the tuple
    (kind, name, var, order, argument text) and carries its atom node. The
    argument text is to_string of the argument unless the caller knows it:
    the name of a bare coordinate, or the text of the atom a jet or a
    built-in's derivative came from."""

    def __new__(cls, atom: Expr, text: Optional[str] = None):
        if isinstance(atom, Coord):
            key = (0, atom.name, "", 0, "")
        elif isinstance(atom, Const):
            key = (1, atom.name, "", 0, "")
        else:
            if text is None:
                text = to_string(atom.arg)
            if isinstance(atom, FuncApp):
                key = (2, atom.func.name, atom.func.var, atom.order, text)
            else:
                key = (3, atom.kind, "", 0, text)
        self = super().__new__(cls, key)
        self.atom = atom
        return self

    @functools.cached_property
    def arg_plan(self) -> tuple:
        """The _plan of the argument of a function application, laid out
        once per key, since many values share their atoms' keys."""
        return _plan(_frac_of(self.atom.arg))


def _frac_of(e: Expr):
    """The reduced (num, den) pair of a value or of an atom."""
    if isinstance(e, Normal):
        return e.num, e.den
    text = None
    if isinstance(e, (FuncApp, KnownFunc)):
        text = e.arg.name if isinstance(e.arg, Coord) else None
        arg = simplify(e.arg)
        if isinstance(e, KnownFunc):
            e = KnownFunc(e.kind, arg)
        elif e.func.body is None:
            e = FuncApp(e.func, e.order, arg)
        else:
            return _frac_of(_apply_body(e.func.body, e.func.var, e.order, arg))
    if isinstance(e, (Coord, Const, FuncApp, KnownFunc)):
        return _poly.p_atom(_AtomKey(e, text)), _poly.p_one()
    raise ExprError(f"unsupported node {type(e).__name__}")


def _power_term_bound(p: Poly, n: int) -> int:
    """An upper bound on the number of terms of p**n, computed without expanding.

    A k-term polynomial to the n has at most C(n+k-1, k-1) terms, and no more
    than the product over its atoms a of n*deg_a(p) + 1; the second bound is
    the tight one for a polynomial in few atoms, such as (1 + t + t^2)^100.
    """
    return min(math.comb(n + len(p) - 1, n),
               math.prod(n * d + 1 for d in _degrees(p).values()))


def _product_term_bound(polys: tuple) -> int:
    """An upper bound on the number of terms of the product of polys, computed
    without expanding: the product of their term counts, and, only when that
    passes MAX_EXPANSION_TERMS, no more than the product over the atoms a of
    (the sum of their deg_a) + 1."""
    bound = math.prod(len(p) for p in polys)
    if bound <= MAX_EXPANSION_TERMS:
        return bound
    degree = Counter()
    for p in polys:
        degree.update(_degrees(p))
    return min(bound, math.prod(d + 1 for d in degree.values()))


def _degrees(p: Poly) -> dict:
    """The degree of p in each of its atoms."""
    degree = {}
    for mono in p:
        for atom, e in mono:
            degree[atom] = max(degree.get(atom, 0), e)
    return degree


def _mono_sort_key(mono) -> tuple:
    return tuple((atom, -e) for atom, e in mono)


def _layout(fr) -> tuple:
    """(terms, rest): the (num, den) pair fr as the sum of terms over rest,
    the multi-term part of den (None when that is a monomial).

    A term is (coefficient, monomial); the denominator's monomial content is
    folded into the numerator's monomials as negative exponents. Each term
    list is in _mono_sort_key order. Printing, evaluation and substitution
    all visit a value in this order.
    """
    num, den = fr
    if len(den) == 1:
        # coefficient 1: den is canonical or, from _d_nf, a product of canonical ones
        (shared,) = den
        rest = None
    else:
        shared = tuple(sorted(_poly._mono_content(den).items()))
        rest = _terms(_poly._strip_mono(den, shared) if shared else den, ())
    return _terms(num, shared), rest


def _terms(p: Poly, shared) -> list:
    terms = []
    for mono, coef in p.items():
        if shared:
            d = dict(mono)
            for atom, e in shared:
                k = d.get(atom, 0) - e
                if k:
                    d[atom] = k
                else:
                    d.pop(atom, None)
            mono = tuple(sorted(d.items()))
        terms.append((coef, mono))
    terms.sort(key=lambda t: _mono_sort_key(t[1]))
    return terms


def simplify(e: Expr) -> Normal:
    """The canonical value of e: its rational-function normal form over the
    opaque atoms. A Normal is returned as is."""
    if isinstance(e, Normal):
        return e
    return Normal(_frac_of(e))


def esum(terms: Iterable) -> Normal:
    """The canonical sum of terms, built as one value. A term is an expression
    or a number, or a tuple of them that stands for their product; a term
    with a zero factor adds nothing, though each of its factors is still
    coerced (a float raises ExprError).

    The scalar fold: the number factors of a term multiply into one scalar,
    and the other factors are read as their stored (num, den) pairs. Once
    every factor is read and none is zero, the numerators multiply in order
    and one p_scale applies the scalar (none when it is 1), so no number
    becomes a constant polynomial; a term of numbers only is a constant. A
    product is left unreduced. Numerators over the running denominator (1
    while every denominator is 1) add as plain polynomials; a term over
    another denominator joins through f_add. One f_make reduces the result
    unless its denominator is 1; then the numerator, a dict esum built
    itself, has each integral coefficient made an int in place. Nor is a
    sum reduced that is one number times one value over a denominator
    other than 1: scaling a reduced pair's numerator keeps it reduced."""
    p_mul, p_add, p_is_const = _poly.p_mul, _poly.p_add, _poly.p_is_const
    num, den, unit = _poly.p_zero(), _poly.p_one(), True  # unit: den is 1
    scaled = False  # the sum so far is a number times one value, den not 1
    for t in terms:
        c, fracs = 1, []
        for f in (t if isinstance(t, tuple) else (t,)):
            if type(f) in (int, Fraction):
                c = f if c == 1 else c * f  # 1 * Fraction is a Fraction product
            elif type(f) is Normal:
                if not f.num:
                    c = 0
                fracs.append((f.num, f.den))
            else:
                fr = _frac_of(_as_expr(f))
                if not fr[0]:
                    c = 0
                fracs.append(fr)
        if not c:
            continue
        if not fracs:
            tn, td = _poly.p_const(c), _poly.p_one()
        else:
            tn, td = fracs[0]
            for n, d in fracs[1:]:
                tn = p_mul(tn, n)
                if not p_is_const(d):
                    td = d if p_is_const(td) else p_mul(td, d)
            if c != 1:
                tn = _poly.p_scale(tn, c)
        scaled = unit and not num and len(fracs) == 1 and not p_is_const(td)
        if p_is_const(td):
            num = p_add(num, tn if unit else p_mul(tn, den))
        elif unit:
            num, den, unit = p_add(p_mul(num, td), tn), td, False
        elif td == den:
            num = p_add(num, tn)
        else:
            num, den = _poly.f_add((num, den), (tn, td))
            unit = p_is_const(den)
    if unit:
        return Normal((_poly.p_normalize(num), den))
    return Normal((num, den) if scaled else _poly.f_make(num, den))


def eprod(factors: Iterable) -> Normal:
    return esum((tuple(factors),))


def equivalent(a: Expr, b: Expr) -> bool:
    """Equality of canonical forms (exact, no numerics): a Normal is equal
    exactly when its reduced pair is, so no difference is built."""
    return simplify(_as_expr(a)) == simplify(_as_expr(b))


# ---------------------------------------------------------------------------
# differentiation

def _known_derivative(key: _AtomKey) -> Expr:
    """The derivative of the built-in application key.atom in its argument;
    the built-ins it names reuse the argument text of key."""
    kind, arg = key.atom.kind, key.atom.arg

    def of_arg(name: str) -> Normal:
        return Normal((_poly.p_atom(_AtomKey(KnownFunc(name, arg), key[4])), _poly.p_one()))

    if kind == "sin":
        return of_arg("cos")
    if kind == "cos":
        return -of_arg("sin")
    if kind == "sinh":
        return of_arg("cosh")
    if kind == "cosh":
        return of_arg("sinh")
    if kind == "tan":
        return 1 + of_arg("tan") ** 2
    if kind == "exp":
        return of_arg("exp")
    if kind == "log":
        return arg ** -1
    if kind == "sqrt":
        return eprod((Fraction(1, 2), of_arg("sqrt") ** -1))
    raise ExprError(f"no derivative rule for {kind!r}")


def _d_atom(key: _AtomKey, field: Mapping, memo: dict):
    """The derivative of the atom of key along field as a (num, den) pair,
    or None when it is 0. A coordinate's derivative is its component over 1;
    a function's may have a denominator, such as log's 1/arg."""
    atom = key.atom
    if isinstance(atom, Coord):
        c = field.get(atom.name)
        return None if c is None else (c, _poly.p_one())
    if isinstance(atom, Const):
        return None
    inner = _reduced(_d_nf(_frac_of(atom.arg), field, memo))
    if _poly.p_is_zero(inner[0]):
        return None
    if isinstance(atom, FuncApp):
        jet = FuncApp(atom.func, atom.order + 1, atom.arg)
        outer = _poly.p_atom(_AtomKey(jet, key[4])), _poly.p_one()
    else:
        outer = _frac_of(_known_derivative(key))
    if _poly.p_is_const(outer[1]) and _poly.p_is_const(inner[1]):
        return _poly.p_mul(outer[0], inner[0]), _poly.p_one()
    return _poly.f_mul(outer, inner)


def _d_poly(p: Poly, derivs: dict):
    """The derivative of p, the sum over atoms a of (dp/da) a', as a
    (num, den) pair; den is 1 unless an atom derivative has a denominator."""
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


def _d_nf(fr, field: Mapping, memo: dict):
    """The derivative of num/den along a vector field as an unreduced
    (num, den) pair: the quotient rule over the chain rule through each atom.
    field maps a coordinate name to the polynomial of its component; a
    coordinate it does not name has component 0. So {v: p_one()} is d/dv,
    and {x^l: u^l} is u^l d_l, the complete lift of a base value in one
    pass. memo keeps each atom's derivative along field, so one memo serves
    every value derived along the same field. The finite-difference oracle
    evaluates the pair as it is; _reduced reduces it."""
    num, den = fr
    derivs = {}
    for key in _poly.p_atoms(num) | _poly.p_atoms(den):
        if key not in memo:
            memo[key] = _d_atom(key, field, memo)
        if memo[key] is not None:
            derivs[key] = memo[key]
    if not derivs:
        return _poly.F_ZERO
    a, b = _d_poly(num, derivs)
    c, d = _d_poly(den, derivs)
    if _poly.p_is_zero(c):
        return a, _poly.p_mul(b, den)
    # (a/b)/den - num (c/d)/den^2
    return (
        _poly.p_sub(_poly.p_mul(_poly.p_mul(a, d), den), _poly.p_mul(_poly.p_mul(num, c), b)),
        _poly.p_mul(_poly.p_mul(b, d), _poly.p_mul(den, den)),
    )


def _reduced(fr):
    """The canonical form of a _d_nf pair. A constant denominator is 1, over
    which scaling by 1 turns an integral Fraction coefficient into an int."""
    a, b = fr
    return (_poly.p_scale(a, 1), b) if _poly.p_is_const(b) else _poly.f_make(a, b)


def derivation(field: Mapping) -> Callable[[Expr], Normal]:
    """The derivative along a vector field, as a function of a value: the
    quotient rule on the value's (num, den) pair and the chain rule through
    each polynomial atom (a coordinate, an abstract-function jet or a
    built-in function of its argument), reduced once. field maps a
    coordinate name to the polynomial of its component, such as p_one() for
    a coordinate partial or an atom's p_atom for u^l d_l.

    One atom memo serves every value the function is given, so each atom is
    derived once per field; the memo lives as long as the function."""
    memo: dict = {}

    def derive(e: Expr) -> Normal:
        return Normal(_reduced(_d_nf(_frac_of(e), field, memo)))

    return derive


def differentiate(e: Expr, v: Union[str, Coord]) -> Normal:
    """Partial derivative of e in v: derivation({v: 1})(e)."""
    name = v.name if isinstance(v, Coord) else v
    return derivation({name: _poly.p_one()})(e)


# ---------------------------------------------------------------------------
# substitution

def _apply_body(body: Expr, var: str, order: int, arg: Normal) -> Expr:
    """The order-th derivative of a function body in var, evaluated at arg."""
    for _ in range(order):
        body = differentiate(body, var)
    if arg != simplify(Coord(var)):
        body = substitute(body, {var: arg})
    return body


def _atoms(e: Expr):
    """Every Coord, Const, FuncApp and KnownFunc atom of e's normal form,
    each application before the atoms of its argument."""
    num, den = _frac_of(e)
    for key in _poly.p_atoms(num) | _poly.p_atoms(den):
        yield key.atom
        if isinstance(key.atom, (FuncApp, KnownFunc)):
            yield from _atoms(key.atom.arg)


def _free_coords(e: Expr) -> set:
    return {a.name for a in _atoms(e) if isinstance(a, Coord)}


def substitute(e: Expr, bindings: Mapping) -> Normal:
    """Simultaneous substitution into the normal form of e.

    Keys may be FuncSymbol instances (the replacement expression is written
    in the symbol's own variable, and its normal form may name no other
    coordinate; all derivative orders are rewritten through it), Coord/Const
    instances, or plain coordinate/constant names.

    Each atom of the (num, den) pair is mapped once, and the terms of
    _layout are summed again by esum; each power of a replacement checks
    MAX_EXPANSION_TERMS before it expands.
    """
    func_b: dict = {}
    name_b: dict = {}
    for key, value in bindings.items():
        value = simplify(_as_expr(value))
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

    def atom(a: Expr) -> Expr:
        if isinstance(a, (Coord, Const)):
            return name_b.get(a.name, a)
        arg = replaced(a.arg)
        if isinstance(a, KnownFunc):
            return KnownFunc(a.kind, arg)
        repl = func_b.get((a.func.name, a.func.var))
        if repl is None:
            return FuncApp(a.func, a.order, arg)
        return _apply_body(repl, a.func.var, a.order, arg)

    def replaced(n: Normal) -> Normal:
        mapped = {key: simplify(atom(key.atom))
                  for key in _poly.p_atoms(n.num) | _poly.p_atoms(n.den)}

        def total(terms):
            return esum((coef,) + tuple(mapped[k] if e == 1 else mapped[k] ** e
                                        for k, e in mono) for coef, mono in terms)

        terms, rest = _layout(_frac_of(n))
        return total(terms) if rest is None else eprod((total(terms), total(rest) ** -1))

    return replaced(simplify(e))


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


def _float(c) -> float:
    # a coefficient past a double is inf, so its term is a singular point
    try:
        return float(c)
    except OverflowError:
        return math.inf


def _plan(fr) -> tuple:
    """The (num, den) pair fr laid out for _value_at, once per value: the
    (terms, rest) of _layout with each coefficient as a float and each
    factor as (env key, exponent, None) for a coordinate or a constant, or
    (kind, exponent, plan of the argument) for a built-in function, or
    ((name, order), exponent, plan of the argument) for an abstract jet."""
    terms, rest = _layout(fr)
    return _plan_terms(terms), None if rest is None else _plan_terms(rest)


def _plan_terms(terms) -> tuple:
    return tuple(
        (_float(coef), tuple(
            (k.atom.kind if isinstance(k.atom, KnownFunc) else _probe_symbol(k.atom)[0],
             e, None if isinstance(k.atom, (Coord, Const)) else k.arg_plan)
            for k, e in mono
        ))
        for coef, mono in terms
    )


def _power(b: float, e: int) -> float:
    if e < 0 and abs(b) <= DEFAULT_EPSILON:
        raise SingularPointError(f"denominator magnitude {abs(b):.3e} below epsilon")
    try:
        return b ** e
    except OverflowError:
        raise SingularPointError(_OVERFLOW) from None


def _builtin(kind: str, a: float) -> float:
    if kind == "log":
        if a <= DEFAULT_EPSILON:
            raise SingularPointError("log argument not positive")
        return math.log(a)
    if kind == "sqrt":
        if a < 0:
            raise SingularPointError("sqrt of a negative value")
        return math.sqrt(a)
    try:
        return _MATH[kind](a)
    except OverflowError:
        raise SingularPointError(_OVERFLOW) from None


def _sum(terms: tuple, env: Mapping, jet) -> float:
    values = []
    for coef, factors in terms:
        r = _finite(coef)
        for key, e, arg in factors:
            if arg is not None and isinstance(key, str):
                x = _builtin(key, _value_at(arg, env, jet))
            elif arg is not None and jet is not None:
                x = jet(key, _value_at(arg, env, jet))
            else:
                try:
                    x = env[key]
                except KeyError:
                    name = key[0] + "'" * key[1] if isinstance(key, tuple) else repr(key)
                    raise EvalError(f"no binding for {name}") from None
            r *= x if e == 1 else _power(x, e)
        values.append(_finite(r))
    return values[0] if len(values) == 1 else _finite(sum(values, 0.0))


def _value_at(plan: tuple, env: Mapping, jet=None) -> float:
    """The value of a _plan at env: the terms multiplied out in order, the
    coefficient first, summed, and then times rest ** -1. An abstract jet
    reads env at its (name, order) key, or, given jet, is jet((name, order),
    the value of its argument). A denominator within DEFAULT_EPSILON of 0,
    or a value past a double, is a SingularPointError."""
    terms, rest = plan
    value = _sum(terms, env, jet)
    if rest is None:
        return value
    return _finite(value * _power(_sum(rest, env, jet), -1))


def eval_numeric(e: Expr, point: Mapping) -> float:
    """IEEE double evaluation of the normal form of e at a point.

    The (num, den) pair is laid out once (_plan) and evaluated term by term
    in _layout's order, so a value comes out bit for bit the same whichever
    caller evaluates it. A denominator within DEFAULT_EPSILON of 0, a log or
    sqrt outside its domain, or a value that overflows a double raises
    SingularPointError.

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
    return _value_at(_plan(_frac_of(e)), env)


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
    return len(name) > 1 and name[0] == "u" and name[1:].isascii() and name[1:].isdigit()


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


def _probe_symbols(e: Expr) -> dict:
    """Env keys -> display labels for every free symbol of e."""
    return dict(_probe_symbol(a) for a in _atoms(e) if not isinstance(a, KnownFunc))


class ZeroVerdict(_Record):
    __slots__ = _fields = ("kind", "witness", "value")

    def __init__(self, kind: str, witness: Optional[dict] = None,
                 value: Optional[float] = None):
        _set(self, "kind", kind)  # "zero" | "nonzero" | "unknown"
        _set(self, "witness", witness)
        _set(self, "value", value)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.kind == "nonzero"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


class ProbeConfig(_Record):
    """Settings of the probe-based zero test: seed, probe count and zero
    tolerance. The finite-difference check draws its points with the same
    seed and probe count."""

    __slots__ = _fields = ("seed", "probes", "zero_tol")

    def __init__(self, seed: int = 0, probes: int = DEFAULT_PROBE_COUNT,
                 zero_tol: float = DEFAULT_ZERO_TOL):
        if probes < 1:
            raise ValueError("probes must be >= 1")
        if not 0 < zero_tol < math.inf:
            raise ValueError("zero_tol must be positive and finite")
        _set(self, "seed", seed)
        _set(self, "probes", probes)
        _set(self, "zero_tol", zero_tol)


_MAX_REDRAWS = 8


def _probe_values(symbols: Mapping, cfg: ProbeConfig, evaluate):
    """Per probe, (labeled, evaluate(env)) at the first of its _MAX_REDRAWS
    candidate points where evaluate raises no SingularPointError; a probe
    whose candidates are all singular yields nothing.

    env maps each key of symbols, and labeled each label, to one draw from
    the label's probe_interval.
    """
    ordered = sorted(symbols.items(), key=lambda kv: kv[1])
    intervals = [(key, label, probe_interval(label)) for key, label in ordered]
    for probe in range(cfg.probes):
        for attempt in range(_MAX_REDRAWS):
            rng = random.Random(((cfg.seed & 0xFFFFFFFF) * 1000003 + probe) * 101 + attempt)
            env = {}
            labeled = {}
            for key, label, (lo, hi) in intervals:
                env[key] = labeled[label] = rng.uniform(lo, hi)
            try:
                value = evaluate(env)
            except SingularPointError:
                continue
            yield labeled, value
            break


def is_identically_zero(e: Expr, *, cfg: ProbeConfig = ProbeConfig()) -> ZeroVerdict:
    """Sound tri-state zero test with the probe settings of cfg.

    "zero" is claimed only when the canonical form is literally 0. Otherwise
    cfg.probes random points over the safe domain (cfg.seed, each symbol's
    probe_interval) look for a numeric witness; if none exceeds cfg.zero_tol
    the verdict is "unknown", never silently zero. A point where a
    denominator falls below DEFAULT_EPSILON or a value overflows a double is
    singular and is drawn again. The value is laid out for evaluation once,
    before the probes.
    """
    s = simplify(e)
    if s == ZERO:
        return ZeroVerdict("zero")
    plan = _plan(_frac_of(s))
    for labeled, value in _probe_values(_probe_symbols(s), cfg, lambda env: _value_at(plan, env)):
        if abs(value) > cfg.zero_tol:
            return ZeroVerdict("nonzero", witness=labeled, value=value)
    return ZeroVerdict("unknown")


# ---------------------------------------------------------------------------
# parsing

class SymbolTable:
    """Declared coordinates and function symbols for the surface syntax.

    Bare identifiers that are neither coordinates nor declared functions
    parse as named constants; no coordinate or function takes a name in consts.
    """

    def __init__(self, coords: Iterable[str] = (), funcs: Iterable[FuncSymbol] = ()):
        self.coords: list = []
        self.funcs: dict = {}
        self.consts: set = set()
        # (name, primes, argument name or None) -> the value of a bare name or
        # of an application to a bare coordinate or constant, resolved once;
        # every declaration clears it, since it may change what a name means
        self._atom_memo: dict = {}
        for c in coords:
            self.declare_coord(c)
        for f in funcs:
            self.declare_func(f)

    def declare_coord(self, name: str):
        self._check_name(name)
        self._atom_memo.clear()
        if name in self.consts:
            raise ExprError(f"coordinate {name} is already a constant")
        if name not in self.coords:
            self.coords.append(name)

    def declare_const(self, name: str):
        self._check_name(name)
        self._atom_memo.clear()
        if name in self.coords:
            raise ExprError(f"constant {name} is named like a chart coordinate")
        if name in self.funcs:
            raise ExprError(f"constant {name} is named like a declared function")
        self.consts.add(name)

    def declare_func(self, func: FuncSymbol) -> FuncSymbol:
        # a name is read one way: not as a coordinate, a constant and a
        # function at once, nor as two different functions
        self._check_name(func.name)
        self._atom_memo.clear()
        if func.name in self.coords:
            raise ExprError(f"function {func.name} is named like a chart coordinate")
        if func.name in self.consts:
            raise ExprError(f"function {func.name} is already a constant")
        if self.funcs.get(func.name, func) != func:
            raise ExprError(f"function {func.name} is already declared differently")
        if func.var not in self.coords:
            raise ExprError(
                f"function {func.name} depends on undeclared coordinate {func.var!r}"
            )
        self.funcs[func.name] = func
        return func

    def _check_name(self, name: str):
        # the identifier rule of _tokenize: no expression could name another
        if not (name.isascii() and name[:1].isalpha() and name.replace("_", "").isalnum()):
            raise ExprError(f"{name!r} is not a name (an ASCII letter, then letters, digits or _)")
        if name in KNOWN_FUNCTIONS:
            raise ExprError(f"{name!r} is a reserved function name")


# the ASCII characters of the identifier rule of _check_name
_DIGITS = "0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_WORD = _LETTERS + _DIGITS + "_"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c in "+-*/^()":
            tokens.append(("op", c, i))
        elif c in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
        elif c in _LETTERS:
            while j < n and text[j] in _WORD:
                j += 1
            tokens.append(("ident", text[i:j], i))
        elif c == "'":
            tokens.append(("prime", c, i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", "", n))
    return tokens


def _int_literal(value: str, offset: int) -> int:
    """The int of a digit token; past the interpreter's int-to-string limit
    (4300 digits by default) it is a ParseError at the token."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"integer of {len(value)} digits is too long to read", offset) from None


def _monomial(items) -> Normal:
    """The product of fr ** n over the (fr, n) items, where each pair fr is
    a one-term num over a one-term den, in one pass: the coefficients
    multiply and the exponents add. A canonical one-term den has the
    coefficient 1, so the product is reduced as it is built."""
    c, exps = 1, {}
    for (num, den), n in items:
        ((mono, k),) = num.items()
        c *= k ** n if n > 0 else Fraction(1, k) ** -n
        for atom, e in mono:
            exps[atom] = exps.get(atom, 0) + e * n
        for atom, e in next(iter(den)):
            exps[atom] = exps.get(atom, 0) - e * n
    if type(c) is not int and c.denominator == 1:
        c = c.numerator
    return Normal(({tuple(sorted((a, e) for a, e in exps.items() if e > 0)): c},
                   {tuple(sorted((a, -e) for a, e in exps.items() if e < 0)): 1}))


class _Parser:
    """Recursive descent that folds as it reads: every sum, product, power
    and number is a Normal as soon as it is read, and so is an atom whose
    value the symbol table keeps; any other lone atom stays an atom. An
    error in the value, such as a division by 0, is raised where it is
    read, so the first error from left to right wins."""

    def __init__(self, text: str, symbols: SymbolTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.symbols = symbols
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

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
                terms.append(t if value == "+" else (-1, t))
            else:
                break
        return terms[0] if len(terms) == 1 else esum(terms)

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                f = self.factor()
                factors.append(f if value == "*" else f ** -1)
            else:
                break
        if len(factors) == 1:
            return factors[0]
        pairs = [_frac_of(f) for f in factors]
        if all(len(num) == 1 == len(den) for num, den in pairs):
            return _monomial((fr, 1) for fr in pairs)
        for polys in zip(*pairs):  # the numerators, then the denominators
            if _product_term_bound(polys) > MAX_EXPANSION_TERMS:
                raise ResourceLimitError(
                    f"product of {len(factors)} factors may expand past "
                    f"{MAX_EXPANSION_TERMS} terms"
                )
        return eprod(map(Normal, pairs))

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
            return -self.factor()
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
            n = sign * _int_literal(value, offset)
            fr = _frac_of(a)
            return _monomial(((fr, n),)) if len(fr[0]) == 1 == len(fr[1]) else a ** n
        return a

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "int":
            self.next()
            return _as_expr(_int_literal(value, offset))
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
        table, tokens, pos = self.symbols, self.tokens, self.pos
        # a bare name, or an application to a bare coordinate or constant
        # within the nesting limit, means what the table says, so the table
        # keeps its value
        key = arg = None
        if tokens[pos][1] != "(":
            key = (name, primes, None)
        elif (tokens[pos + 1][0] == "ident" and tokens[pos + 2][1] == ")"
              and self.depth < MAX_NESTING and tokens[pos + 1][1] not in table.funcs
              and tokens[pos + 1][1] not in KNOWN_FUNCTIONS):
            key = (name, primes, tokens[pos + 1][1])
            self.pos += 3
        found = table._atom_memo.get(key)
        if found is not None:
            return found
        if key is None:
            self.next()
            arg = self.expr()
            self.expect_op(")")
        elif key[2] is not None:
            arg = Coord(key[2]) if key[2] in table.coords else Const(key[2])
        if name in table.funcs:
            func = table.funcs[name]
            atom = FuncApp(func, primes, arg if arg is not None else Coord(func.var))
            if func.body is not None:
                # kept as an atom: its body is applied where the value is
                # read, so an error there keeps its left-to-right place
                return atom
        elif name in KNOWN_FUNCTIONS:
            if primes:
                raise ParseError(
                    f"prime notation is not supported on built-in {name!r}", offset
                )
            if arg is None:
                raise ParseError(f"built-in function {name!r} needs an argument", offset)
            atom = KnownFunc(name, arg)
        elif primes:
            raise ParseError(
                f"unknown function name {name!r} used with prime notation "
                "but never declared", offset
            )
        elif arg is not None:
            raise ParseError(f"unknown function name {name!r}", offset)
        else:
            atom = Coord(name) if name in table.coords else Const(name)
        if key is None:
            return atom
        table._atom_memo[key] = found = simplify(atom)
        return found


def parse(text: str, symbols: SymbolTable) -> Normal:
    """Parse surface syntax into its canonical value."""
    return simplify(_Parser(text, symbols).parse())


# ---------------------------------------------------------------------------
# printing

def _fmt_rat(v: Fraction) -> str:
    try:
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    except ValueError:  # an integer past the interpreter's int-to-text limit
        raise ExprError("a coefficient is too long to print") from None


def _atom_str(key: _AtomKey) -> str:
    kind, name, _var, order, arg = key
    if kind == 2:
        return f"{name}{chr(39) * order}({arg})"
    return f"{name}({arg})" if kind == 3 else name


def _term_text(coef, mono, den_text: Optional[str] = None) -> str:
    """A term without its sign: |coef| (left out before a factor when it is
    1), the factors with positive exponents joined by *, then each factor
    with a negative exponent, and den_text, after a /."""
    pos = [(_atom_str(k), e) for k, e in mono if e > 0]
    neg = [(_atom_str(k), -e) for k, e in mono if e < 0]
    pieces = [] if pos and abs(coef) == 1 else [_fmt_rat(abs(coef))]
    pieces.extend(b if e == 1 else f"{b}^{e}" for b, e in pos)
    out = "*".join(pieces)
    for b, e in neg:
        out += "/" + (b if e == 1 else f"{b}^{e}")
    return out + (f"/{den_text}" if den_text else "")


def _sum_text(terms) -> str:
    out = ""
    for i, (coef, mono) in enumerate(terms):
        sign = (" - " if coef < 0 else " + ") if i else ("-" if coef < 0 else "")
        out += sign + _term_text(coef, mono)
    return out or "0"


def to_string(e: Expr) -> str:
    """The normal form of e in the surface syntax; parsing the output
    reproduces it. The (num, den) pair is rendered in _layout's order: a
    multi-term denominator rest appears once, as (num)/(rest)."""
    terms, rest = _layout(_frac_of(e))
    if rest is None:
        return _sum_text(terms)
    den_text = f"({_sum_text(rest)})"
    if len(terms) == 1:
        ((coef, mono),) = terms
        return ("-" if coef < 0 else "") + _term_text(coef, mono, den_text)
    return f"({_sum_text(terms)})/{den_text}"
