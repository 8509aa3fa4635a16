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
    "Power", "FuncSymbol", "SymbolTable", "ZeroVerdict",
    "ExprError", "ParseError", "EvalError", "SingularPointError",
    "SubstitutionError",
    "parse", "to_string", "simplify", "differentiate", "substitute",
    "eval_numeric", "is_identically_zero", "equivalent", "esum", "eprod",
    "ZERO", "ONE", "KNOWN_FUNCTIONS", "DEFAULT_PROBE_COUNT",
    "DEFAULT_ZERO_TOL", "DEFAULT_EPSILON", "probe_interval",
]

KNOWN_FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tan", "exp", "log", "sqrt")

DEFAULT_PROBE_COUNT = 20
DEFAULT_ZERO_TOL = 1e-9
DEFAULT_EPSILON = 1e-9


class ExprError(Exception):
    """Malformed expression or unsupported operation."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Numeric evaluation failed (missing binding or math domain)."""


class SingularPointError(EvalError):
    """A denominator fell below epsilon at the evaluation point."""


class SubstitutionError(ExprError):
    pass


# ---------------------------------------------------------------------------
# node types

class Expr:
    """Base class; instances are immutable and hashable."""

    __slots__ = ()

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

def _atom_key(e: Expr) -> tuple:
    if isinstance(e, Coord):
        return (0, e.name, "", 0, "")
    if isinstance(e, Const):
        return (1, e.name, "", 0, "")
    if isinstance(e, FuncApp):
        return (2, e.func.name, e.func.var, e.order, to_string(e.arg))
    if isinstance(e, KnownFunc):
        return (3, e.kind, "", 0, to_string(e.arg))
    raise ExprError(f"not an atom: {e!r}")


_ATOM_BY_KEY: dict = {}


def _register_atom(e: Expr) -> tuple:
    key = _atom_key(e)
    _ATOM_BY_KEY.setdefault(key, e)
    return key


def _frac_of(e: Expr):
    if isinstance(e, Rat):
        return _poly.p_const(e.value), _poly.p_one()
    if isinstance(e, (Coord, Const)):
        return _poly.p_atom(_register_atom(e)), _poly.p_one()
    if isinstance(e, FuncApp):
        arg = _expr_of_frac(_frac_of(e.arg))
        if e.func.body is not None:
            return _frac_of(_apply_body(e.func.body, e.func.var, e.order, arg))
        atom = FuncApp(e.func, e.order, arg)
        return _poly.p_atom(_register_atom(atom)), _poly.p_one()
    if isinstance(e, KnownFunc):
        arg = _expr_of_frac(_frac_of(e.arg))
        atom = KnownFunc(e.kind, arg)
        return _poly.p_atom(_register_atom(atom)), _poly.p_one()
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
        try:
            return _poly.f_pow(_frac_of(e.base), e.exponent)
        except ZeroDivisionError:
            raise ExprError("division by an identically zero expression") from None
    raise ExprError(f"unsupported node {type(e).__name__}")


def _mono_sort_key(mono) -> tuple:
    return tuple((atom, -e) for atom, e in mono)


def _term_expr(mono, coef: Fraction) -> Expr:
    factors = []
    if coef != 1 or not mono:
        factors.append(Rat(coef))
    for atom_key, e in mono:
        atom = _ATOM_BY_KEY[atom_key]
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
    """Canonical rational-function normal form over the opaque atoms."""
    return _expr_of_frac(_frac_of(e))


def esum(terms: Iterable) -> Expr:
    """Canonical sum of many expressions (single normalization pass)."""
    return simplify(Sum(tuple(_as_expr(t) for t in terms)))


def eprod(factors: Iterable) -> Expr:
    return simplify(Product(tuple(_as_expr(f) for f in factors)))


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


def _d(e: Expr, v: str) -> Expr:
    if isinstance(e, (Rat, Const)):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.name == v else ZERO
    if isinstance(e, FuncApp):
        if e.func.body is not None:
            return _d(_apply_body(e.func.body, e.func.var, e.order, e.arg), v)
        return Product((FuncApp(e.func, e.order + 1, e.arg), _d(e.arg, v)))
    if isinstance(e, KnownFunc):
        return Product((_known_derivative(e.kind, e.arg), _d(e.arg, v)))
    if isinstance(e, Sum):
        return Sum(tuple(_d(t, v) for t in e.terms))
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            parts.append(Product(e.factors[:i] + (_d(f, v),) + e.factors[i + 1:]))
        return Sum(tuple(parts))
    if isinstance(e, Power):
        return Product((Rat(e.exponent), Power(e.base, e.exponent - 1), _d(e.base, v)))
    raise ExprError(f"cannot differentiate {type(e).__name__}")


def differentiate(e: Expr, v: Union[str, Coord]) -> Expr:
    name = v.name if isinstance(v, Coord) else v
    return simplify(_d(e, name))


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
    """Every Coord, Const, FuncApp and KnownFunc node of e, in tree order:
    each application before the atoms of its argument."""
    if isinstance(e, (Coord, Const)):
        yield e
    elif isinstance(e, (FuncApp, KnownFunc)):
        yield e
        yield from _atoms(e.arg)
    elif isinstance(e, Sum):
        for t in e.terms:
            yield from _atoms(t)
    elif isinstance(e, Product):
        for f in e.factors:
            yield from _atoms(f)
    elif isinstance(e, Power):
        yield from _atoms(e.base)


def _free_coords(e: Expr) -> set:
    return {a.name for a in _atoms(e) if isinstance(a, Coord)}


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution, then canonical simplification.

    Keys may be FuncSymbol instances (the replacement expression is written
    in the symbol's own variable; all derivative orders are rewritten
    through it), Coord/Const instances, or plain coordinate/constant names.
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


def _eval(e: Expr, env: Mapping, epsilon: float) -> float:
    if isinstance(e, Rat):
        return float(e.value)
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
        return _MATH[e.kind](a)
    if isinstance(e, Sum):
        return sum(_eval(t, env, epsilon) for t in e.terms)
    if isinstance(e, Product):
        r = 1.0
        for f in e.factors:
            r *= _eval(f, env, epsilon)
        return r
    if isinstance(e, Power):
        b = _eval(e.base, env, epsilon)
        if e.exponent < 0 and abs(b) <= epsilon:
            raise SingularPointError(
                f"denominator magnitude {abs(b):.3e} below epsilon"
            )
        return b ** e.exponent
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


_MAX_REDRAWS = 8


def _probe_points(symbols: Mapping, probes: int, seed: int, domain: Optional[Mapping]):
    """Per probe, a lazy iterator over its _MAX_REDRAWS candidate points
    (env, labeled); callers take the next candidate when a point is singular.

    env maps each key of symbols, and labeled each label, to one draw from
    the label's domain interval or its default probe_interval.
    """
    ordered = sorted(symbols.items(), key=lambda kv: kv[1])
    intervals = [(key, label, (domain or {}).get(label) or probe_interval(label))
                 for key, label in ordered]

    def draw(probe: int, attempt: int) -> tuple:
        rng = random.Random(((seed & 0xFFFFFFFF) * 1000003 + probe) * 101 + attempt)
        env = {}
        labeled = {}
        for key, label, (lo, hi) in intervals:
            env[key] = labeled[label] = rng.uniform(lo, hi)
        return env, labeled

    for probe in range(probes):
        yield (draw(probe, attempt) for attempt in range(_MAX_REDRAWS))


def is_identically_zero(
    e: Expr,
    *,
    probes: int = DEFAULT_PROBE_COUNT,
    seed: int = 0,
    zero_tol: float = DEFAULT_ZERO_TOL,
    domain: Optional[Mapping] = None,
    epsilon: float = DEFAULT_EPSILON,
) -> ZeroVerdict:
    """Sound tri-state zero test.

    "zero" is claimed only when the canonical form is literally 0. Otherwise
    random probes over the safe domain look for a numeric witness; if none
    exceeds zero_tol the verdict is "unknown", never silently zero.
    """
    s = simplify(e)
    if s == ZERO:
        return ZeroVerdict("zero")
    for candidates in _probe_points(_probe_symbols(s), max(1, probes), seed, domain):
        for env, labeled in candidates:
            try:
                value = _eval(s, env, epsilon)
            except SingularPointError:
                continue
            if abs(value) > zero_tol:
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
