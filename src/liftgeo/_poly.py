"""Exact multivariate polynomial and rational-function arithmetic.

Engine behind expression normalization: every symbolic expression reduces
to a quotient of polynomials over "atoms" (opaque indeterminates such as
coordinates, named constants, abstract-function derivatives and built-in
function applications). Atoms are hashable, totally ordered keys supplied
by the caller. A coefficient is exact: an ``int`` where it is integral,
otherwise a ``fractions.Fraction``; every division of coefficients goes
through ``Fraction``, so none is ever a float.

A polynomial is a dict mapping monomials to nonzero coefficients. A
monomial is a sorted tuple of ``(atom, exponent)`` pairs with strictly
positive integer exponents; the empty tuple is the constant monomial.

A fraction is a ``(num, den)`` pair reduced to canonical form: gcd one,
denominator an integer-primitive polynomial with positive leading
coefficient. Canonical form makes structural equality decide semantic
equality of rational functions in the atoms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable

Mono = tuple
Poly = dict

_ZERO = 0
_ONE = 1
M_ONE: Mono = ()


def p_zero() -> Poly:
    return {}


def p_one() -> Poly:
    return {M_ONE: _ONE}


def _coef(q):
    """A coefficient as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def p_const(c: Fraction) -> Poly:
    return {M_ONE: _coef(c)} if c else {}


def p_atom(atom) -> Poly:
    return {((atom, 1),): _ONE}


def p_is_zero(p: Poly) -> bool:
    return not p


def p_is_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and M_ONE in p)


def p_const_value(p: Poly) -> Fraction:
    return p.get(M_ONE, _ZERO)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for atom, e in b:
        n = d.get(atom, 0) + e
        if n:
            d[atom] = n
        else:
            del d[atom]
    return tuple(sorted(d.items()))


def mono_div(a: Mono, b: Mono) -> Mono:
    """Divide monomial a by b (exponents may not go negative)."""
    d = dict(a)
    for atom, e in b:
        n = d.get(atom, 0) - e
        if n < 0:
            raise ArithmeticError("monomial division is not exact")
        if n:
            d[atom] = n
        else:
            del d[atom]
    return tuple(sorted(d.items()))


def p_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    r = dict(a)
    for m, c in b.items():
        s = r.get(m, _ZERO) + c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_scale(a: Poly, c: Fraction) -> Poly:
    c = _coef(c)
    if not c:
        return {}
    r = {}
    for m, v in a.items():
        v *= c
        r[m] = v.numerator if v.denominator == 1 else v
    return r


def p_normalize(a: Poly) -> Poly:
    """a itself, with each integral coefficient made an int in place; only
    for a dict its caller built, never for one a stored pair may share."""
    for m, v in a.items():
        if type(v) is not int and v.denominator == 1:
            a[m] = v.numerator
    return a


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    r: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = r.get(m, _ZERO) + ca * cb
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return r


def p_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ArithmeticError("negative power of a polynomial")
    result = p_one()
    base = a
    while n:
        if n & 1:
            result = p_mul(result, base)
        base = p_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def p_atoms(a: Poly) -> set:
    s = set()
    for m in a:
        for atom, _e in m:
            s.add(atom)
    return s


# ---------------------------------------------------------------------------
# gcd machinery (for canonical fraction reduction)

def _to_dense(a: Poly, x) -> list:
    """Coefficients of a as a polynomial in x; index = power of x."""
    deg = 0
    for m in a:
        for atom, e in m:
            if atom == x and e > deg:
                deg = e
    coeffs: list = [p_zero() for _ in range(deg + 1)]
    for m, c in a.items():
        e = 0
        rest = []
        for atom, k in m:
            if atom == x:
                e = k
            else:
                rest.append((atom, k))
        rm = tuple(rest)
        s = coeffs[e].get(rm, _ZERO) + c
        if s:
            coeffs[e][rm] = s
        else:
            coeffs[e].pop(rm, None)
    return coeffs


def _from_dense(coeffs: list, x) -> Poly:
    r: Poly = {}
    for e, p in enumerate(coeffs):
        xm: Mono = (((x, e),) if e else M_ONE)
        for m, c in p.items():
            mm = mono_mul(m, xm)
            s = r.get(mm, _ZERO) + c
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return r


def _trim(coeffs: list) -> list:
    while coeffs and p_is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def p_exact_div(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division; raises ArithmeticError when not exact."""
    if p_is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    if p_is_zero(a):
        return {}
    if p_is_const(b):
        return p_scale(a, Fraction(1, p_const_value(b)))
    x = max(p_atoms(b))
    A = _trim(_to_dense(a, x))
    B = _trim(_to_dense(b, x))
    if len(A) < len(B):
        raise ArithmeticError("not divisible")
    lead_b = B[-1]
    q: list = [p_zero() for _ in range(len(A) - len(B) + 1)]
    while A:
        if len(A) < len(B):
            raise ArithmeticError("not divisible")
        qc = p_exact_div(A[-1], lead_b)
        shift = len(A) - len(B)
        q[shift] = qc
        for i, bc in enumerate(B):
            A[i + shift] = p_sub(A[i + shift], p_mul(qc, bc))
        if not p_is_zero(A[-1]):
            raise ArithmeticError("not divisible")
        _trim(A)
    return _from_dense(q, x)


def _prem(A: list, B: list) -> list:
    """Pseudo-remainder of dense coefficient lists (main variable implicit)."""
    A = list(A)
    d_b = len(B) - 1
    lead_b = B[-1]
    while A and len(A) - 1 >= d_b:
        lead = A[-1]
        shift = len(A) - 1 - d_b
        A = [p_mul(lead_b, c) for c in A]
        for i, bc in enumerate(B):
            A[i + shift] = p_sub(A[i + shift], p_mul(lead, bc))
        _trim(A)
    return A


def _int_content(a: Poly) -> int:
    g = 0
    for c in a.values():
        g = _igcd(g, abs(c.numerator))
        if g == 1:
            break
    return g or 1


def _to_integer(a: Poly) -> Poly:
    """Scale to integer coefficients (gcd is only defined up to units)."""
    l = 1
    for c in a.values():
        d = c.denominator
        l = l * d // _igcd(l, d)
    return p_scale(a, l) if l != 1 else dict(a)


def _leading_sign(a: Poly) -> int:
    return 1 if a[max(a)] > 0 else -1


def p_primitive(a: Poly) -> Poly:
    """Integer-primitive form with positive leading coefficient."""
    if p_is_zero(a):
        return {}
    a = _to_integer(a)
    return p_scale(a, Fraction(1, _int_content(a) * _leading_sign(a)))


def _gcd_list(polys: Iterable[Poly]) -> Poly:
    g = p_zero()
    for p in polys:
        if p_is_zero(p):
            continue
        g = p if p_is_zero(g) else _gcd_int(g, p)
        if p_is_const(g):
            break
    return g


def _content_in(a: Poly, x) -> Poly:
    return _gcd_list(c for c in _to_dense(a, x) if not p_is_zero(c))


# the prime modulus of the univariate images in _free_atoms
_P = (1 << 61) - 1


def _degree(a: Poly, x) -> int:
    return max((e for m in a for atom, e in m if atom == x), default=0)


def _image(a: Poly, x, point: dict) -> list:
    """Coefficients of the integer polynomial a mod _P in x (index = power of
    x), every other atom set to its value in point."""
    coeffs = [0] * (_degree(a, x) + 1)
    for m, c in a.items():
        k = 0
        v = c.numerator % _P
        for atom, e in m:
            if atom == x:
                k = e
            else:
                v = v * pow(point[atom], e, _P) % _P
        coeffs[k] = (coeffs[k] + v) % _P
    return coeffs


def _gcd_degree(u: list, w: list) -> int:
    """Degree of the gcd mod _P of two coefficient lists with nonzero tops."""
    while w:
        inv = pow(w[-1], _P - 2, _P)
        u = list(u)
        while len(u) >= len(w):
            q = u[-1] * inv % _P
            shift = len(u) - len(w)
            for i, c in enumerate(w):
                u[shift + i] = (u[shift + i] - q * c) % _P
            while u and not u[-1]:
                u.pop()
        u, w = w, u
    return len(u) - 1


def _free_atoms(a: Poly, b: Poly, shared: set) -> set:
    """The atoms of shared (those of both a and b) that provably do not occur
    in g = gcd(a, b). Over integer coefficients lc_x(g) divides lc_x(a) and
    lc_x(b), so at a point where both stay nonzero mod _P, deg_x g is at most
    the degree of the gcd of the univariate images in x."""
    a, b = _to_integer(a), _to_integer(b)
    rng = random.Random(len(shared))
    point = {x: rng.randrange(2, _P) for x in p_atoms(a) | p_atoms(b)}
    free = set()
    for x in sorted(shared):
        ia, ib = _image(a, x, point), _image(b, x, point)
        if ia[-1] and ib[-1] and not _gcd_degree(ia, ib):
            free.add(x)
    return free


def _gcd_int(a: Poly, b: Poly) -> Poly:
    """gcd of two nonzero integer-coefficient polynomials (primitive result)."""
    if p_is_const(a) or p_is_const(b):
        g = _igcd(_int_content(a), _int_content(b))
        return p_const(g)
    atoms_a = p_atoms(a)
    atoms_b = p_atoms(b)
    shared = atoms_a & atoms_b
    free = _free_atoms(a, b, shared)
    if free == shared:
        # g has no atom of its own: a and b are coprime
        return p_one()
    if free:
        # g divides every coefficient of a and of b in x
        x = max(free)
        return _gcd_int(_content_in(a, x), _content_in(b, x))
    # no atom of shared is free, so shared is not empty; the shared atom of
    # least degree in a or b as main variable keeps the remainder sequence
    # of a dense pair short
    x = min(shared, key=lambda y: (min(_degree(a, y), _degree(b, y)), y))
    A = _trim(_to_dense(a, x))
    B = _trim(_to_dense(b, x))
    cont_a = _gcd_list(c for c in A if not p_is_zero(c))
    cont_b = _gcd_list(c for c in B if not p_is_zero(c))
    cont = _gcd_int(cont_a, cont_b)
    A = [p_exact_div(c, cont_a) if not p_is_zero(c) else c for c in A]
    B = [p_exact_div(c, cont_b) if not p_is_zero(c) else c for c in B]
    if len(A) < len(B):
        A, B = B, A
    while True:
        R = _prem(A, B)
        if not R:
            g = _from_dense(B, x)
            break
        cont_r = _gcd_list(c for c in R if not p_is_zero(c))
        R = [p_exact_div(c, cont_r) if not p_is_zero(c) else c for c in R]
        A, B = B, R
        if len(B) == 1:
            # remainder degenerated to a unit in x: the polys are coprime in x
            g = p_one()
            break
    g = p_primitive(g)
    return p_primitive(p_mul(cont, g))


def p_gcd(a: Poly, b: Poly) -> Poly:
    if p_is_zero(a):
        return p_primitive(b)
    if p_is_zero(b):
        return p_primitive(a)
    return _gcd_int(_to_integer(a), _to_integer(b))


# ---------------------------------------------------------------------------
# canonical fractions

def _mono_content(p: Poly) -> dict:
    """Per-atom minimum exponent over all monomials (atoms present in all)."""
    it = iter(p)
    content = dict(next(it))
    for m in it:
        if not content:
            break
        d = dict(m)
        for atom in list(content):
            e = d.get(atom, 0)
            if e:
                if e < content[atom]:
                    content[atom] = e
            else:
                del content[atom]
    return content


def _strip_mono(p: Poly, shared: Mono) -> Poly:
    return {mono_div(m, shared): c for m, c in p.items()}


def f_make(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Reduce num/den to canonical form."""
    if p_is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if p_is_zero(num):
        return {}, p_one()
    # cancel shared monomial content first (covers all pure-monomial cases)
    cn = _mono_content(num)
    cd = _mono_content(den)
    shared = tuple(sorted(
        (atom, min(e, cd[atom])) for atom, e in cn.items() if atom in cd
    ))
    if shared:
        num = _strip_mono(num, shared)
        den = _strip_mono(den, shared)
    if p_is_const(den):
        return p_scale(num, Fraction(1, p_const_value(den))), p_one()
    if len(den) > 1:
        g = p_gcd(num, den)
        if not p_is_const(g):
            num = p_exact_div(num, g)
            den = p_exact_div(den, g)
            if p_is_const(den):
                return p_scale(num, Fraction(1, p_const_value(den))), p_one()
    return _move_unit(num, den)


def _move_unit(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with the unit of den moved into num: den scaled to be
    integer-primitive with a positive leading coefficient (a constant den
    becomes 1). The last step of f_make, and all a negative power of a
    reduced pair needs.

    A monomial den with the int coefficient 1 has its unit already: the
    pair comes back as given, except that a num with an integral Fraction
    coefficient is replaced by a copy with ints. So the result may share
    its dicts with the arguments, and no caller mutates it in place."""
    if len(den) == 1:
        (unit,) = den.values()
        if type(unit) is int and unit == 1:
            if any(type(c) is not int and c.denominator == 1 for c in num.values()):
                num = p_normalize(dict(num))
            return num, den
    top = max(den)
    den_int = _to_integer(den)
    scale = Fraction(den_int[top], den[top] * _int_content(den_int) * _leading_sign(den_int))
    return p_scale(num, scale), p_scale(den, scale)


def f_add(a, b):
    n1, d1 = a
    n2, d2 = b
    if d1 == d2:
        return f_make(p_add(n1, n2), d1)
    return f_make(p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2))


def f_mul(a, b):
    n1, d1 = a
    n2, d2 = b
    return f_make(p_mul(n1, n2), p_mul(d1, d2))


def f_pow_reduced(a, n: int):
    """The n-th power of a reduced pair a, with no gcd. Powers of coprime
    polynomials stay coprime (Gauss's lemma), and the power of an
    integer-primitive den is integer-primitive with the power of its
    leading coefficient: the largest monomial of p^n is the n-th power of
    the largest monomial of p. So a negative power only moves the unit of
    its new denominator into its numerator, and a power 1 or -1 expands
    nothing."""
    num, den = a
    if n < 0:
        if p_is_zero(num):
            raise ZeroDivisionError("division by an identically zero expression")
        num, den = den, num
    if abs(n) != 1:
        num, den = p_normalize(p_pow(num, abs(n))), p_pow(den, abs(n))
    return _move_unit(num, den) if n < 0 else (num, den)


F_ZERO = (p_zero(), p_one())
F_ONE = (p_one(), p_one())
