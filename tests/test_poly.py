"""Polynomial core: the modular degree bounds in front of the gcd, and the
type of every coefficient (an int where integral, else a Fraction)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liftgeo import _poly

from conftest import f_pow


def _polys(max_terms: int):
    monos = st.lists(
        st.tuples(st.sampled_from("xyz"), st.integers(1, 2)),
        max_size=2, unique_by=lambda ae: ae[0],
    ).map(lambda m: tuple(sorted(m)))
    return st.dictionaries(monos, st.integers(-4, 4).filter(bool).map(Fraction),
                           min_size=1, max_size=max_terms)


def test_free_atoms_decide_the_easy_cases():
    x, y, z = _poly.p_atom("x"), _poly.p_atom("y"), _poly.p_atom("z")
    one = _poly.p_one()
    x_plus_1 = _poly.p_add(x, one)
    a = _poly.p_mul(x_plus_1, _poly.p_add(y, z))
    b = _poly.p_mul(x_plus_1, _poly.p_add(y, one))
    assert _poly._free_atoms(a, b, {"x", "y"}) == {"y"}
    assert _poly.p_gcd(a, b) == x_plus_1
    assert _poly.p_gcd(_poly.p_add(x, one), _poly.p_add(y, one)) == one


@settings(max_examples=80, deadline=None)
@given(_polys(3), _polys(3), _polys(2))
def test_gcd_agrees_with_the_remainder_sequence(a, b, c):
    ac, bc = _poly.p_mul(a, c), _poly.p_mul(b, c)
    ia, ib = _poly._to_integer(ac), _poly._to_integer(bc)
    shared = _poly.p_atoms(ia) & _poly.p_atoms(ib)
    # an atom of a shared factor is never certified away
    assert not _poly._free_atoms(ia, ib, shared) & _poly.p_atoms(c)
    got = _poly.p_gcd(ac, bc)
    bounds = _poly._free_atoms
    _poly._free_atoms = lambda a, b, shared: set()
    try:
        want = _poly.p_gcd(ac, bc)
    finally:
        _poly._free_atoms = bounds
    assert _poly.p_primitive(got) == _poly.p_primitive(want)


# a coefficient: a nonzero rational with a small denominator, so that sums
# and products of them are often integral
_coefs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 2, 3)))


def _rational_polys(max_terms: int):
    monos = st.lists(
        st.tuples(st.sampled_from("xy"), st.integers(1, 2)),
        max_size=2, unique_by=lambda ae: ae[0],
    ).map(lambda m: tuple(sorted(m)))
    return st.dictionaries(monos, _coefs, min_size=1, max_size=max_terms)


def _as_given(p: dict, as_int: set) -> dict:
    """p with the integral coefficients of the monomials in as_int given as
    int and every other one as a Fraction."""
    return {m: c.numerator if m in as_int and c.denominator == 1 else c for m, c in p.items()}


def _typed(p: dict) -> list:
    return sorted((m, type(c).__name__, c) for m, c in p.items())


def _assert_canonical_types(p: dict):
    for c in p.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(p)


@settings(max_examples=150, deadline=None)
@given(_rational_polys(3), _rational_polys(3), st.integers(-2, 3), st.data())
def test_coefficients_are_int_where_integral(a, b, n, data):
    ops = {
        "f_make": lambda a, b: _poly.f_make(a, b),
        "f_add": lambda a, b: _poly.f_add((a, b), (b, a)),
        "f_mul": lambda a, b: _poly.f_mul((a, b), (b, a)),
        "f_pow": lambda a, b: f_pow((a, b), n),
        "p_gcd": lambda a, b: (_poly.p_gcd(a, b),),
        "p_exact_div": lambda a, b: (_poly.p_exact_div(_poly.p_mul(a, b), b),),
        "p_primitive": lambda a, b: (_poly.p_primitive(a), _poly.p_primitive(b)),
    }
    monos = sorted(set(a) | set(b))
    as_int = data.draw(st.sets(st.sampled_from(monos)), label="monomials given as int")
    for name, op in ops.items():
        results = [op(_as_given(a, ints), _as_given(b, ints))
                   for ints in (set(), as_int, set(monos))]
        for p in results[0]:
            _assert_canonical_types(p)
        assert all([_typed(p) for p in r] == [_typed(p) for p in results[0]]
                   for r in results[1:]), name
