"""Polynomial core: the modular degree bounds in front of the gcd."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liftgeo import _poly


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
