"""Expression engine: parsing, printing, calculus, normalization and the
tri-state zero test."""

import functools
import gc
import math
import operator
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from liftgeo import _poly
from liftgeo.expr import (
    Const, Coord, EvalError, ExprError, FuncApp, FuncSymbol, KnownFunc, Normal,
    ParseError, ProbeConfig, ResourceLimitError, SingularPointError,
    SymbolTable, MAX_EXPANSION_TERMS, ONE, ZERO,
    derivation, differentiate, eprod, equivalent, esum, eval_numeric, is_identically_zero,
    parse, simplify, substitute, to_string, _d_nf, _frac_of, _power_term_bound, _reduced,
)

from conftest import f_pow, full_symbols, ref


def syms():
    return full_symbols()


X = FuncSymbol("X", "t")
Y = FuncSymbol("Y", "t")
F = FuncSymbol("f", "theta")


# ---------------------------------------------------------------------------
# parsing

def test_parse_negated_square():
    e = parse("-X(t)^2", syms())
    assert e == -FuncApp(X, 0, Coord("t")) ** 2


def test_parse_known_function():
    assert parse("sinh(theta)", syms()) == simplify(KnownFunc("sinh", Coord("theta")))


def test_parse_derivative_quotient():
    e = parse("Y''(t)/Y(t)", syms())
    assert e == eprod((FuncApp(Y, 2, Coord("t")), FuncApp(Y, 0, Coord("t")) ** -1))


def test_parse_bare_function_and_primes():
    # parentheses are optional: the declared argument coordinate fills in
    assert parse("f''", syms()) == parse("f''(theta)", syms())


def test_parse_division_binds_looser_than_power():
    assert parse("1/2", syms()) == esum((Fraction(1, 2),))
    assert parse("1/2^3", syms()) == esum((Fraction(1, 8),))
    assert parse("3/10^2", syms()) == esum((Fraction(3, 100),))
    assert parse("3/10^12", syms()) == esum((Fraction(3, 10**12),))


def test_parse_undeclared_identifier_is_a_constant():
    table = syms()
    declared = (list(table.coords), dict(table.funcs))
    e = parse("c1^2", table)
    assert e == Const("c1") ** 2
    # parsing reads the table and leaves it as it was
    assert (table.coords, table.funcs) == declared


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("X(t) + $", syms())
    assert err.value.offset == 7

    with pytest.raises(ParseError, match="prime notation"):
        parse("Q'(t)", syms())

    with pytest.raises(ParseError, match="needs an argument"):
        parse("sin + 1", syms())

    with pytest.raises(ParseError, match="trailing"):
        parse("t t", syms())

    with pytest.raises(ParseError, match="unknown function"):
        parse("w(t)", syms())


def test_reserved_names_cannot_be_declared():
    with pytest.raises(ExprError):
        SymbolTable(coords=("sin",))
    table = syms()
    with pytest.raises(ExprError):
        table.declare_func(FuncSymbol("cos", "t"))


def test_integer_exponent_enforced():
    for exponent in ("2", 2.0, True):
        with pytest.raises(ExprError, match="integers"):
            Coord("t") ** exponent


# ---------------------------------------------------------------------------
# differentiation

def test_differentiate_square_of_abstract():
    e = differentiate(parse("X(t)^2", syms()), "t")
    assert e == ref("2*X(t)*X'(t)")


def test_differentiate_known():
    assert differentiate(parse("sin(theta)", syms()), "theta") == ref("cos(theta)")


def test_differentiate_quotient():
    e = differentiate(parse("X'(t)/X(t)", syms()), "t")
    assert equivalent(e, ref("(X''(t)*X(t) - X'(t)^2)/X(t)^2"))


def test_differentiate_other_coordinate_is_zero():
    assert differentiate(parse("X(t)^3", syms()), "theta") == ZERO
    assert differentiate(parse("c1", syms()), "t") == ZERO


def test_differentiate_known_rules():
    table = syms()
    cases = {
        "cos(theta)": "-sin(theta)",
        "cosh(theta)": "sinh(theta)",
        "tan(theta)": "1 + tan(theta)^2",
        "exp(t)": "exp(t)",
        "log(t)": "1/t",
        "sqrt(t)": "1/2/sqrt(t)",
    }
    for source, want in cases.items():
        var = source[source.index("(") + 1:source.index(")")]
        got = differentiate(parse(source, table), var)
        assert equivalent(got, parse(want, table)), source


# ---------------------------------------------------------------------------
# simplification

def test_simplify_cancellation():
    assert parse("X(t)*X'(t)/X(t)^2 - X'(t)/X(t)", syms()) == ZERO


def test_simplify_monomial_quotient():
    assert parse("(Y'(t)*Y(t))*(1/Y(t)^2)", syms()) == ref("Y'(t)/Y(t)")


def test_simplify_keeps_trig_opaque():
    e = parse("sin(theta)^2 + cos(theta)^2", syms())
    assert e != ref("1")
    assert to_string(e) == "cos(theta)^2 + sin(theta)^2"


def test_simplify_idempotent_on_samples():
    strings = [
        "X''(t)*X(t) - X'(t)^2",
        "(2*t + 2*t^3)/(1 + 2*t^2 + t^4)",
        "-sinh(theta)*cosh(theta) + theta",
        "1/(Y(t)^2*f(theta)^2)",
    ]
    for s in strings:
        e = parse(s, syms())
        assert simplify(e) == e


def test_division_by_identically_zero_rejected():
    with pytest.raises(ExprError, match="zero"):
        parse("1/(X(t) - X(t))", syms())


# ---------------------------------------------------------------------------
# substitution

def with_body(func: FuncSymbol, body) -> SymbolTable:
    """The symbols of syms() with func given body, written in func's own
    variable: the one binding the package makes, read where an application
    of func is read."""
    table = syms()
    return SymbolTable(table.coords, [FuncSymbol(func.name, func.var, body) if f == func else f
                                      for f in table.funcs.values()])


def test_substitute_renames_all_orders():
    table = with_body(X, ref("Xh(t)"))
    assert parse("X'(t)/X(t)", table) == ref("Xh'(t)/Xh(t)")
    # at another argument the body's derivative is substituted there
    assert parse("X''(t^2)", table) == ref("Xh''(t^2)")


def test_substitute_concrete_body():
    e = parse("f(theta)*f'(theta)", with_body(F, ref("sinh(theta)")))
    assert e == ref("sinh(theta)*cosh(theta)")


def test_substitute_constant_kills_derivatives():
    assert parse("X'(t)*X(t)", with_body(X, ref("c1"))) == ZERO


def test_substitute_coordinate_binding():
    e = substitute(parse("theta^2 + phi", syms()), "theta", parse("2", syms()))
    assert e == ref("4 + phi")
    # a constant is bound as a coordinate is, inside function arguments too
    e = substitute(ref("c1*X(c1 + t)"), "c1", ref("2*r"))
    assert e == ref("2*r*X(2*r + t)")


def test_substitute_reads_the_binding_normal_form():
    # r cancels in t + r - r, so the body depends on t alone
    body = esum((Coord("t"), Coord("r"), (-1, Coord("r"))))
    assert parse("X(t)^2", with_body(X, body)) == ref("t^2")


def test_differentiate_commutes_with_concrete_substitution():
    text = "f(theta)^2*f'(theta) + 1/f(theta)"
    table = with_body(F, ref("sin(theta)"))
    a = differentiate(parse(text, table), "theta")
    b = parse(to_string(differentiate(parse(text, syms()), "theta")), table)
    assert equivalent(a, b)


# ---------------------------------------------------------------------------
# numeric evaluation

def test_eval_jets():
    assert eval_numeric(parse("X'(t)/X(t)", syms()), {"X": 2, "X'": 3}) == 1.5
    assert eval_numeric(parse("X'(t)/X(t)", syms()), {("X", 0): 2, ("X", 1): 3}) == 1.5


def test_eval_known_function():
    assert eval_numeric(parse("sinh(theta)", syms()), {"theta": 0.0}) == 0.0
    got = eval_numeric(parse("cos(theta)^2", syms()), {"theta": 0.7})
    assert got == pytest.approx(math.cos(0.7) ** 2)


def test_eval_denominator_epsilon():
    e = parse("1/theta^2", syms())
    with pytest.raises(SingularPointError):
        eval_numeric(e, {"theta": 0.0})


def test_eval_sqrt_of_a_negative_value_is_a_singular_point():
    assert eval_numeric(parse("sqrt(t)", syms()), {"t": 0.0}) == 0.0
    with pytest.raises(SingularPointError, match="^sqrt of a negative value$"):
        eval_numeric(parse("sqrt(t)", syms()), {"t": -0.25})


@pytest.mark.parametrize("text", ["exp(1000*t)", "t^99999", "10^400"])
def test_eval_overflow_is_a_singular_point(text):
    with pytest.raises(SingularPointError, match="overflows"):
        eval_numeric(parse(text, syms()), {"t": 2.0})


@pytest.mark.parametrize("text", ["exp(400*t)*exp(401*t)", "exp(709*t) + 10^308"])
def test_non_finite_sum_or_product_is_a_singular_point(text):
    e = parse(text, syms())
    with pytest.raises(SingularPointError, match="overflows"):
        eval_numeric(e, {"t": 1.0})
    verdict = is_identically_zero(e)
    assert verdict.is_nonzero and math.isfinite(verdict.value)


def test_eval_missing_binding():
    with pytest.raises(EvalError, match="no binding"):
        eval_numeric(parse("X(t) + r", syms()), {"X": 1.0})


# ---------------------------------------------------------------------------
# zero testing

def test_zero_test_symbolic_zero():
    verdict = is_identically_zero(parse("X(t)*X'(t) - X'(t)*X(t)", syms()))
    assert verdict.is_zero


def test_zero_test_numeric_witness():
    verdict = is_identically_zero(parse("-sinh(theta)*cosh(theta) + theta", syms()))
    assert verdict.is_nonzero
    theta = verdict.witness["theta"]
    assert 0.3 <= theta <= 1.2
    assert verdict.value == pytest.approx(-math.sinh(theta) * math.cosh(theta) + theta)


def test_zero_test_opaque_identity_stays_unknown():
    verdict = is_identically_zero(parse("sin(theta)^2 + cos(theta)^2 - 1", syms()))
    assert verdict.is_unknown


def test_zero_test_deterministic():
    e = parse("-sinh(theta)*cosh(theta) + theta", syms())
    a = is_identically_zero(e, cfg=ProbeConfig(seed=7))
    b = is_identically_zero(e, cfg=ProbeConfig(seed=7))
    assert a == b
    c = is_identically_zero(e, cfg=ProbeConfig(seed=8))
    assert c.is_nonzero  # verdict stable even when the witness moves


def test_zero_test_redraws_singular_probes():
    # log(t - 1) is outside its domain on a third of t's probe interval, so
    # some probes are singular and drawn again; the verdict must still come back
    e = parse("log(t - 1)", syms())
    verdict = is_identically_zero(e)
    assert verdict.is_nonzero


# ---------------------------------------------------------------------------
# printing round trips and property tests

ROUND_TRIP_SAMPLES = [
    "-X(t)^2",
    "Y''(t)/Y(t)",
    "2*t/(1 + t^2)",
    "1/2*X(t)",
    "X''(t)/X(t) - X'(t)^2/X(t)^2",
    "1/X(t)^2",
    "-1/(1 + t^2)",
    "cos(theta)^2 + sin(theta)^2",
    "-3",
    "0",
    "u1*X(t)*X''(t) + u1*X'(t)^2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES)
def test_print_parse_round_trip(text):
    e = parse(text, syms())
    assert parse(to_string(e), syms()) == e


def _atoms():
    return st.sampled_from([
        Coord("t"), Coord("theta"), Const("c1"),
        FuncApp(X, 0, Coord("t")), FuncApp(X, 1, Coord("t")),
        FuncApp(F, 0, Coord("theta")),
        KnownFunc("sin", Coord("theta")), KnownFunc("cosh", Coord("t")),
    ])


def _exprs():
    # sums and products are pairwise operator folds
    rationals = st.integers(-9, 9).map(lambda n: esum((n,)))
    powered = st.builds(
        operator.pow, _atoms(), st.sampled_from([-2, -1, 2, 3])
    )
    leaves = st.one_of(rationals, _atoms(), powered)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: functools.reduce(operator.add, xs)),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: functools.reduce(operator.mul, xs)),
        ),
        max_leaves=12,
    )


@settings(max_examples=120, deadline=None)
@given(_exprs())
def test_round_trip_property(raw):
    e = simplify(raw)
    assert parse(to_string(e), syms()) == e


@settings(max_examples=120, deadline=None)
@given(_exprs())
def test_simplify_idempotent_property(raw):
    e = simplify(raw)
    assert simplify(e) == e


@settings(max_examples=60, deadline=None)
@given(_exprs(), st.sampled_from(["t", "theta"]))
def test_differentiation_linear_over_sums(raw, v):
    a = simplify(raw)
    b = 2 * raw
    lhs = differentiate(a + b, v)
    rhs = differentiate(a, v) + differentiate(b, v)
    assert lhs == rhs


def _esum_terms():
    # plain terms and tuples of factors, which may be ZERO or plain numbers
    # (int or Fraction); a tuple may hold numbers only
    number = st.one_of(st.integers(-3, 3), st.sampled_from(
        [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(-4, 3), Fraction(2, 3)]))
    factor = st.one_of(_exprs(), st.just(ZERO), number)
    return st.lists(st.one_of(
        _exprs(), number, st.lists(factor, max_size=3).map(tuple),
        st.lists(number, min_size=1, max_size=3).map(tuple),
    ), max_size=4)


def _int_where_integral(poly):
    return all(type(c) is int for c in poly.values() if c.denominator == 1)


@settings(max_examples=80, deadline=None)
@given(_esum_terms())
def test_esum_of_product_terms_matches_the_tree_property(terms):
    # one multi-term esum against a pairwise fold of the same terms, which
    # reduces in another order
    tree = functools.reduce(operator.add, (
        functools.reduce(operator.mul, t, ONE) if isinstance(t, tuple) else t for t in terms
    ), ZERO)
    got = esum(terms)
    assert got == tree
    assert simplify(got) is got
    assert _int_where_integral(got.num) and _int_where_integral(got.den)


@settings(max_examples=80, deadline=None)
@given(_exprs(), st.one_of(_exprs(), st.integers(-3, 3)), _atoms())
def test_equivalent_is_a_zero_difference_property(a, b, x):
    # canonical forms compare equal exactly when the difference is ZERO,
    # also for values equal by construction
    for other in (b, (a * x) / x, a + b - b, esum(((2, a),)) / 2):
        assert equivalent(a, other) == (esum((a, (-1, other))) == ZERO)
    assert equivalent(a, (a * x) / x) and equivalent(b, b + 0)


def test_esum_edge_cases():
    table = SymbolTable(coords=("x",))
    x = parse("x", table)
    assert esum(()) == ZERO and eprod(()) == ONE
    # a zero factor drops its term, but every factor of it is still coerced
    assert esum(((0, x), (ZERO, 2), (x, -1, ZERO))) == ZERO
    with pytest.raises(ExprError):
        esum(((0, 2.5),))
    with pytest.raises(ExprError):
        esum(((ZERO, x, 2.5),))
    assert esum((Fraction(3, 2), (Fraction(2, 3), x))) == parse("3/2 + 2/3*x", table)
    # number factors whose product is 1, or an integer
    for got, want in ((esum(((Fraction(3, 2), Fraction(2, 3), x),)), "x"),
                      (esum(((Fraction(3, 2), Fraction(2, 3)), x, (Fraction(1, 2), 4))), "3 + x")):
        assert got == parse(want, table)
        assert all(type(c) is int for c in got.num.values())


def test_esum_folds_numbers_without_polynomial_products(monkeypatch):
    table = SymbolTable(coords=("x", "y"))
    x, y = parse("x", table), parse("y", table)
    products = []
    p_mul = _poly.p_mul
    monkeypatch.setattr(_poly, "p_mul", lambda a, b: products.append(None) or p_mul(a, b))
    got = esum(((Fraction(1, 2), x), (-1, y)))
    # a zero factor read after others costs no product either
    zero = esum(((x, y, ZERO), (2, x, ZERO, y)))
    assert products == []
    assert got == parse("x/2 - y", table) and zero == ZERO


# ---------------------------------------------------------------------------
# stored normal forms

def test_simplified_node_keeps_its_normal_form(monkeypatch):
    s = parse("X(t)/(X(t) + Y(t)^2)", syms())
    assert to_string(s) == "X(t)/(X(t) + Y(t)^2)"  # a non-monomial denominator
    calls = []
    f_make = _poly.f_make
    monkeypatch.setattr(_poly, "f_make", lambda *a: calls.append(a) or f_make(*a))
    assert simplify(s) is s
    assert simplify(simplify(s)) is s
    assert calls == []


def test_a_value_is_its_pair():
    a, b = parse("t + 1", syms()), parse("1 + t", syms())
    assert isinstance(a, Normal) and a == b and hash(a) == hash(b)
    assert repr(a) == "Normal('1 + t')"
    # an atom never equals a value, even when it reads the same
    assert simplify(Coord("t")) != Coord("t")


def test_normal_form_lives_with_its_node():
    s = simplify(KnownFunc("sin", Coord("zz")))
    ref_s = weakref.ref(s)
    del s
    gc.collect()
    assert ref_s() is None


# ---------------------------------------------------------------------------
# differentiation of the stored normal form

def test_differentiate_reads_the_normal_form(monkeypatch):
    s = parse("X(t)^3/(X(t) + Y(t)^2)", syms())
    calls = []
    f_make = _poly.f_make
    monkeypatch.setattr(_poly, "f_make", lambda *a: calls.append(a) or f_make(*a))
    d = differentiate(s, "t")
    assert len(calls) <= 20
    assert equivalent(
        d, ref("(3*X(t)^2*X'(t)*(X(t) + Y(t)^2) - X(t)^3*(X'(t) + 2*Y(t)*Y'(t)))"
               "/(X(t) + Y(t)^2)^2"),
    )


def test_derivative_keeps_its_normal_form():
    d = differentiate(parse("X(t)^3/(X(t) + Y(t)^2) + sqrt(t)", syms()), "t")
    assert simplify(d) is d
    assert differentiate(parse("X(t)", syms()), "theta") == ZERO


def test_chain_rule_through_arguments():
    table = syms()
    table.declare_func(FuncSymbol("h", "theta", parse("sin(theta)*theta^2", table)))
    cases = [
        ("sin(t^2)", "t", "2*t*cos(t^2)"),
        ("log(X(t))", "t", "X'(t)/X(t)"),
        ("sqrt(1 + t^2)", "t", "t/sqrt(1 + t^2)"),
        ("tan(r*t)", "t", "r*(1 + tan(r*t)^2)"),
        ("X(t^2)", "t", "2*t*X'(t^2)"),
        ("h(theta^2)", "theta", "2*theta^5*cos(theta^2) + 4*theta^3*sin(theta^2)"),
    ]
    for source, var, want in cases:
        got = differentiate(parse(source, table), var)
        assert equivalent(got, parse(want, table)), source


@settings(max_examples=60, deadline=None)
@given(_exprs(), _exprs(), st.sampled_from(["t", "theta"]))
def test_leibniz_rule_property(raw_a, raw_b, v):
    a, b = simplify(raw_a), simplify(raw_b)
    lhs = differentiate(a * b, v)
    assert lhs == differentiate(a, v) * b + a * differentiate(b, v)


@settings(max_examples=60, deadline=None)
@given(_exprs(), _exprs(), st.sampled_from(["t", "theta"]))
def test_quotient_rule_property(raw_a, raw_b, v):
    a, b = simplify(raw_a), simplify(raw_b)
    assume(b != ZERO)
    lhs = differentiate(a / b, v)
    # the reference squares b, which is refused where it may pass the
    # expansion budget, as a 66-term b with a bound of 2205 is
    if max(_power_term_bound(p, 2) for p in (b.num, b.den)) > MAX_EXPANSION_TERMS:
        with pytest.raises(ResourceLimitError):
            b**2
        return
    assert lhs == (differentiate(a, v) * b - a * differentiate(b, v)) / b**2


def _components():
    # polynomials: a fiber coordinate, a coordinate, a constant, or a sum of
    # up to four monomials with Fraction coefficients over those, the other
    # coordinate, jets and built-in atoms
    atoms = st.one_of(st.just(Coord("u1")), _atoms())
    coefs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 3)))
    monomials = st.tuples(coefs, st.lists(atoms, max_size=3)).map(lambda ca: eprod((ca[0], *ca[1])))
    polynomials = st.lists(monomials, min_size=1, max_size=4).map(esum)
    return st.one_of(st.sampled_from([Coord("u1"), Coord("t"), Const("c1")]).map(simplify),
                     polynomials)


@settings(max_examples=60, deadline=None)
@given(_exprs(), _components(), _components())
def test_derivation_along_a_field_is_the_sum_of_its_partials_property(raw, w1, w2):
    # w1 d_t + w2 d_theta in one pass, reduced once
    e = simplify(raw)
    assert w1.den == w2.den == _poly.p_one()
    field = {"t": w1.num, "theta": w2.num}
    got = Normal(_reduced(_d_nf(_frac_of(e), field, {})))
    assert got == esum(eprod((w, differentiate(e, v))) for v, w in (("t", w1), ("theta", w2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=4), st.sampled_from(["t", "theta"]), st.data())
def test_one_derivation_serves_every_value_property(raws, v, data):
    # one atom memo for every value, in any order and with a value repeated
    values = [simplify(raw) for raw in raws]
    order = data.draw(st.permutations(range(len(values))), label="order")
    d_v = derivation({v: _poly.p_one()})
    got = {i: d_v(values[i]) for i in [*order, order[0]]}
    assert all(got[i] == differentiate(values[i], v) for i in range(len(values)))


def _typed_pair(fr) -> list:
    return [sorted((m, type(c).__name__, c) for m, c in p.items()) for p in fr]


@settings(max_examples=150, deadline=None)
@given(_exprs(), _exprs(), st.sampled_from([1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 5)]),
       st.integers(-3, 3))
def test_power_and_negation_of_a_value_are_its_reduced_pairs_property(raw_a, raw_b, c, n):
    # c*a/b: Fraction content, and a multi-term denominator whenever b is a
    # sum; the power or negation of a value equals f_make of the unreduced
    # pair (f_pow reduces any pair), coefficient types included, unless the
    # power may pass the expansion budget and is refused
    b = simplify(raw_b)
    assume(b != ZERO)
    x = eprod((c, raw_a, b ** -1))
    assert _typed_pair(_frac_of(-x)) == _typed_pair(_poly.f_make(_poly.p_neg(x.num), x.den))
    assume(n >= 0 or x != ZERO)
    if abs(n) > 1 and max(_power_term_bound(p, abs(n)) for p in (x.num, x.den)) > MAX_EXPANSION_TERMS:
        with pytest.raises(ResourceLimitError):
            x ** n
        return
    assert _typed_pair(_frac_of(x ** n)) == _typed_pair(f_pow((x.num, x.den), n))


def test_power_and_negation_of_a_value_take_no_reduction(monkeypatch):
    x = parse("(1/2*X(t) - 3*t^2)/(2*Y(t) + 4*t)", syms())

    def refuse(*args):
        raise AssertionError("a reduced pair was reduced again")

    monkeypatch.setattr(_poly, "f_make", refuse)
    monkeypatch.setattr(_poly, "p_gcd", refuse)
    powers = {n: x ** n for n in range(-3, 4)}
    assert powers[-1] ** -1 == x and -(-x) == x
    assert powers[0] == ONE and powers[1] == x
