"""Family builders, the trace condition, theorem checks, scenarios."""

import pytest

from liftgeo import gks
from liftgeo.connection import Connection
from liftgeo.expr import ONE, Coord, FuncSymbol, KnownFunc, ZERO, eprod, equivalent, esum
from liftgeo.geometry import validate
from liftgeo.gks import (
    GksSpec, SCENARIO_NAMES, abstract_spec, build_gks, condition_18,
    corpus_pairs, example_pair, hatted_abstract_spec, run_scenario,
    theorem_equivalence_check,
)
from liftgeo.harmonicity import HarmonicityReport, Verdict, harmonicity_residuals
from liftgeo.oracle import ProbeConfig

from conftest import count_poly_calls, ref


def test_build_abstract_family(gks_metric):
    assert gks_metric.chart.coords == ("t", "r", "theta", "phi")
    assert gks_metric.entry(0, 0) == ref("1")
    assert gks_metric.entry(1, 1) == ref("-X(t)^2")
    assert gks_metric.entry(2, 2) == ref("-Y(t)^2")
    assert gks_metric.entry(3, 3) == ref("-Y(t)^2*f(theta)^2")
    assert all(gks_metric.entry(i, j) == ZERO for i in range(4) for j in range(4) if i != j)
    assert validate(gks_metric) == []


def test_build_example_metrics(example_metrics):
    g, ghat = example_metrics
    assert g.entry(1, 1) == ref("-e1^2")
    assert g.entry(2, 2) == ref("-e2^2")
    assert g.entry(3, 3) == ref("-e2^2*theta^2")
    assert ghat.entry(3, 3) == ref("-c2^2*sinh(theta)^2")


def test_build_flat_like_member():
    spec = GksSpec(
        FuncSymbol("X", "t", ref("1")),
        FuncSymbol("Y", "t", ref("1")),
        FuncSymbol("f", "theta", Coord("theta")),
    )
    m = build_gks(spec)
    assert m.entry(1, 1) == ref("-1")
    assert m.entry(3, 3) == ref("-theta^2")


def test_spec_coordinate_conventions_enforced():
    with pytest.raises(ValueError):
        GksSpec(FuncSymbol("X", "theta"), FuncSymbol("Y", "t"), FuncSymbol("f", "theta"))
    with pytest.raises(ValueError):
        GksSpec(FuncSymbol("X", "t"), FuncSymbol("Y", "t"), FuncSymbol("f", "t"))


def test_condition_18_on_identical_specs():
    spec = abstract_spec()
    c1, c2 = condition_18(spec, spec)
    assert c1 == ZERO and c2 == ZERO


def test_condition_18_on_renamed_abstract_pair():
    # Xh = X, Yh = Y, fh = f as fresh names bound to the same abstract data
    # is not detectable symbolically, but binding the same symbols is
    spec = abstract_spec()
    same = GksSpec(spec.X, spec.Y, spec.f)
    c1, c2 = condition_18(spec, same)
    assert c1 == ZERO and c2 == ZERO


def test_condition_18_on_example_pair():
    g_spec, hat_spec = example_pair()
    c1, c2 = condition_18(g_spec, hat_spec)
    assert c1 == ZERO
    assert equivalent(c2, ref("-sinh(theta)*cosh(theta) + theta"))


def test_condition_18_concrete_obstruction():
    # X = 1, Xh = t, everything else shared: the first obstruction is t
    g_spec = GksSpec(
        FuncSymbol("X", "t", ref("1")),
        FuncSymbol("Y", "t", ref("1")),
        FuncSymbol("f", "theta", KnownFunc("sin", Coord("theta"))),
    )
    hat_spec = GksSpec(
        FuncSymbol("Xh", "t", Coord("t")),
        FuncSymbol("Yh", "t", ref("1")),
        FuncSymbol("fh", "theta", KnownFunc("sin", Coord("theta"))),
    )
    c1, c2 = condition_18(g_spec, hat_spec)
    assert equivalent(c1, ref("t"))
    assert c2 == ZERO
    check = theorem_equivalence_check(g_spec, hat_spec, pair_name="obstructed")
    assert check.passed
    assert check.base_report.verdict.kind == "not_harmonic"


def test_theorem_check_on_example_pair():
    g_spec, hat_spec = example_pair()
    check = theorem_equivalence_check(g_spec, hat_spec)
    assert check.passed and not check.inconclusive
    assert check.base_report.verdict.kind == "not_harmonic"
    assert check.condition_holds is False
    assert set(check.results) == {"trace-condition"}


def test_theorem_check_on_abstract_pair():
    check = theorem_equivalence_check(abstract_spec(), hatted_abstract_spec())
    assert check.passed


def test_theorem_check_builds_each_base_connection_once(monkeypatch):
    from liftgeo import connection
    built = []
    original = connection._christoffel

    def counting(g, ginv):
        built.append(g)
        return original(g, ginv)

    monkeypatch.setattr(connection, "_christoffel", counting)
    theorem_equivalence_check(abstract_spec(), hatted_abstract_spec())
    base = [g for g in built if g.dim == 4]
    assert len(base) == 2
    assert base[0] is not base[1]


def test_theorem_check_builds_no_lifted_metric_connection_or_inverse(lifted_builds):
    # the lifted verdicts are read from the base report; the lift scenarios
    # check the identities that reading rests on
    check = theorem_equivalence_check(abstract_spec(), hatted_abstract_spec())
    assert check.passed
    assert lifted_builds == []


def test_all_scenarios_build_each_lift_connection_once(lifted_builds):
    # sasaki, horizontal and complete each lift g and its hatted partner;
    # complete-table reads the complete connection of g kept on it
    run_scenario("all")
    assert lifted_builds.count("_base_block") == 6


def test_corpus_is_seeded_and_mixed():
    pairs = corpus_pairs(seed=0, count=20)
    assert pairs == corpus_pairs(seed=0, count=20)
    assert len(pairs) == 20
    names = [name for name, _g, _d in pairs]
    assert len(set(names)) == 20


def test_corpus_verdict_matches_condition_18():
    # the identity of the theorem-equivalence scenario, specialized: the
    # abstract and worked pairs and a seeded corpus, each verdict probed
    pairs = [("abstract", abstract_spec(), hatted_abstract_spec()),
             ("example1", *example_pair()), *corpus_pairs(0, 20)]
    assert len(pairs) == 22
    for name, g_spec, hat_spec in pairs:
        check = theorem_equivalence_check(g_spec, hat_spec, ProbeConfig(), pair_name=name)
        assert check.passed and not check.inconclusive, (name, check.base_report.verdict)


def test_trace_condition_is_an_exact_identity_on_the_abstract_pair():
    g_spec, hat_spec = abstract_spec(), hatted_abstract_spec()
    report = harmonicity_residuals(build_gks(g_spec), build_gks(hat_spec))
    c1, c2 = condition_18(g_spec, hat_spec)
    Y, f = g_spec.Y.app(), g_spec.f.app()
    # canonical equality, no probe
    assert report.residual("1") + c1 == ZERO
    assert eprod((Y, Y, f, f, report.residual("3"))) + c2 == ZERO
    assert report.residual("2") == ZERO and report.residual("4") == ZERO
    (result,) = run_scenario("theorem-equivalence")
    assert [(e.name, e.status, e.difference) for e in result.entries] == [
        (name, "match", None)
        for name in ("Y^2*f^2*rho^3 + c2", "rho^1 + c1", "rho^2", "rho^4")
    ]


def test_scenario_names_are_the_packages_in_the_order_of_the_scenarios():
    import liftgeo
    from liftgeo import gks

    assert SCENARIO_NAMES is liftgeo.SCENARIO_NAMES
    assert tuple(gks._SCENARIOS) == SCENARIO_NAMES
    assert [r.scenario for r in run_scenario("all")] == list(SCENARIO_NAMES)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenarios_pass(name):
    (result,) = run_scenario(name)
    assert result.passed, [e for e in result.entries if e.status != "match"]
    assert not result.inconclusive


def test_complete_table_scenario_has_single_annotated_mismatch():
    (result,) = run_scenario("complete-table")
    mismatches = [e for e in result.entries if e.status == "mismatch"]
    assert len(mismatches) == 1
    entry = mismatches[0]
    assert entry.annotated
    assert entry.name == "Gamma^2bar_1,2"
    assert entry.difference == "-2*u1*X'(t)^2/X(t)^2"


@pytest.mark.parametrize("change", ["alter", "add", "drop"])
def test_general_pattern_names_the_one_slot_the_closed_form_gets_wrong(monkeypatch, change):
    # the closed form of the complete lift's connection with one slot
    # changed: a stored slot given another value, a zero slot given a value,
    # a stored slot left out
    lift_connection = gks.lift_connection
    changed = []

    def closed_form(g, kind, *, cfg):
        conn = lift_connection(g, kind, cfg=cfg)
        coeffs = dict(conn.coefficients)
        if change == "alter":
            key = sorted(coeffs)[len(coeffs) // 2]
            coeffs[key] = coeffs[key] + ONE
        elif change == "add":
            key = (0, 0, 0)
            assert key not in coeffs
            coeffs[key] = ONE
        else:
            key = (5, 0, 1)
            del coeffs[key]
        changed.append(conn.display_key(*key))
        return Connection(conn.chart, coeffs, conn.frame)

    monkeypatch.setattr(gks, "lift_connection", closed_form)
    (result,) = run_scenario("complete-table")
    (entry,) = [e for e in result.entries if e.name == "general-pattern"]
    assert entry.status == "mismatch"
    assert entry.note == f"pattern fails at {changed}"
    assert len(changed) == 1 and not result.passed


def test_scenarios_of_one_call_share_their_metrics(monkeypatch):
    # every scenario reads the abstract metric's connection from one build
    from liftgeo import connection
    abstract = build_gks(abstract_spec())
    builds = []
    christoffel = connection._christoffel
    monkeypatch.setattr(connection, "_christoffel",
                        lambda g, ginv: builds.append(g == abstract) or christoffel(g, ginv))
    run_scenario("all", ProbeConfig(seed=3))
    assert builds.count(True) == 1


def test_scenarios_of_later_calls_share_their_metrics(monkeypatch):
    # the family members outlive a call, so a later call at another seed
    # reads the abstract metric's connection from the first call's build
    from liftgeo import connection
    abstract = build_gks(abstract_spec())
    builds = []
    christoffel = connection._christoffel
    monkeypatch.setattr(connection, "_christoffel",
                        lambda g, ginv: builds.append(g == abstract) or christoffel(g, ginv))
    run_scenario("gamma-matrices")
    run_scenario("curvature-table", ProbeConfig(seed=3))
    assert builds.count(True) == 1


@pytest.mark.parametrize("seed", [1, 3])
def test_shared_members_change_no_report(seed):
    # each scenario on members built for it alone, then on members an all
    # call at seed 7 built and judged: nondegeneracy is judged per setting,
    # so the results are equal
    cfg = ProbeConfig(seed=seed)
    cold = []
    for name in SCENARIO_NAMES:
        gks._member.cache_clear()
        cold += run_scenario(name, cfg)
    gks._member.cache_clear()
    run_scenario("all", ProbeConfig(seed=7))
    warm = [result for name in SCENARIO_NAMES for result in run_scenario(name, cfg)]
    assert warm == cold


@pytest.mark.parametrize("kind, status, note", [
    ("harmonic", "mismatch", "expected not_harmonic, got harmonic"),
    ("undecided", "inconclusive", None),
])
def test_example1_names_a_wrong_or_undecided_verdict(monkeypatch, kind, status, note):
    # the example pair judged harmonic, or left undecided, instead of
    # not_harmonic at a witness
    monkeypatch.setattr(gks, "harmonicity_residuals",
                        lambda g, d, *, cfg: HarmonicityReport({}, Verdict(kind)))
    (result,) = run_scenario("example1")
    assert [e.status for e in result.entries[:-1]] == ["match", "match"]
    verdict = result.entries[-1]
    assert (verdict.name, verdict.status, verdict.note) == ("verdict", status, note)
    assert not result.passed
    assert result.inconclusive is (kind == "undecided")


# exact polynomial calls of one run_scenario("sasaki"): counts, not a wall
# time; a number factor of an esum term costs no p_mul, and folding the
# numbers changes no reduction; each atom is derived once per coordinate per
# assembly, a power or negation of a value is not reduced again, a
# matching table entry builds no difference, a 1x1 block of an inverse is
# one reciprocal, and a number times a value is not reduced again; an
# inverse builds the upper triangle of each block's adjugate (the Sasaki
# inverse has 1x1 blocks only, the horizontal one 2x2 blocks); the Sasaki
# connection sums -1/2 R^k_ijh u^h with its number factor, in the one walk
# over the curvature that also sums 1/2 R^k_hij u^h
SASAKI_F_MAKE_CALLS = 110
SASAKI_P_MUL_CALLS = 477
HORIZONTAL_F_MAKE_CALLS = 21
HORIZONTAL_P_MUL_CALLS = 118


def test_sasaki_scenario_pins_its_polynomial_calls(monkeypatch):
    calls = count_poly_calls(monkeypatch)
    (result,) = run_scenario("sasaki")
    monkeypatch.undo()
    assert result.passed
    assert calls == {"p_mul": SASAKI_P_MUL_CALLS, "f_make": SASAKI_F_MAKE_CALLS}


def test_horizontal_scenario_pins_its_polynomial_calls(monkeypatch):
    calls = count_poly_calls(monkeypatch)
    (result,) = run_scenario("horizontal")
    monkeypatch.undo()
    assert result.passed
    assert calls == {"p_mul": HORIZONTAL_P_MUL_CALLS, "f_make": HORIZONTAL_F_MAKE_CALLS}


def test_an_all_call_makes_one_zero_test_per_determinant_and_setting(monkeypatch):
    # each metric keeps its nondegeneracy verdict per ProbeConfig, so the
    # inverse, Christoffel and trace builds of one call share it
    from liftgeo import expr
    tested = []
    zero_test = expr.is_identically_zero
    monkeypatch.setattr(expr, "is_identically_zero",
                        lambda e, **kw: tested.append(e) or zero_test(e, **kw))
    run_scenario("all")
    assert len(tested) == 23


def test_table_assemblies_sum_nonzero_terms_only(monkeypatch):
    # the Christoffel, curvature, fiber-contraction, Sasaki and trace sums
    # of the table scenarios: every term has nonzero factors, no sum is
    # empty, and a ZERO result is a cancellation, as in the five curvature
    # slots R^1_3,4,4, R^3_1,4,4, R^4_1,3,4, R^4_1,4,3 and R^4_3,4,1 of
    # both abstract metrics
    from liftgeo import connection, harmonicity, lifts
    sums = []

    def recording(terms):
        terms = list(terms)
        result = esum(terms)
        sums.append((terms, result))
        return result

    for module in (connection, harmonicity, lifts):
        monkeypatch.setattr(module, "esum", recording)
    run_scenario("all")
    monkeypatch.undo()
    for terms, result in sums:
        assert terms
        for t in terms:
            assert not any(f == ZERO or f == 0 for f in (t if isinstance(t, tuple) else (t,)))
    cancelled = [terms for terms, result in sums if result == ZERO]
    assert len(cancelled) == 10
    assert all(len(terms) >= 2 for terms in cancelled)


def test_transcribed_texts_are_parsed_once_per_process(monkeypatch):
    # 41 distinct texts, 66 reads in the eight table scenarios
    from liftgeo import gks
    texts = []
    parse = gks.parse
    monkeypatch.setattr(gks, "parse", lambda text, table: texts.append(text) or parse(text, table))
    gks._ref.cache_clear()
    first = run_scenario("all")
    assert len(texts) == len(set(texts)) == 41
    assert run_scenario("all") == first
    assert len(texts) == 41


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("riemann-hypothesis")
