"""Family builders, the trace condition, theorem checks, scenarios."""

import pytest

from liftgeo.expr import Coord, FuncSymbol, KnownFunc, ZERO, equivalent, is_identically_zero
from liftgeo.geometry import validate
from liftgeo.gks import (
    GksSpec, SCENARIO_NAMES, abstract_spec, build_gks, condition_18,
    corpus_pairs, example_pair, hatted_abstract_spec, run_scenario,
    theorem_equivalence_check,
)
from liftgeo.harmonicity import harmonicity_residuals
from liftgeo.oracle import ProbeConfig

from conftest import ref


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


def test_variant_detection():
    g_spec, hat_spec = example_pair()
    assert hat_spec.variant == "bianchi-iii"
    assert g_spec.variant == "bianchi-i"
    sin_spec = GksSpec(
        FuncSymbol("X", "t"), FuncSymbol("Y", "t"),
        FuncSymbol("f", "theta", KnownFunc("sin", Coord("theta"))),
    )
    assert sin_spec.variant == "kantowski-sachs"
    assert abstract_spec().variant == "custom"


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
    assert set(check.results) == {"trace-condition", "sasaki", "horizontal", "complete"}


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


def test_corpus_is_seeded_and_mixed():
    pairs = corpus_pairs(seed=0, count=20)
    assert pairs == corpus_pairs(seed=0, count=20)
    assert len(pairs) == 20
    names = [name for name, _g, _d in pairs]
    assert len(set(names)) == 20


def test_corpus_verdict_matches_condition_18():
    # the base equivalence as a property over a seeded slice of the corpus
    cfg = ProbeConfig(seed=3)
    for name, g_spec, hat_spec in corpus_pairs(seed=3, count=8):
        g = build_gks(g_spec)
        d = build_gks(hat_spec)
        report = harmonicity_residuals(g, d, zero_kwargs=cfg.zero_kwargs())
        c1, c2 = condition_18(g_spec, hat_spec)
        v1 = is_identically_zero(c1, **cfg.zero_kwargs())
        v2 = is_identically_zero(c2, **cfg.zero_kwargs())
        assert report.verdict.kind != "undecided", name
        assert not (v1.is_unknown or v2.is_unknown), name
        expected_harmonic = v1.is_zero and v2.is_zero
        assert (report.verdict.kind == "harmonic") == expected_harmonic, name


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "theorem-equivalence"])
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


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("riemann-hypothesis")
