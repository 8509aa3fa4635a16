"""Trace residuals of base and lifted pairs, and their verdicts."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from liftgeo import _poly, expr
from liftgeo.expr import ZERO, ProbeConfig, SymbolTable, equivalent, parse, simplify
from liftgeo.geometry import (
    Chart, GeometryError, Metric, load_metric_document, parse_metric_document,
)
from liftgeo.harmonicity import harmonicity_residuals, lifted_harmonicity, lifted_report
from liftgeo.lifts import LiftKind, lift_metric

from conftest import generic_lifted_traces, ref


METRICS = pathlib.Path(__file__).resolve().parent.parent / "metrics"

# off-diagonal pairs are slower; DENSE_PAIRS below covers three of them
DIAGONAL_ENTRIES = ["1", "-3", "t", "1+t^2", "exp(t)", "2+sin(x)", "1+t*x", "x^2+1"]
PLANE = Chart(("t", "x"))
PLANE_SYMBOLS = SymbolTable(coords=PLANE.coords)


def plane_metric(g11: str, g12: str, g22: str) -> Metric:
    return Metric(PLANE, {
        (0, 0): parse(g11, PLANE_SYMBOLS), (0, 1): parse(g12, PLANE_SYMBOLS),
        (1, 1): parse(g22, PLANE_SYMBOLS),
    })


def assert_lift_identities(g: Metric, d: Metric, known: dict):
    """Sasaki and horizontal: rho^k on the base indices, 0 on the barred
    ones; complete: 0 on the base indices, 2 rho^k on the barred ones.
    The lifted traces are the generic ones, and lifted_report, which reads
    them from the base traces, must agree with them. known holds generic
    lifted reports already built, by kind."""
    base = harmonicity_residuals(g, d)
    for kind in LiftKind:
        lifted = known.get(kind) or generic_lifted_traces(g, d, kind)
        mapped = lifted_report(base, kind)
        assert mapped.residuals == lifted.residuals
        assert mapped.verdict == lifted.verdict
        for k in ("1", "2"):
            rho = base.residual(k)
            if kind is LiftKind.COMPLETE:
                assert lifted.residual(k) == ZERO
                assert lifted.residual(f"{k}bar") == 2 * rho
            else:
                assert lifted.residual(k) == rho
                assert lifted.residual(f"{k}bar") == ZERO


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.sampled_from(DIAGONAL_ENTRIES)] * 4))
def test_lifted_traces_are_a_linear_image_of_the_base_traces(entries):
    g11, g22, d11, d22 = entries
    assert_lift_identities(plane_metric(g11, "0", g22), plane_metric(d11, "0", d22), {})


# (g11, g12, g22) pairs whose Sasaki traces need a gcd of dense polynomials,
# with the pseudo-remainders each takes there; the largest remainder operands
# hold 177, 41 and 85 terms
DENSE_PAIRS = [
    (("t^3", "sin(x)", "2+x"), ("1+t*x", "x^2", "-exp(t)"), 1666),
    (("1+t*x", "x^2", "-exp(t)"), ("t^3", "sin(x)", "2+x"), 780),
    (("exp(t)", "t", "2+sin(x)"), ("2+sin(x)", "x", "1+t^2"), 856),
]
PREM_BUDGET = 2500
PREM_TERMS = 400


@pytest.mark.parametrize("g_entries, d_entries, prems", DENSE_PAIRS,
                         ids=["dense", "dense-reversed", "exp-sin"])
def test_gcd_stays_bounded_on_dense_pairs(g_entries, d_entries, prems, monkeypatch):
    # counts, not a wall time: the budgets stop a run-away remainder sequence
    # long before it would finish, by its length or by the size of its terms
    calls = []
    prem = _poly._prem

    def counting(a, b):
        calls.append(None)
        if len(calls) > PREM_BUDGET:
            raise AssertionError(f"more than {PREM_BUDGET} pseudo-remainders")
        if sum(map(len, a)) + sum(map(len, b)) > PREM_TERMS:
            raise AssertionError(f"a pseudo-remainder of more than {PREM_TERMS} terms")
        return prem(a, b)

    g, d = plane_metric(*g_entries), plane_metric(*d_entries)
    monkeypatch.setattr(_poly, "_prem", counting)
    sasaki = generic_lifted_traces(g, d, LiftKind.SASAKI)
    monkeypatch.undo()
    assert len(calls) == prems
    assert_lift_identities(g, d, {LiftKind.SASAKI: sasaki})


def test_residuals_of_equal_pair(gks_metric, sphere_metric):
    for g in (gks_metric, sphere_metric):
        report = harmonicity_residuals(g, g)
        assert report.verdict.kind == "harmonic"
        assert all(v == ZERO for v in report.residuals.values())


def test_gks_pair_residual_structure(gks_metric, gks_hat_metric):
    report = harmonicity_residuals(gks_metric, gks_hat_metric)
    assert report.residual("2") == ZERO
    assert report.residual("4") == ZERO
    rho1 = ref(
        "-((Xh'(t)*Xh(t) - X'(t)*X(t))/X(t)^2"
        " + (Yh'(t)*Yh(t) - Y'(t)*Y(t))/Y(t)^2"
        " + (Yh'(t)*Yh(t)*fh(theta)^2 - Y'(t)*Y(t)*f(theta)^2)/(Y(t)^2*f(theta)^2))"
    )
    rho3 = ref("-(-fh(theta)*fh'(theta) + f(theta)*f'(theta))/(Y(t)^2*f(theta)^2)")
    assert equivalent(report.residual("1"), rho1)
    assert equivalent(report.residual("3"), rho3)
    assert report.verdict.kind == "not_harmonic"


def test_example_pair_not_harmonic(example_metrics):
    g, ghat = example_metrics
    report = harmonicity_residuals(g, ghat)
    assert report.verdict.kind == "not_harmonic"
    assert report.verdict.index == "3"
    assert report.verdict.witness is not None
    want = ref("-(-sinh(theta)*cosh(theta) + theta)/(e2^2*theta^2)")
    assert equivalent(report.residual("3"), want)


def test_relation_is_asymmetric(example_metrics):
    g, ghat = example_metrics
    a = harmonicity_residuals(g, ghat).residual("3")
    b = harmonicity_residuals(ghat, g).residual("3")
    assert not equivalent(a, b)


def test_chart_and_frame_mismatch_rejected(gks_metric, sphere_metric):
    with pytest.raises(GeometryError, match="chart"):
        harmonicity_residuals(gks_metric, sphere_metric)
    sasaki = lift_metric(gks_metric, LiftKind.SASAKI)
    complete = lift_metric(gks_metric, LiftKind.COMPLETE)
    with pytest.raises(GeometryError, match="frame"):
        harmonicity_residuals(sasaki, complete)
    with pytest.raises(GeometryError, match="adapted-frame"):
        harmonicity_residuals(sasaki, sasaki)


def test_sasaki_lifted_residuals(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric)
    lifted = generic_lifted_traces(gks_metric, gks_hat_metric, LiftKind.SASAKI)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(f"{k}bar") == ZERO
        assert equivalent(lifted.residual(k), base.residual(k))
    mapped = lifted_harmonicity(gks_metric, gks_hat_metric, LiftKind.SASAKI)
    assert any("vanishes identically" in note for note in mapped.notes)
    assert lifted.verdict.kind == base.verdict.kind


def test_sasaki_note_holds_on_a_non_diagonal_pair():
    # g^ij is symmetric where it is off the diagonal, so the barred traces
    # still cancel: the generic lifted residuals back the report's note
    syms = SymbolTable(coords=("t", "x"))
    chart = Chart(("t", "x"))

    def metric(g11, g12, g22):
        return Metric(chart, {
            (0, 0): parse(g11, syms), (0, 1): parse(g12, syms), (1, 1): parse(g22, syms),
        })

    g = metric("1 + t*x", "x^2", "-exp(t)")
    d = metric("t^3", "sin(x)", "2 + x")
    assert lifted_harmonicity(g, d, LiftKind.SASAKI).notes == (
        "barred-trace curvature difference g^ij (Rhat - R)^k_ij0 vanishes identically",
    )
    lifted = generic_lifted_traces(g, d, LiftKind.SASAKI)
    for k in ("1", "2"):
        assert lifted.residual(f"{k}bar") == ZERO
    assert lifted.verdict.kind == "not_harmonic"


def test_horizontal_lifted_residuals(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric)
    lifted = generic_lifted_traces(gks_metric, gks_hat_metric, LiftKind.HORIZONTAL)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(f"{k}bar") == ZERO
        assert equivalent(lifted.residual(k), base.residual(k))
    assert lifted.verdict.kind == base.verdict.kind


def test_complete_lift_of_equal_pair_is_harmonic(gks_metric):
    lifted = lifted_harmonicity(gks_metric, gks_metric, LiftKind.COMPLETE)
    assert lifted.verdict.kind == "harmonic"


def test_undecided_verdict_is_surfaced_not_coerced():
    # the residual is -1/2 (sin^2 + cos^2 - 1): nonzero as a rational
    # function of the opaque atoms, numerically zero at every probe
    chart = Chart(("theta", "x"))
    g = Metric(chart, {(0, 0): ref("1"), (1, 1): ref("1")})
    d = Metric(chart, {
        (0, 0): ref("1"),
        (1, 1): ref("1 + theta*sin(theta)^2 + theta*cos(theta)^2 - theta"),
    })
    report = harmonicity_residuals(g, d)
    assert report.verdict.kind == "undecided"
    assert report.verdict.undecided_indices == ("1",)


def test_complete_lifted_residuals_are_doubled_base(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric)
    lifted = generic_lifted_traces(gks_metric, gks_hat_metric, LiftKind.COMPLETE)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(k) == ZERO
        assert equivalent(lifted.residual(f"{k}bar"), simplify(2 * base.residual(k)))


def test_lifted_harmonicity_builds_no_lifted_metric_connection_or_inverse(lifted_builds):
    from liftgeo.gks import abstract_spec, build_gks, hatted_abstract_spec
    g, d = build_gks(abstract_spec()), build_gks(hatted_abstract_spec())
    for kind in LiftKind:
        lifted_harmonicity(g, d, kind)
    assert lifted_builds == []
    # the recorder sees the generic path build what the map does without
    generic_lifted_traces(g, d, LiftKind.COMPLETE)
    assert lifted_builds == ["_lift_metric", "_base_block", "_base_block", "_inverse"]


def test_adapted_frame_pairs_are_routed_to_lifted_harmonicity(gks_metric):
    sasaki = lift_metric(gks_metric, LiftKind.SASAKI)
    with pytest.raises(GeometryError, match="adapted-frame.*lifted_harmonicity"):
        harmonicity_residuals(sasaki, sasaki)


@pytest.mark.parametrize("kind", list(LiftKind), ids=lambda kind: kind.value)
def test_a_lifted_verdict_makes_only_the_base_zero_tests(kind, monkeypatch):
    # the lifted verdict is the base verdict carried, not judged again; the
    # metrics are read afresh per count, as each keeps its nondegeneracy
    # verdict per probe setting: one zero test of each determinant, then
    # the traces until one is certified nonzero, here the first
    calls = []
    zero_test = expr.is_identically_zero
    monkeypatch.setattr(expr, "is_identically_zero",
                        lambda e, **kw: calls.append(e) or zero_test(e, **kw))

    def zero_tests(judge):
        calls.clear()
        judge(load_metric_document(METRICS / "ks.metric"),
              load_metric_document(METRICS / "gks.metric"))
        return len(calls)

    base = zero_tests(harmonicity_residuals)
    assert zero_tests(lambda g, d: lifted_harmonicity(g, d, kind)) == base == 3


def test_lifted_pair_on_different_charts_rejected(gks_metric, sphere_metric):
    with pytest.raises(GeometryError, match="chart"):
        lifted_harmonicity(gks_metric, sphere_metric, LiftKind.SASAKI)


def test_lift_verdicts_agree_with_the_base_on_a_tiny_trace():
    """Base and lifts agree: every lifted verdict is the base verdict carried
    through the lift identities, so the complete lift's doubled trace
    2 rho^1 = -3/2000000000 is not judged again against the absolute probe
    tolerance that leaves rho^1 = -3/4000000000 undecided."""
    flat = parse_metric_document("chart t x\ng 1 1 = 1\ng 2 2 = 1\n")
    tiny = parse_metric_document("chart t x\ng 1 1 = 1\ng 2 2 = 1 + 3*t/(2*10^9)\n")
    cfg = ProbeConfig(seed=3)
    base = harmonicity_residuals(flat, tiny, cfg=cfg).verdict.kind
    lifted = [lifted_harmonicity(flat, tiny, kind, cfg=cfg).verdict.kind for kind in LiftKind]
    assert lifted == [base] * len(LiftKind)
