"""Second fundamental form, tension field, trace residuals, lifted pairs."""

import pytest

from liftgeo.expr import ZERO, equivalent, simplify
from liftgeo.connection import christoffel
from liftgeo.geometry import Chart, GeometryError, Metric, identity_matrix
from liftgeo.harmonicity import (
    harmonicity_residuals, lifted_harmonicity, second_fundamental_form,
    tension_field,
)
from liftgeo.lifts import LiftKind, lift_metric

from conftest import ref


def flat(n, names=("x1", "x2", "x3", "x4")):
    return Metric(Chart(names[:n]), identity_matrix(n))


def coords_of(g):
    return [ref(name) if name in ("t", "r", "theta", "phi") else None
            for name in g.chart.coords]


def identity_map(g):
    from liftgeo.expr import Coord
    return [Coord(name) for name in g.chart.coords]


def test_beta_vanishes_for_identity_on_same_metric(gks_metric):
    beta = second_fundamental_form(identity_map(gks_metric), gks_metric, gks_metric)
    assert all(v == ZERO for v in beta.values())


def test_beta_vanishes_for_linear_map_between_flat_spaces():
    from liftgeo.expr import Coord
    g = flat(2)
    f_map = [simplify(2 * Coord("x1") + 1), simplify(Coord("x1") - 3 * Coord("x2"))]
    beta = second_fundamental_form(f_map, g, g)
    assert all(v == ZERO for v in beta.values())


def test_beta_for_identity_is_connection_difference(gks_metric, gks_hat_metric):
    beta = second_fundamental_form(identity_map(gks_metric), gks_metric, gks_hat_metric)
    cg = christoffel(gks_metric)
    cd = christoffel(gks_hat_metric)
    for (gamma, i, j), value in beta.items():
        want = simplify(cd.get(gamma, i, j) - cg.get(gamma, i, j))
        assert value == want


def test_tension_of_identity_on_same_metric(gks_metric):
    tau = tension_field(identity_map(gks_metric), gks_metric, gks_metric)
    assert all(v == ZERO for v in tau)


def test_tension_of_constant_map(gks_metric):
    const_map = [ref("1"), ref("2"), ref("1/2"), ref("1")]
    tau = tension_field(const_map, gks_metric, gks_metric)
    assert all(v == ZERO for v in tau)


def test_tension_equals_residual_vector(gks_metric, gks_hat_metric):
    tau = tension_field(identity_map(gks_metric), gks_metric, gks_hat_metric)
    report = harmonicity_residuals(gks_metric, gks_hat_metric)
    for k, value in enumerate(tau):
        assert equivalent(value, report.residual(str(k + 1)))


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
    sasaki = lift_metric(gks_metric, LiftKind.SASAKI).metric
    complete = lift_metric(gks_metric, LiftKind.COMPLETE).metric
    with pytest.raises(GeometryError, match="frame"):
        harmonicity_residuals(sasaki, complete)
    with pytest.raises(GeometryError, match="adapted-frame"):
        harmonicity_residuals(sasaki, sasaki)


def test_sasaki_lifted_residuals(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric)
    lifted = lifted_harmonicity(gks_metric, gks_hat_metric, LiftKind.SASAKI)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(f"{k}bar") == ZERO
        assert equivalent(lifted.residual(k), base.residual(k))
    assert any("vanishes identically" in note for note in lifted.notes)
    assert lifted.verdict.kind == base.verdict.kind


def test_horizontal_lifted_residuals(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric)
    lifted = lifted_harmonicity(gks_metric, gks_hat_metric, LiftKind.HORIZONTAL)
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
    g = Metric.from_entries(chart, {(0, 0): ref("1"), (1, 1): ref("1")})
    d = Metric.from_entries(chart, {
        (0, 0): ref("1"),
        (1, 1): ref("1 + theta*sin(theta)^2 + theta*cos(theta)^2 - theta"),
    })
    report = harmonicity_residuals(g, d)
    assert report.verdict.kind == "undecided"
    assert report.verdict.undecided_indices == ("1",)


def test_complete_lifted_residuals_are_doubled_base(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric)
    lifted = lifted_harmonicity(gks_metric, gks_hat_metric, LiftKind.COMPLETE)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(k) == ZERO
        assert equivalent(lifted.residual(f"{k}bar"), simplify(2 * base.residual(k)))


def test_complete_lift_inverts_each_lifted_metric_once(monkeypatch):
    from liftgeo import geometry
    from liftgeo.gks import abstract_spec, build_gks, hatted_abstract_spec
    built = []
    original = geometry._inverse

    def counting(g, det):
        built.append(g)
        return original(g, det)

    monkeypatch.setattr(geometry, "_inverse", counting)
    g, d = build_gks(abstract_spec()), build_gks(hatted_abstract_spec())
    lifted_harmonicity(g, d, LiftKind.COMPLETE)
    eight = [m for m in built if m.dim == 8]
    assert len(eight) == 2
    assert eight[0] is not eight[1]
    assert {id(m) for m in eight} == {
        id(lift_metric(g, LiftKind.COMPLETE).metric),
        id(lift_metric(d, LiftKind.COMPLETE).metric),
    }


def test_adapted_frame_pairs_are_routed_to_lifted_harmonicity(gks_metric):
    sasaki = lift_metric(gks_metric, LiftKind.SASAKI).metric
    with pytest.raises(GeometryError, match="adapted-frame.*lifted_harmonicity"):
        harmonicity_residuals(sasaki, sasaki)


def test_lifted_pair_on_different_charts_rejected(gks_metric, sphere_metric):
    with pytest.raises(GeometryError, match="chart"):
        lifted_harmonicity(gks_metric, sphere_metric, LiftKind.SASAKI)
