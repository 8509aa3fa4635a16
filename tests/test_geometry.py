"""Charts, metrics, exact inverse/determinant, validation, metric files."""

import pytest

from liftgeo.expr import ZERO, equivalent, simplify, to_string
from liftgeo.geometry import (
    Chart, DegenerateMetricError, Frame, GeometryError, Metric,
    MetricFileError, determinant, identity_matrix, inverse, matrix_mul,
    parse_metric_document, validate,
)
from liftgeo.lifts import LiftKind, lift_metric

from conftest import ref


def test_tangent_chart_layout():
    chart = Chart(("t", "r", "theta", "phi"))
    tchart = chart.tangent()
    assert tchart.coords == ("t", "r", "theta", "phi", "u1", "u2", "u3", "u4")
    assert tchart.base is chart
    assert tchart.index_name(1) == "2"
    assert tchart.index_name(5) == "2bar"
    with pytest.raises(GeometryError):
        tchart.tangent()


def test_metric_shape_checked():
    chart = Chart(("t", "r"))
    with pytest.raises(GeometryError):
        Metric(chart, ((ref("1"),),))
    with pytest.raises(GeometryError):
        Metric(chart, identity_matrix(2), Frame.ADAPTED)


def test_inverse_of_gks_is_the_reciprocal_diagonal(gks_metric):
    ginv = inverse(gks_metric)
    want = {
        0: "1", 1: "-1/X(t)^2", 2: "-1/Y(t)^2", 3: "-1/(Y(t)^2*f(theta)^2)",
    }
    for i in range(4):
        assert ginv.entry(i, i) == ref(want[i])
        for j in range(4):
            if i != j:
                assert ginv.entry(i, j) == ZERO
    prod = matrix_mul(gks_metric.components, ginv.components)
    assert prod == identity_matrix(4)


def test_inverse_of_identity():
    g = Metric(Chart(("t", "r", "theta", "phi")), identity_matrix(4))
    assert inverse(g).components == identity_matrix(4)


def test_inverse_involution(gks_metric, sphere_metric, example_metrics):
    for g in (gks_metric, sphere_metric) + example_metrics:
        assert inverse(inverse(g)).components == g.components


def test_determinant_of_gks(gks_metric):
    # product of the diagonal entries: 1 * (-X^2) * (-Y^2) * (-Y^2 f^2)
    assert determinant(gks_metric) == ref("-X(t)^2*Y(t)^4*f(theta)^2")


def test_determinant_of_identity():
    g = Metric(Chart(("t", "r", "theta", "phi")), identity_matrix(4))
    assert determinant(g) == ref("1")


def test_determinant_of_horizontal_lift_is_square(gks_metric):
    # block anti-diagonal (0, g; g, 0): sign (-1)^m = +1 for m = 4
    lifted = lift_metric(gks_metric, LiftKind.HORIZONTAL)
    det = determinant(gks_metric)
    assert determinant(lifted.metric) == simplify(det * det)


def test_det_of_inverse_is_reciprocal(gks_metric, sphere_metric):
    for g in (gks_metric, sphere_metric):
        assert simplify(determinant(inverse(g)) * determinant(g)) == ref("1")


def test_degenerate_metric_rejected():
    chart = Chart(("t", "r"))
    g = Metric.from_entries(chart, {(0, 0): ref("1")})  # zero row
    with pytest.raises(DegenerateMetricError):
        inverse(g)


def test_inconclusive_determinant_refused_with_diagnostic():
    # symbolically nonzero but numerically zero under the opaque-trig policy
    chart = Chart(("theta", "x"))
    g = Metric.from_entries(chart, {
        (0, 0): ref("theta*sin(theta)^2 + theta*cos(theta)^2 - theta"),
        (1, 1): ref("1"),
    })
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        inverse(g)


def test_nondegeneracy_is_certified_on_every_call(monkeypatch):
    # the inverse algebra is kept on the metric, the zero test is not
    from liftgeo import expr
    from liftgeo.connection import christoffel
    g = Metric.from_entries(Chart(("t", "x")), {(0, 0): ref("1"), (1, 1): ref("t^2")})
    inverse(g)
    monkeypatch.setattr(expr, "is_identically_zero",
                        lambda e, **kw: expr.ZeroVerdict("unknown"))
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        inverse(g)
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        christoffel(g)


def test_validate_clean_metric(gks_metric):
    assert validate(gks_metric) == []


def test_validate_flags_asymmetry():
    chart = Chart(("t", "r"))
    g = Metric(chart, ((ref("1"), ref("t")), (ref("2*t"), ref("1"))))
    issues = validate(g)
    assert any("symmetry" in msg for msg in issues)


def test_validate_flags_foreign_coordinate():
    chart = Chart(("t", "r"))
    g = Metric.from_entries(chart, {(0, 0): ref("1"), (1, 1): ref("theta^2")})
    issues = validate(g)
    assert any("chart-closure" in msg for msg in issues)


def test_validate_flags_degenerate():
    chart = Chart(("t", "r"))
    g = Metric.from_entries(chart, {(0, 0): ref("1")})
    issues = validate(g)
    assert any("degenerate" in msg for msg in issues)


# ---------------------------------------------------------------------------
# metric definition files

DOC = """
# the documented example
chart t r theta phi
func X(t) abstract
func Y(t) abstract
func f(theta) = sin(theta)        # or: abstract
g 1 1 = 1
g 2 2 = -X(t)^2
g 3 3 = -Y(t)^2
g 4 4 = -Y(t)^2 * f(theta)^2
"""


def test_metric_file_round_trip():
    doc = parse_metric_document(DOC)
    m = doc.metric
    assert m.chart.coords == ("t", "r", "theta", "phi")
    assert m.entry(0, 0) == ref("1")
    assert m.entry(1, 1) == ref("-X(t)^2")
    # concrete body expands on the spot
    assert m.entry(3, 3) == ref("-Y(t)^2*sin(theta)^2")
    assert m.entry(0, 1) == ZERO
    assert validate(m) == []


def test_metric_file_mirrors_offdiagonal():
    doc = parse_metric_document("chart t r\ng 1 2 = t\n")
    assert doc.metric.entry(0, 1) == doc.metric.entry(1, 0) == ref("t")


def test_metric_file_tolerates_equal_duplicates():
    doc = parse_metric_document("chart t r\ng 1 2 = t\ng 2 1 = t\n")
    assert doc.metric.entry(1, 0) == ref("t")


def test_metric_file_conflicting_assignment():
    with pytest.raises(MetricFileError, match="line 3: conflicting"):
        parse_metric_document("chart t r\ng 1 1 = 1\ng 1 1 = 2\n")


def test_metric_file_errors():
    with pytest.raises(MetricFileError, match="missing chart"):
        parse_metric_document("# only a comment\n")
    with pytest.raises(MetricFileError, match="before chart"):
        parse_metric_document("g 1 1 = 1\n")
    with pytest.raises(MetricFileError, match="before chart"):
        parse_metric_document("func X(t) abstract\nchart t\n")
    with pytest.raises(MetricFileError, match="out of range"):
        parse_metric_document("chart t r\ng 1 3 = 1\n")
    with pytest.raises(MetricFileError, match="line 2"):
        parse_metric_document("chart t r\ng 1 1 = 1 +\n")
    with pytest.raises(MetricFileError, match="unknown directive"):
        parse_metric_document("chart t\nmetric 1\n")
    with pytest.raises(MetricFileError, match="undeclared coordinate"):
        parse_metric_document("chart t\nfunc f(theta) abstract\n")


def test_metric_file_const_declaration():
    doc = parse_metric_document("chart t r\nconst c1\ng 1 1 = c1^2\ng 2 2 = 1\n")
    assert "c1" in doc.symbols.consts
    assert doc.metric.entry(0, 0) == ref("c1^2")


def test_expressions_reference_only_known_text(gks_metric):
    # canonical printing stays within the grammar: reparse every entry
    from liftgeo.expr import parse
    from conftest import full_symbols
    for i in range(4):
        for j in range(4):
            text = to_string(gks_metric.entry(i, j))
            assert parse(text, full_symbols()) == gks_metric.entry(i, j)
