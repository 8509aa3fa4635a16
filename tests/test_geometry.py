"""Charts, metrics, exact inverse/determinant, validation, metric files."""

from fractions import Fraction

import pytest

from liftgeo.expr import ZERO, equivalent, simplify, to_string
from liftgeo.geometry import (
    Chart, DegenerateMetricError, Frame, GeometryError, Metric,
    MetricFileError, determinant, inverse, parse_metric_document, validate,
)
from liftgeo.lifts import LiftKind, lift_connection, lift_metric

from conftest import count_poly_calls, identity_matrix, matrix_mul, ref


def test_tangent_chart_layout():
    chart = Chart(("t", "r", "theta", "phi"))
    tchart = chart.tangent()
    assert tchart.coords == ("t", "r", "theta", "phi", "u1", "u2", "u3", "u4")
    assert tchart.base is chart
    assert tchart.index_name(1) == "2"
    assert tchart.index_name(5) == "2bar"
    with pytest.raises(GeometryError):
        tchart.tangent()


def test_chart_rejects_repeated_coordinates():
    with pytest.raises(GeometryError, match="repeats"):
        Chart(("t", "t"))


def test_tangent_chart_rejects_fiber_name_clash():
    # the fiber coordinates of a two-dimensional chart are u1, u2
    with pytest.raises(GeometryError, match="u1"):
        Chart(("t", "u1")).tangent()


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
    assert determinant(lifted) == simplify(det * det)


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
    lift_connection(g, LiftKind.COMPLETE)
    monkeypatch.setattr(expr, "is_identically_zero",
                        lambda e, **kw: expr.ZeroVerdict("unknown"))
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        inverse(g)
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        christoffel(g)
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        lift_connection(g, LiftKind.COMPLETE)


# ---------------------------------------------------------------------------
# block inversion

BLOCK_METRICS = [
    # a coupled 2x2 block on {t, theta} and a 1x1 block on {r}
    (("t", "r", "theta"), {(0, 0): "t^2", (0, 2): "theta", (2, 2): "1 + t", (1, 1): "X(t)"},
     [(0, 2), (1,)]),
    # 1x1 blocks on {t} and {y} around a 2x2 block on {x, z}: a monomial
    # denominator, a negative leading coefficient and a Fraction coefficient
    (("t", "x", "y", "z"), {(0, 0): "-t^2/3", (1, 1): "x", (1, 3): "t/x",
                            (3, 3): "1 + x^2", (2, 2): "(1 + t)/(2*x*y)"},
     [(0,), (1, 3), (2,)]),
]


def test_inverse_and_determinant_by_blocks():
    from liftgeo.geometry import _blocks, _det_minor
    for coords, entries, blocks in BLOCK_METRICS:
        chart = Chart(coords)
        g = Metric.from_entries(chart, {key: ref(text) for key, text in entries.items()})
        assert _blocks(g) == blocks
        n = chart.dim
        assert matrix_mul(g.components, inverse(g).components) == identity_matrix(n)
        block_of = {i: b for b in _blocks(g) for i in b}
        assert all(inverse(g).entry(i, j) == ZERO
                   for i in range(n) for j in range(n) if j not in block_of[i])
        idx = tuple(range(n))
        assert determinant(g) == _det_minor(idx, idx, g.entry, {})


def test_blocks_are_found_once_per_metric(monkeypatch):
    # the determinant and the inverse of a fresh complete lift read one
    # block search; its pattern joins each base slot with its fiber slot
    from liftgeo import geometry
    from liftgeo.gks import abstract_spec, build_gks
    searches = []
    search = geometry._block_search
    monkeypatch.setattr(geometry, "_block_search", lambda g: searches.append(g) or search(g))
    lifted = lift_metric(build_gks(abstract_spec()), LiftKind.COMPLETE)
    inverse(lifted)
    assert searches == [lifted]
    assert geometry._blocks(lifted) == [(0, 4), (1, 5), (2, 6), (3, 7)]


@pytest.mark.parametrize("kind", [None, LiftKind.SASAKI])
def test_one_by_one_blocks_invert_without_products(kind, monkeypatch):
    # the abstract GKS metric and its Sasaki lift are diagonal: every block
    # is one reciprocal, with no polynomial product and no reduction
    from liftgeo import geometry
    from liftgeo.gks import abstract_spec, build_gks
    g = build_gks(abstract_spec())
    g = g if kind is None else lift_metric(g, kind)
    det = determinant(g)
    calls = count_poly_calls(monkeypatch)
    ginv = geometry._inverse(g, det)
    monkeypatch.undo()
    assert calls == {"p_mul": 0, "f_make": 0}
    assert matrix_mul(g.components, ginv.components) == identity_matrix(g.dim)


def test_shared_pairs_are_never_mutated():
    # a reciprocal, a 1x1 inverse entry and an esum result may share the
    # dicts of the value they read
    from liftgeo.expr import eprod, esum
    values = [ref(text) for text in ("X(t)^2/(2*t)", "-3/t^2", "t/(1 + t)", "X(t)/t^2")]
    before = [(dict(v.num), dict(v.den)) for v in values]
    g = Metric.from_entries(Chart(("t", "r", "theta", "phi")),
                            {(i, i): v for i, v in enumerate(values)})
    ginv = inverse(g)
    for i, v in enumerate(values):
        r = v ** -1
        assert ginv.entry(i, i) == r and r ** -1 == v
        for e in (r, ginv.entry(i, i), v):
            assert eprod((Fraction(1, 2), e)) + eprod((e, 3)) == eprod((Fraction(7, 2), e))
            assert esum((e, (-2, e))) == -e and eprod((e, e ** -1)) == ref("1")
    assert [(v.num, v.den) for v in values] == before


def test_zero_one_by_one_block_is_degenerate():
    chart = Chart(("t", "r", "theta"))
    g = Metric.from_entries(chart, {(0, 0): ref("1"), (0, 2): ref("t"), (2, 2): ref("2")})
    assert determinant(g) == ZERO
    with pytest.raises(DegenerateMetricError):
        inverse(g)


def test_complete_lift_inverse_expands_only_two_by_two_minors(monkeypatch):
    # a fresh base metric, so no lift or inverse is kept from another test
    from liftgeo import geometry
    from liftgeo.gks import abstract_spec, build_gks
    lifted = lift_metric(build_gks(abstract_spec()), LiftKind.COMPLETE)
    sizes = []
    original = geometry._det_minor

    def recording(rows, cols, entry, memo):
        sizes.append(len(rows))
        return original(rows, cols, entry, memo)

    monkeypatch.setattr(geometry, "_det_minor", recording)
    ginv = inverse(lifted)
    assert sizes and max(sizes) <= 2
    assert matrix_mul(lifted.components, ginv.components) == identity_matrix(8)


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
    m = parse_metric_document(DOC)
    assert m.chart.coords == ("t", "r", "theta", "phi")
    assert m.entry(0, 0) == ref("1")
    assert m.entry(1, 1) == ref("-X(t)^2")
    # concrete body expands on the spot
    assert m.entry(3, 3) == ref("-Y(t)^2*sin(theta)^2")
    assert m.entry(0, 1) == ZERO
    assert validate(m) == []


def test_metric_file_mirrors_offdiagonal():
    m = parse_metric_document("chart t r\ng 1 2 = t\n")
    assert m.entry(0, 1) == m.entry(1, 0) == ref("t")


def test_metric_file_tolerates_equal_duplicates():
    m = parse_metric_document("chart t r\ng 1 2 = t\ng 2 1 = t\n")
    assert m.entry(1, 0) == ref("t")


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
    # the line only documents; it still rejects a reserved name
    m = parse_metric_document("chart t r\nconst c1\ng 1 1 = c1^2\ng 2 2 = 1\n")
    assert m.entry(0, 0) == ref("c1^2")
    with pytest.raises(MetricFileError, match="line 2: 'sin' is a reserved"):
        parse_metric_document("chart t r\nconst c1 sin\ng 1 1 = 1\n")


def test_expressions_reference_only_known_text(gks_metric):
    # canonical printing stays within the grammar: reparse every entry
    from liftgeo.expr import parse
    from conftest import full_symbols
    for i in range(4):
        for j in range(4):
            text = to_string(gks_metric.entry(i, j))
            assert parse(text, full_symbols()) == gks_metric.entry(i, j)
