"""Charts, metrics, exact inverse/determinant, validation, metric files."""

from fractions import Fraction

import pytest

from liftgeo.expr import (
    ONE, ZERO, Const, Coord, FuncSymbol, ProbeConfig, eprod, equivalent, simplify, to_string,
)
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
    # the fiber coordinates of a two-dimensional chart are u1, u2; a
    # coordinate, a constant or a function named like one gets one message
    for chart, values in ((Chart(("t", "u1")), ()),
                          (Chart(("t", "x")), [eprod((Const("u1"), Coord("t")))]),
                          (Chart(("t", "x")), [FuncSymbol("u1", "t").app(), Coord("x")])):
        with pytest.raises(GeometryError) as err:
            chart.tangent(values)
        assert str(err.value) == ("coordinate, constant or function name(s) ['u1'] are "
                                  "reserved for the fiber coordinates of the tangent chart")


def test_tangent_chart_supplies_its_fiber_coordinates():
    chart = Chart(("t", "x"))
    assert chart.tangent([Coord("t")]).fibers == (simplify(Coord("u1")), simplify(Coord("u2")))
    assert chart.fibers == ()


def test_metric_shape_checked():
    # an entry's 0-based index must lie in the chart's matrix
    chart = Chart(("t", "r"))
    for key in ((0, 2), (2, 2), (-1, 0)):
        with pytest.raises(GeometryError, match=r"outside the 2x2 matrix"):
            Metric(chart, {(0, 0): ONE, key: ONE})
    with pytest.raises(GeometryError, match="adapted"):
        Metric(chart, {(0, 0): ONE, (1, 1): ONE}, Frame.ADAPTED)


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
    g = Metric(Chart(("t", "r", "theta", "phi")), {(i, i): ONE for i in range(4)})
    assert inverse(g).components == identity_matrix(4)


def test_inverse_involution(gks_metric, sphere_metric, example_metrics):
    for g in (gks_metric, sphere_metric) + example_metrics:
        assert inverse(inverse(g)).components == g.components


def test_determinant_of_gks(gks_metric):
    # product of the diagonal entries: 1 * (-X^2) * (-Y^2) * (-Y^2 f^2)
    assert determinant(gks_metric) == ref("-X(t)^2*Y(t)^4*f(theta)^2")


def test_determinant_of_identity():
    g = Metric(Chart(("t", "r", "theta", "phi")), {(i, i): ONE for i in range(4)})
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
    g = Metric(chart, {(0, 0): ref("1")})  # zero row
    with pytest.raises(DegenerateMetricError):
        inverse(g)


def test_inconclusive_determinant_refused_with_diagnostic():
    # symbolically nonzero but numerically zero under the opaque-trig policy
    chart = Chart(("theta", "x"))
    g = Metric(chart, {
        (0, 0): ref("theta*sin(theta)^2 + theta*cos(theta)^2 - theta"),
        (1, 1): ref("1"),
    })
    with pytest.raises(DegenerateMetricError, match="inconclusive"):
        inverse(g)


def test_nondegeneracy_verdict_is_kept_per_probe_setting(monkeypatch):
    # the determinant's zero test runs once per metric and ProbeConfig, and
    # every call is judged by the verdict of its own setting: a second
    # setting tests again, and an uncertifiable metric fails on every call
    from liftgeo import expr
    from liftgeo.connection import christoffel
    tested = []
    zero_test = expr.is_identically_zero
    monkeypatch.setattr(expr, "is_identically_zero",
                        lambda e, cfg: tested.append(cfg) or zero_test(e, cfg=cfg))
    g = Metric(Chart(("t", "x")), {(0, 0): ref("1"), (1, 1): ref("t^2")})
    seed3 = ProbeConfig(seed=3)
    for cfg in (ProbeConfig(), seed3, ProbeConfig()):
        inverse(g, cfg=cfg)
        christoffel(g, cfg=cfg)
        lift_connection(g, LiftKind.COMPLETE, cfg=cfg)
        assert validate(g, cfg=cfg) == []
    assert tested == [ProbeConfig(), seed3]

    # the same verdict that a fresh zero test under each setting reaches
    tested.clear()
    g = Metric(Chart(("theta", "x")), {
        (0, 0): ref("theta*sin(theta)^2 + theta*cos(theta)^2 - theta"),
        (1, 1): ref("1"),
    })
    for cfg in (ProbeConfig(), seed3) * 2:
        assert zero_test(determinant(g), cfg=cfg).is_unknown
        for build in (inverse, christoffel):
            with pytest.raises(DegenerateMetricError, match="inconclusive"):
                build(g, cfg=cfg)
        with pytest.raises(DegenerateMetricError, match="inconclusive"):
            lift_connection(g, LiftKind.COMPLETE, cfg=cfg)
        assert validate(g, cfg=cfg) == [
            "nondegeneracy is inconclusive (determinant zero-test unknown)"
        ]
    assert tested == [ProbeConfig(), seed3]


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
        g = Metric(chart, {key: ref(text) for key, text in entries.items()})
        assert _blocks(g) == blocks
        n = chart.dim
        assert matrix_mul(g.components, inverse(g).components) == identity_matrix(n)
        block_of = {i: b for b in _blocks(g) for i in b}
        assert all(inverse(g).entry(i, j) == ZERO
                   for i in range(n) for j in range(n) if j not in block_of[i])
        idx = tuple(range(n))
        assert determinant(g) == _det_minor(idx, idx, g.entry, {})


def test_a_two_by_two_block_builds_its_upper_adjugate_triangle(monkeypatch):
    # the adjugate of a symmetric block is symmetric: each BLOCK_METRICS
    # case has one 2x2 block, whose inverse builds 3 adjugate entries, not
    # 4, and its 1x1 blocks build none
    from liftgeo import geometry
    for coords, entries, _ in BLOCK_METRICS:
        g = Metric(Chart(coords), {key: ref(text) for key, text in entries.items()})
        built = []
        eprod = geometry.eprod
        monkeypatch.setattr(geometry, "eprod", lambda fs: built.append(fs) or eprod(fs))
        ginv = geometry._inverse(g)
        monkeypatch.undo()
        assert len(built) == 3
        assert matrix_mul(g.components, ginv.components) == identity_matrix(g.dim)
        assert ginv == inverse(g)


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
    calls = count_poly_calls(monkeypatch)
    ginv = geometry._inverse(g)
    monkeypatch.undo()
    assert calls == {"p_mul": 0, "f_make": 0}
    assert matrix_mul(g.components, ginv.components) == identity_matrix(g.dim)


def test_shared_pairs_are_never_mutated():
    # a reciprocal, a 1x1 inverse entry and an esum result may share the
    # dicts of the value they read
    from liftgeo.expr import eprod, esum
    values = [ref(text) for text in ("X(t)^2/(2*t)", "-3/t^2", "t/(1 + t)", "X(t)/t^2")]
    before = [(dict(v.num), dict(v.den)) for v in values]
    g = Metric(Chart(("t", "r", "theta", "phi")),
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
    g = Metric(chart, {(0, 0): ref("1"), (0, 2): ref("t"), (2, 2): ref("2")})
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


def test_asymmetric_entries_are_refused_at_construction():
    # g_12 = t, g_21 = 2t: the determinant would read both triangles and
    # every other operation the upper one, so no Metric holds the pair
    chart = Chart(("t", "x"))
    with pytest.raises(GeometryError, match=r"entries \(0, 1\) and \(1, 0\) differ"):
        Metric(chart, {(0, 0): ref("1"), (0, 1): ref("t"), (1, 0): ref("2*t"), (1, 1): ref("1")})
    # equal mirrored entries are one entry, compared as canonical values
    g = Metric(chart, {(0, 0): ref("1"), (0, 1): ref("t"), (1, 0): ref("2*t - t"),
                       (1, 1): ref("1")})
    assert g == Metric(chart, {(0, 0): ref("1"), (0, 1): ref("t"), (1, 1): ref("1")})
    assert g.entry(1, 0) == g.entry(0, 1) == ref("t")
    assert determinant(g) == ref("1 - t^2")


def test_validate_flags_foreign_coordinate():
    chart = Chart(("t", "r"))
    g = Metric(chart, {(0, 0): ref("1"), (1, 1): ref("theta^2")})
    issues = validate(g)
    assert any("chart-closure" in msg for msg in issues)


def test_validate_flags_degenerate():
    chart = Chart(("t", "r"))
    g = Metric(chart, {(0, 0): ref("1")})
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


@pytest.mark.parametrize("text, line, message", [
    ("chart t r\nchart t r\n", 2, "duplicate chart line"),
    ("# no coordinates\nchart\n", 2, "chart needs at least one coordinate"),
    ("chart t\nfunc X abstract\n", 2, "expected: func NAME(coordinate) ..."),
    ("chart t\nfunc X(t(t)) abstract\n", 2, "expected: func NAME(coordinate) ..."),
    ("chart t\ng 1 1 = 1\nfunc X(t) concrete\n", 3,
     "expected 'abstract' or '= EXPR' after func declaration"),
    ("chart t\ng 1 1 1\n", 2, "expected: g I J = EXPR"),
])
def test_metric_file_line_errors(text, line, message):
    with pytest.raises(MetricFileError) as err:
        parse_metric_document(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


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
