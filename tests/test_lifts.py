"""The three lift metrics and their connection tables."""

import pathlib
from fractions import Fraction

import pytest

from liftgeo import _poly, lifts
from liftgeo.expr import ONE, Const, Coord, ZERO, differentiate, eprod, equivalent, esum
from liftgeo.connection import (
    christoffel, fiber_contract, metric_compatibility_residual, riemann,
)
from liftgeo.geometry import (
    Chart, Frame, GeometryError, Metric, inverse, load_metric_document,
    parse_metric_document,
)
from liftgeo.gks import abstract_spec, build_gks
from liftgeo.lifts import LiftKind, lift_connection, lift_metric

from conftest import ref


@pytest.fixture(scope="module")
def gks_conn(gks_metric):
    return christoffel(gks_metric)


def flat_metric(n=4):
    names = ("t", "r", "theta", "phi")[:n]
    return Metric(Chart(names), {(i, i): ONE for i in range(n)})


# ---------------------------------------------------------------------------
# lift metrics

def test_sasaki_blocks(gks_metric):
    lifted = lift_metric(gks_metric, LiftKind.SASAKI)
    assert lifted.frame is Frame.ADAPTED
    m = lifted
    for i in range(4):
        for j in range(4):
            assert m.entry(i, j) == gks_metric.entry(i, j)
            assert m.entry(i + 4, j + 4) == gks_metric.entry(i, j)
            assert m.entry(i, j + 4) == ZERO


def test_horizontal_blocks(gks_metric):
    lifted = lift_metric(gks_metric, LiftKind.HORIZONTAL)
    assert lifted.frame is Frame.ADAPTED
    m = lifted
    for i in range(4):
        for j in range(4):
            assert m.entry(i, j + 4) == gks_metric.entry(i, j)
            assert m.entry(i, j) == ZERO
            assert m.entry(i + 4, j + 4) == ZERO


def test_complete_lift_matrix(gks_metric):
    lifted = lift_metric(gks_metric, LiftKind.COMPLETE)
    assert lifted.frame is Frame.NATURAL
    m = lifted
    assert m.entry(1, 1) == ref("-2*u1*X(t)*X'(t)")
    assert m.entry(3, 3) == ref(
        "-(2*u1*Y(t)*Y'(t)*f(theta)^2 + 2*u3*Y(t)^2*f(theta)*f'(theta))"
    )
    assert m.entry(0, 4) == ref("1")
    assert m.entry(1, 5) == ref("-X(t)^2")
    assert m.entry(4, 4) == ZERO
    assert m.entry(0, 0) == ZERO


def test_complete_lift_of_flat_base():
    lifted = lift_metric(flat_metric(), LiftKind.COMPLETE)
    m = lifted
    for i in range(4):
        for j in range(4):
            assert m.entry(i, j) == ZERO
            assert m.entry(i + 4, j + 4) == ZERO
            assert m.entry(i, j + 4) == (ref("1") if i == j else ZERO)


def test_lift_of_lifted_metric_rejected(gks_metric):
    lifted = lift_metric(gks_metric, LiftKind.SASAKI)
    with pytest.raises(Exception):
        lift_metric(lifted, LiftKind.SASAKI)


def test_constant_named_like_a_fiber_coordinate_is_rejected():
    # the constant u1 would print, re-parse and be probed as the fiber
    # coordinate u1 of the tangent chart
    g = Metric(Chart(("t", "x")), {
        (0, 0): ref("1"), (1, 1): eprod((Const("u1"), ref("sin(t)^2"))),
    })
    conn = christoffel(g)
    refused = [lambda kind=kind: lift_metric(g, kind) for kind in LiftKind]
    refused += [lambda kind=kind: lift_connection(g, kind) for kind in LiftKind]
    refused.append(lambda: fiber_contract(riemann(conn)))
    # the lifts check the clash inside their kept builds, and a failed build
    # keeps nothing, so a second call fails again
    for build in refused + refused:
        with pytest.raises(GeometryError, match="u1"):
            build()
    assert not [key for key in g._derived if key[0] in ("lift", "lift connection")]


def test_lift_connection_reads_the_tangent_chart_once_per_build(monkeypatch):
    # a kept lift connection walks no metric value again
    g = Metric(Chart(("t", "x")), {(0, 0): ref("1"), (1, 1): ref("t^2")})
    charts = []
    tangent = Chart.tangent
    monkeypatch.setattr(Chart, "tangent",
                        lambda chart, values=(): charts.append(chart) or tangent(chart, values))
    for _ in range(3):
        for kind in LiftKind:
            lift_connection(g, kind)
    assert len(charts) == len(LiftKind)


# ---------------------------------------------------------------------------
# lift connections

def test_sasaki_connection_closed_forms(gks_metric, gks_conn):
    sconn = lift_connection(gks_metric, LiftKind.SASAKI)
    riem = riemann(gks_conn)
    # unbarred copies and the fiber copy of the base coefficients
    for (k, i, j), gamma in gks_conn.items():
        assert sconn.get(k, i, j) == gamma
        assert sconn.get(k + 4, i, j + 4) == gamma
    # curvature slot: Gamma^1bar_1,2 = -1/2 R^1_1,2,h u^h = -1/2 u2 X X''
    assert sconn.get(4, 0, 1) == ref("-1/2*u2*X(t)*X''(t)")
    # both-barred lower slots stay empty
    for (k, i, j) in sconn.coefficients:
        assert not (i >= 4 and j >= 4)


def test_horizontal_connection_closed_forms(gks_metric, gks_conn):
    hconn = lift_connection(gks_metric, LiftKind.HORIZONTAL)
    expected = {}
    for (k, i, j), gamma in gks_conn.items():
        pairs = [(i, j)] if i == j else [(i, j), (j, i)]
        for a, b in pairs:
            expected[(k, a, b)] = gamma
            expected[(k, a, b + 4)] = gamma
    assert dict(hconn.items()) == expected


OFF_DIAGONAL = {
    "polynomial": "chart t x\ng 1 1 = 1+t^2\ng 1 2 = x\ng 2 2 = 2+t\n",
    "abstract": "chart t x\nfunc A(t) abstract\nfunc B(x) abstract\n"
                "g 1 1 = A(t)\ng 1 2 = B(x)\ng 2 2 = t\n",
    "trigonometric": "chart t x\ng 1 1 = 1+t\ng 1 2 = sin(x)\ng 2 2 = -x^2\n",
}


def base_metric(name):
    """A fresh base metric, holding no lifted values yet."""
    return build_gks(abstract_spec()) if name == "gks" else parse_metric_document(OFF_DIAGONAL[name])


@pytest.mark.parametrize("name", ["gks", *OFF_DIAGONAL])
def test_complete_connection_is_the_christoffel_formula_on_the_lifted_metric(name):
    g = base_metric(name)
    assert dict(lift_connection(g, LiftKind.COMPLETE).items()) == dict(
        christoffel(lift_metric(g, LiftKind.COMPLETE)).items())


@pytest.mark.parametrize("name", ["gks", "polynomial"])
def test_complete_connection_builds_no_lifted_metric_inverse_or_christoffel(name, lifted_builds):
    g = base_metric(name)
    lift_connection(g, LiftKind.COMPLETE)
    assert lifted_builds == ["_base_block"]
    # the recorder sees the generic path build all three
    christoffel(lift_metric(g, LiftKind.COMPLETE))
    assert lifted_builds == ["_base_block", "_lift_metric", "_inverse", "_christoffel"]


def test_complete_lift_of_offdiag_needs_no_remainder_sequence(monkeypatch):
    # each value of the complete lift is one derivation along the fiber
    # field, reduced once: over offdiag's multi-term denominators that
    # reduction takes no polynomial remainder
    g = load_metric_document(pathlib.Path(__file__).parent.parent / "metrics" / "offdiag.metric")
    christoffel(g)

    def refuse(*args):
        raise AssertionError("a polynomial remainder was taken")

    monkeypatch.setattr(_poly, "_prem", refuse)
    lift_metric(g, LiftKind.COMPLETE)
    lift_connection(g, LiftKind.COMPLETE)


def test_complete_connection_general_pattern(gks_metric, gks_conn):
    cconn = lift_connection(gks_metric, LiftKind.COMPLETE)
    coords = gks_metric.chart.coords
    for k in range(8):
        for i in range(8):
            for j in range(i, 8):
                got = cconn.get(k, i, j)
                if k < 4:
                    want = gks_conn.get(k, i, j) if (i < 4 and j < 4) else ZERO
                elif i < 4 and j < 4:
                    want = esum(
                        eprod((Coord(f"u{l + 1}"),
                               differentiate(gks_conn.get(k - 4, i, j), coords[l])))
                        for l in range(4)
                    )
                elif i < 4 <= j:
                    want = gks_conn.get(k - 4, i, j - 4)
                else:
                    want = ZERO
                assert equivalent(got, want), (k, i, j)


def test_complete_lift_pair_is_metric_compatible(gks_metric):
    lifted = lift_metric(gks_metric, LiftKind.COMPLETE)
    cconn = lift_connection(gks_metric, LiftKind.COMPLETE)
    res = metric_compatibility_residual(lifted, cconn)
    assert all(v == ZERO for v in res.values())


def test_complete_lift_inverse_matches_block_form(gks_metric):
    lifted = lift_metric(gks_metric, LiftKind.COMPLETE)
    linv = inverse(lifted)
    expected = {
        (0, 4): "1",
        (1, 5): "-1/X(t)^2",
        (2, 6): "-1/Y(t)^2",
        (3, 7): "-1/(Y(t)^2*f(theta)^2)",
        (5, 5): "2*u1*X'(t)/X(t)^3",
        (6, 6): "2*u1*Y'(t)/Y(t)^3",
        (7, 7): "2*(u1*f(theta)*Y'(t) + u3*f'(theta)*Y(t))/(Y(t)^3*f(theta)^3)",
    }
    for i in range(8):
        for j in range(i, 8):
            want = ref(expected[(i, j)]) if (i, j) in expected else ZERO
            assert equivalent(linv.entry(i, j), want), (i, j)


def test_lift_connections_vanish_on_flat_base():
    flat = flat_metric()
    for kind in LiftKind:
        conn = lift_connection(flat, kind)
        assert conn.coefficients == {}


def test_sasaki_horizontal_reduce_to_base_when_curvature_vanishes():
    # polar-plane style metric: nonzero connection, identically zero curvature
    chart = Chart(("t", "r"))
    g = Metric(chart, {(0, 0): ref("1"), (1, 1): ref("t^2")})
    conn = christoffel(g)
    assert conn.coefficients  # nontrivial
    assert riemann(conn).components == {}
    sconn = lift_connection(g, LiftKind.SASAKI)
    hconn = lift_connection(g, LiftKind.HORIZONTAL)
    for (k, i, j), gamma in conn.items():
        pairs = [(i, j)] if i == j else [(i, j), (j, i)]
        for a, b in pairs:
            assert sconn.get(k, a, b) == gamma
            assert sconn.get(k + 2, a, b + 2) == gamma
            assert hconn.get(k, a, b) == gamma
            assert hconn.get(k, a, b + 2) == gamma
    # nothing outside those slots
    assert len(sconn.coefficients) == 2 * len(dict(_expand_pairs(conn)))
    assert len(hconn.coefficients) == 2 * len(dict(_expand_pairs(conn)))


def _expand_pairs(conn):
    for (k, i, j), gamma in conn.items():
        yield (k, i, j), gamma
        if i != j:
            yield (k, j, i), gamma


def test_sasaki_curvature_slots_match_the_closed_forms():
    # off-diagonal base: every slot of the three curvature families is checked
    # against its closed form (Yano-Ishihara) written out with riem.get
    g = parse_metric_document(
        "chart t x y\ng 1 1 = 1+t^2\ng 1 2 = x\ng 2 2 = 2+t\ng 2 3 = y\ng 3 3 = 3\n")
    riem = riemann(christoffel(g))
    assert len(riem.components) == 24
    sconn = lift_connection(g, LiftKind.SASAKI)
    fibers = [Coord(u) for u in ("u1", "u2", "u3")]
    half = Fraction(1, 2)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                # Gamma^k_{i jbar} = 1/2 R^k_hji u^h
                assert sconn.get(k, i, j + 3) == esum(
                    (half, u, riem.get(k, h, j, i)) for h, u in enumerate(fibers))
                # Gamma^k_{ibar j} = 1/2 R^k_hij u^h
                assert sconn.get(k, i + 3, j) == esum(
                    (half, u, riem.get(k, h, i, j)) for h, u in enumerate(fibers))
                # Gamma^kbar_ij = -1/2 R^k_ijh u^h
                assert sconn.get(k + 3, i, j) == esum(
                    (-half, u, riem.get(k, i, j, h)) for h, u in enumerate(fibers))


def test_sasaki_connection_sums_each_curvature_slot_once(monkeypatch):
    results = []
    monkeypatch.setattr(lifts, "esum", lambda terms: results.append(esum(terms)) or results[-1])
    sconn = lift_connection(build_gks(abstract_spec()), LiftKind.SASAKI)
    # one sum per (k, i, j) with a stored curvature term, none of them zero:
    # 24 for the slots (k, ibar, j), shared with (k, j, ibar), and 12 for the
    # barred-upper slots (kbar, i, j), i < j, negated for (kbar, j, i)
    assert len(results) == 36
    assert ZERO not in results
    for k in range(4):
        for i in range(4):
            for j in range(4):
                assert sconn.get(k, i + 4, j) is sconn.get(k, j, i + 4)
                assert sconn.get(k + 4, i, j) == -sconn.get(k + 4, j, i)
