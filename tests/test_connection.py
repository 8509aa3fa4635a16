"""Christoffel coefficients, curvature, fiber contraction, compatibility."""

import re
from fractions import Fraction

import pytest

from liftgeo import _poly
from liftgeo.expr import ONE, Normal, ZERO, equivalent, esum, simplify
from liftgeo.connection import (
    Connection, Riemann, christoffel, fiber_contract, metric_compatibility_residual, riemann,
)
from liftgeo.geometry import Chart, Frame, GeometryError, Metric

from conftest import ref

GKS_GAMMA = {
    (0, 1, 1): "X(t)*X'(t)",
    (0, 2, 2): "Y(t)*Y'(t)",
    (0, 3, 3): "Y(t)*Y'(t)*f(theta)^2",
    (1, 0, 1): "X'(t)/X(t)",
    (2, 0, 2): "Y'(t)/Y(t)",
    (2, 3, 3): "-f(theta)*f'(theta)",
    (3, 0, 3): "Y'(t)/Y(t)",
    (3, 2, 3): "f'(theta)/f(theta)",
}


@pytest.fixture(scope="module")
def gks_conn(gks_metric):
    return christoffel(gks_metric)


@pytest.fixture(scope="module")
def gks_riemann(gks_conn):
    return riemann(gks_conn)


@pytest.fixture(scope="module")
def sphere_conn(sphere_metric):
    return christoffel(sphere_metric)


def test_gks_christoffel_matches_closed_forms(gks_conn):
    computed = dict(gks_conn.items())
    assert set(computed) == set(GKS_GAMMA)
    for key, text in GKS_GAMMA.items():
        assert computed[key] == ref(text), key


def test_euclidean_christoffel_vanishes():
    g = Metric(Chart(("t", "r", "theta", "phi")), {(i, i): ONE for i in range(4)})
    assert christoffel(g).coefficients == {}


def test_round_sphere_christoffel(sphere_conn):
    # hand evaluation of the defining formula on dtheta^2 + sin^2 dphi^2
    assert sphere_conn.get(0, 1, 1) == ref("-sin(theta)*cos(theta)")
    assert sphere_conn.get(1, 0, 1) == ref("cos(theta)/sin(theta)")
    assert len(sphere_conn.coefficients) == 2


def test_lower_index_symmetry_is_structural(gks_conn):
    for k in range(4):
        for i in range(4):
            for j in range(4):
                assert gks_conn.get(k, i, j) == gks_conn.get(k, j, i)


def test_adapted_frames_rejected_by_christoffel(gks_metric):
    from liftgeo.lifts import LiftKind, lift_metric
    lifted = lift_metric(gks_metric, LiftKind.SASAKI)
    with pytest.raises(GeometryError):
        christoffel(lifted)


def test_flat_curvature_vanishes():
    g = Metric(Chart(("t", "r", "theta", "phi")), {(i, i): ONE for i in range(4)})
    assert riemann(christoffel(g)).components == {}


def test_gks_curvature_component(gks_riemann):
    assert gks_riemann.get(0, 0, 1, 1) == ref("X(t)*X''(t)")


def test_riemann_antisymmetry(gks_riemann):
    for h in range(4):
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    lhs = gks_riemann.get(h, i, j, k)
                    rhs = simplify(-gks_riemann.get(h, j, i, k))
                    assert lhs == rhs


@pytest.mark.parametrize("key", [(0, 1, 1, 0), (0, 1, 0, 0), (0, 0, 2, 0), (2, 0, 1, 0),
                                 (0, 0, 1, -1)])
def test_riemann_accepts_only_its_antisymmetric_pair_in_order(key):
    # an i = j key would be dropped, an i > j key could overwrite its i < j
    # partner and an index outside the chart would be kept; all are refused
    # by name, whatever the value
    chart = Chart(("t", "x"))
    for value in (ref("t"), ZERO):
        with pytest.raises(GeometryError, match=re.escape(f"Riemann refuses key {key} on chart")):
            Riemann(chart, {(0, 0, 1, 0): ref("t"), key: value})
    assert Riemann(chart, {(0, 0, 1, 0): ref("t"), (1, 0, 1, 1): ZERO}).components == {
        (0, 0, 1, 0): ref("t")}


PLANE = Chart(("t", "x"))


@pytest.mark.parametrize("build, name, outside, unstored, one, apart, zero", [
    # the record's build and name; a key with an index outside the chart; an
    # in-chart key stored in no form; two keys stored as one; two keys stored
    # apart though they differ only in order; a key to give the value 0
    (lambda e: Metric(PLANE, e), "Metric", (0, 2), None, ((0, 1), (1, 0)), None, (1, 1)),
    (lambda e: Connection(PLANE, e), "Connection", (7, 0, 0), None,
     ((0, 0, 1), (0, 1, 0)), None, (1, 1, 1)),
    (lambda e: Connection(PLANE.tangent(), e, Frame.ADAPTED), "Connection", (0, 4, 0), None,
     None, ((0, 0, 3), (0, 3, 0)), (1, 1, 1)),
    (lambda e: Riemann(PLANE, e), "Riemann", (0, 0, 1, 2), (0, 1, 0, 0), None, None,
     (1, 0, 1, 1)),
], ids=["metric", "natural-connection", "adapted-connection", "riemann"])
def test_one_placement_rule_for_every_index_keyed_record(build, name, outside, unstored, one,
                                                        apart, zero):
    t, two_t = ref("t"), ref("2*t")
    # a refused key (one index too few or too many among them) is refused by
    # name, with its chart (the plane or its tangent chart), whatever its value
    for key in (outside, zero[:-1], zero + (0,)) + ((unstored,) if unstored else ()):
        for value in (t, ZERO):
            with pytest.raises(GeometryError, match=re.escape(
                    f"{name} refuses key {key} on chart ('t', 'x'")):
                build({key: value})
    if one:
        a, b = one
        # one stored component takes one value: a different second value,
        # 0 too, is refused; an equal one, compared as a canonical value, is
        # accepted, as the complete lift writes both orders of a natural slot
        for value in (two_t, ZERO):
            with pytest.raises(GeometryError, match=re.escape(f"{name} refuses keys {a} and {b}")):
                build({a: t, b: value})
        assert dict(build({a: t, b: t}).items()) == {a: t}
        assert dict(build({a: ref("2*t - t"), b: t}).items()) == {a: t}
    if apart:
        a, b = apart
        assert dict(build({a: t, b: two_t}).items()) == {a: t, b: two_t}
    # a zero is dropped once its key is placed
    assert dict(build({zero: ZERO}).items()) == {}


@pytest.mark.parametrize("record", [
    lambda chart, frame: Metric(chart, {(0, 0): ONE, (1, 1): ONE}, frame),
    lambda chart, frame: Connection(chart, {(0, 0, 1): ref("t")}, frame),
], ids=["metric", "connection"])
def test_adapted_frames_live_on_tangent_charts_only(record):
    # a Metric and a Connection agree on where an adapted frame may live
    with pytest.raises(GeometryError, match="adapted frames only exist on tangent charts"):
        record(PLANE, Frame.ADAPTED)
    assert record(PLANE.tangent(), Frame.ADAPTED).frame is Frame.ADAPTED
    assert record(PLANE, Frame.NATURAL).frame is Frame.NATURAL


def test_first_bianchi(gks_riemann, sphere_metric):
    sph = riemann(christoffel(sphere_metric))
    for riem, n in ((gks_riemann, 4), (sph, 2)):
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        total = esum((
                            riem.get(h, i, j, k),
                            riem.get(h, j, k, i),
                            riem.get(h, k, i, j),
                        ))
                        assert total == ZERO


def test_sphere_constant_curvature_oracle(sphere_metric):
    # unit sphere: g_hm R^m_ijk == g_hi g_kj - g_hj g_ki for every slot
    riem = riemann(christoffel(sphere_metric))
    g = sphere_metric
    for h in range(2):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    lowered = esum(
                        g.entry(h, m) * riem.get(m, i, j, k) for m in range(2)
                    )
                    want = simplify(
                        g.entry(h, i) * g.entry(k, j) - g.entry(h, j) * g.entry(k, i)
                    )
                    assert equivalent(lowered, want), (h, i, j, k)
    # the (theta, theta, phi, phi) slot carries the classical sin^2 value
    lowered = esum(g.entry(0, m) * riem.get(m, 0, 1, 1) for m in range(2))
    assert lowered == ref("sin(theta)^2")


def test_fiber_contraction_entries(gks_riemann):
    fc = fiber_contract(gks_riemann)
    assert fc[(1, 0, 1)] == ref("u1*X''(t)/X(t)")
    assert fc[(2, 1, 2)] == ref("-u2*X(t)*X'(t)*Y'(t)/Y(t)")
    assert len(fc) == 12


def test_a_number_times_a_contraction_takes_no_reduction(gks_riemann, monkeypatch):
    # the barred Sasaki slots -1/2 R^k_ij0 and 1/2 R^k_ij0: scaling the
    # numerator of a reduced pair keeps it reduced
    fc = fiber_contract(gks_riemann)
    calls = []
    f_make = _poly.f_make
    monkeypatch.setattr(_poly, "f_make", lambda *a: calls.append(a) or f_make(*a))
    halves = {key: v * Fraction(1, 2) for key, v in fc.items()}
    monkeypatch.undo()
    assert len(halves) == 12 and calls == []
    for key, v in fc.items():
        assert halves[key] == Normal(_poly.f_make(_poly.p_scale(v.num, Fraction(1, 2)), v.den))


def test_fiber_contraction_of_flat_is_empty():
    g = Metric(Chart(("t", "r")), {(i, i): ONE for i in range(2)})
    assert fiber_contract(riemann(christoffel(g))) == {}


def test_compatibility_residual_vanishes_for_levi_civita(gks_metric, gks_conn):
    res = metric_compatibility_residual(gks_metric, gks_conn)
    assert all(v == ZERO for v in res.values())


def test_compatibility_residual_flags_zero_connection(gks_metric):
    from liftgeo.connection import Connection
    zero_conn = Connection(gks_metric.chart, {})
    res = metric_compatibility_residual(gks_metric, zero_conn)
    # d_t g_22 = -2 X X' survives
    assert res[(0, 1, 1)] == ref("-2*X(t)*X'(t)")


def test_compatibility_residual_flat_zero_connection():
    from liftgeo.connection import Connection
    g = Metric(Chart(("t", "r")), {(i, i): ONE for i in range(2)})
    res = metric_compatibility_residual(g, Connection(g.chart, {}))
    assert all(v == ZERO for v in res.values())


def test_concurrent_first_use_shares_one_value():
    import sys
    import threading
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = Metric(Chart(("theta", "phi")), {
                (0, 0): ref("1"), (1, 1): ref("sin(theta)^2"),
            })
            results = []
            barrier = threading.Barrier(4, timeout=30)

            def work():
                barrier.wait()
                results.append(riemann(christoffel(g)))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 4
            assert all(r is results[0] for r in results)
            assert results[0] is riemann(christoffel(g))
    finally:
        sys.setswitchinterval(previous)


def test_christoffel_assembles_each_component_once(monkeypatch):
    # a fresh base metric, so no lift, inverse or connection is kept from
    # another test
    from liftgeo import _poly, connection
    from liftgeo.geometry import inverse
    from liftgeo.gks import abstract_spec, build_gks
    from liftgeo.lifts import LiftKind, lift_metric
    lifted = lift_metric(build_gks(abstract_spec()), LiftKind.COMPLETE)
    ginv = inverse(lifted)
    calls = []
    f_make = _poly.f_make
    monkeypatch.setattr(_poly, "f_make", lambda *a: calls.append(a) or f_make(*a))
    conn = connection._christoffel(lifted, ginv)
    assert len(calls) <= 100
    assert all(v == ZERO for v in metric_compatibility_residual(lifted, conn).values())


# atom derivations of the abstract GKS metric's assemblies: each atom is
# derived once per coordinate in an assembly, not once per value
CHRISTOFFEL_ATOM_DERIVATIONS = 20
RIEMANN_ATOM_DERIVATIONS = 32


def test_each_atom_is_derived_once_per_coordinate_per_assembly(monkeypatch):
    # a fresh base metric, so no connection or curvature is kept from another test
    from liftgeo import expr
    from liftgeo.gks import abstract_spec, build_gks
    g = build_gks(abstract_spec())
    calls = []
    d_atom = expr._d_atom
    monkeypatch.setattr(expr, "_d_atom",
                        lambda key, field, memo: calls.append((key, id(field))) or
                        d_atom(key, field, memo))
    conn = christoffel(g)
    assert len(calls) == CHRISTOFFEL_ATOM_DERIVATIONS
    assert len(set(calls)) == len(calls)
    calls.clear()
    riemann(conn)
    assert len(calls) == RIEMANN_ATOM_DERIVATIONS
    assert len(set(calls)) == len(calls)
