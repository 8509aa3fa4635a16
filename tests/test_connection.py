"""Christoffel coefficients, curvature, fiber contraction, compatibility."""

import pytest

from liftgeo.expr import ZERO, equivalent, esum, simplify
from liftgeo.connection import (
    christoffel, fiber_contract, metric_compatibility_residual, riemann,
)
from liftgeo.geometry import Chart, GeometryError, Metric, identity_matrix

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
    g = Metric(Chart(("t", "r", "theta", "phi")), identity_matrix(4))
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
        christoffel(lifted.metric)


def test_flat_curvature_vanishes():
    g = Metric(Chart(("t", "r", "theta", "phi")), identity_matrix(4))
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


def test_fiber_contraction_of_flat_is_empty():
    g = Metric(Chart(("t", "r")), identity_matrix(2))
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
    g = Metric(Chart(("t", "r")), identity_matrix(2))
    res = metric_compatibility_residual(g, Connection(g.chart, {}))
    assert all(v == ZERO for v in res.values())


def test_concurrent_first_use_shares_one_value():
    import sys
    import threading
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = Metric.from_entries(Chart(("theta", "phi")), {
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
