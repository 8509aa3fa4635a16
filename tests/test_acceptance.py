"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. All
symbolic claims are canonical-form equalities (no numeric tolerance); all
probe-based claims use the seeded defaults (seed 0, 20 probes, zero
tolerance 1e-9, finite-difference relative tolerance 1e-6).
"""

import time

from liftgeo.cli import main
from liftgeo.expr import ZERO, equivalent, simplify
from liftgeo.connection import (
    christoffel, fiber_contract, metric_compatibility_residual, riemann,
)
from liftgeo.geometry import inverse
from liftgeo.gks import (
    COMPLETE_CONNECTION_REF, GAMMA_REF, CURVATURE_REF,
    abstract_spec, build_gks, condition_18, example_pair,
    hatted_abstract_spec, run_scenario,
)
from liftgeo.harmonicity import harmonicity_residuals
from liftgeo.lifts import LiftKind, lift_connection, lift_metric
from liftgeo.oracle import ProbeConfig, finite_difference_check

from conftest import generic_lifted_traces, ref


CFG = ProbeConfig()  # seed 0, 20 probes, zero_tol 1e-9 (and oracle.FD_REL_TOL 1e-6)


def report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_christoffel_matrices(gks_metric):
    start = time.perf_counter()
    conn = christoffel(gks_metric, cfg=CFG)
    elapsed = time.perf_counter() - start
    computed = dict(conn.items())
    assert set(computed) == set(GAMMA_REF), "unexpected nonzero coefficients"
    for key, text in GAMMA_REF.items():
        assert computed[key] == ref(text), key
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"all 8 stored coefficients reproduced, nothing else nonzero "
              f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_inverse_metrics(gks_metric):
    start = time.perf_counter()
    ginv = inverse(gks_metric, cfg=CFG)
    base_expected = {
        (0, 0): "1", (1, 1): "-1/X(t)^2", (2, 2): "-1/Y(t)^2",
        (3, 3): "-1/(Y(t)^2*f(theta)^2)",
    }
    for i in range(4):
        for j in range(4):
            want = ref(base_expected[(i, j)]) if (i, j) in base_expected else ZERO
            assert ginv.entry(i, j) == simplify(want), (i, j)
    lifted = lift_metric(gks_metric, LiftKind.COMPLETE)
    linv = inverse(lifted, cfg=CFG)
    lifted_expected = {
        (0, 4): "1", (1, 5): "-1/X(t)^2", (2, 6): "-1/Y(t)^2",
        (3, 7): "-1/(Y(t)^2*f(theta)^2)",
        (5, 5): "2*u1*X'(t)/X(t)^3", (6, 6): "2*u1*Y'(t)/Y(t)^3",
        (7, 7): "2*(u1*f(theta)*Y'(t) + u3*f'(theta)*Y(t))/(Y(t)^3*f(theta)^3)",
    }
    for i in range(8):
        for j in range(i, 8):
            want = ref(lifted_expected[(i, j)]) if (i, j) in lifted_expected else ZERO
            assert equivalent(linv.entry(i, j), want), (i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    report(2, f"4x4 and 8x8 inverses match entrywise ({elapsed * 1e3:.0f} ms)")


def test_criterion_3_base_traces(gks_metric, gks_hat_metric):
    rep = harmonicity_residuals(gks_metric, gks_hat_metric,
                                cfg=CFG)
    assert rep.residual("2") == ZERO
    assert rep.residual("4") == ZERO
    rho1 = ref(
        "-((Xh'(t)*Xh(t) - X'(t)*X(t))/X(t)^2"
        " + (Yh'(t)*Yh(t) - Y'(t)*Y(t))/Y(t)^2"
        " + (Yh'(t)*Yh(t)*fh(theta)^2 - Y'(t)*Y(t)*f(theta)^2)/(Y(t)^2*f(theta)^2))"
    )
    rho3 = ref("-(-fh(theta)*fh'(theta) + f(theta)*f'(theta))/(Y(t)^2*f(theta)^2)")
    assert equivalent(rep.residual("1"), rho1)
    assert equivalent(rep.residual("3"), rho3)
    report(3, "rho^2 = rho^4 = 0 symbolically; rho^1, rho^3 equal the two traces")


def test_criterion_4_example_pair():
    g_spec, hat_spec = example_pair()
    c1, c2 = condition_18(g_spec, hat_spec)
    assert c1 == ZERO
    assert equivalent(c2, ref("-sinh(theta)*cosh(theta) + theta"))
    rep = harmonicity_residuals(build_gks(g_spec), build_gks(hat_spec),
                                cfg=CFG)
    assert rep.verdict.kind == "not_harmonic"
    assert rep.verdict.witness is not None
    assert abs(rep.verdict.value) > CFG.zero_tol
    report(4, "conditions (0, -sinh*cosh + theta); not harmonic with witness "
              f"value {rep.verdict.value:.4g}")


def test_criterion_5_curvature_table(gks_metric):
    contracted = fiber_contract(riemann(christoffel(gks_metric)))
    assert set(contracted) == set(CURVATURE_REF)
    for key, text in CURVATURE_REF.items():
        assert equivalent(contracted[key], ref(text)), key
    report(5, "all twelve fiber-contracted components match, zero mismatches")


def _unmatched(lift_name):
    """Entries that fail to match in the lift's scenario (its lift identities
    on the abstract family) or in theorem-equivalence (the exact trace-
    condition identity); the lift theorem is the two composed."""
    bad = []
    for name in (lift_name, "theorem-equivalence"):
        (scenario,) = run_scenario(name, CFG)
        bad += [(name, e.name) for e in scenario.entries if e.status != "match"]
    return bad


def test_criterion_6_sasaki(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric,
                                 cfg=CFG)
    lifted = generic_lifted_traces(gks_metric, gks_hat_metric, LiftKind.SASAKI,
                                   cfg=CFG)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(f"{k}bar") == ZERO, f"barred residual {k}bar"
        assert equivalent(lifted.residual(k), base.residual(k))
    bad = _unmatched("sasaki")
    assert not bad, f"counterexamples: {bad}"
    report(6, "barred residuals zero, unbarred equal base; the lift identities "
              "and the exact trace-condition identity hold on the abstract family")


def test_criterion_7_horizontal(gks_metric, gks_hat_metric):
    base = harmonicity_residuals(gks_metric, gks_hat_metric,
                                 cfg=CFG)
    lifted = generic_lifted_traces(gks_metric, gks_hat_metric, LiftKind.HORIZONTAL,
                                   cfg=CFG)
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(k) == simplify(base.residual(k))
        assert lifted.residual(f"{k}bar") == ZERO
    bad = _unmatched("horizontal")
    assert not bad, f"counterexamples: {bad}"
    report(7, "lifted residuals equal base residuals exactly; trace-condition "
              "identity exact on the abstract family")


def test_criterion_8_complete_connection_table(gks_metric):
    conn = lift_connection(gks_metric, LiftKind.COMPLETE,
                           cfg=CFG)
    mismatched = []
    for key, text in COMPLETE_CONNECTION_REF.items():
        diff = simplify(conn.get(*key) - ref(text))
        if diff != ZERO:
            mismatched.append((key, diff))
    assert mismatched == [((5, 0, 1), ref("-2*u1*X'(t)^2/X(t)^2"))]
    # computed value is u1*(X X'' - X'^2)/X^2, the u-linear derivative form
    assert conn.get(5, 0, 1) == ref("u1*(X(t)*X''(t) - X'(t)^2)/X(t)^2")
    (scenario,) = run_scenario("complete-table", CFG)
    annotated = [e for e in scenario.entries if e.status == "mismatch"]
    assert len(annotated) == 1 and annotated[0].annotated
    assert annotated[0].name == "Gamma^2bar_1,2"
    assert scenario.passed
    # the generic connection satisfies the u-linear general pattern
    pattern = [e for e in scenario.entries if e.name == "general-pattern"]
    assert pattern and pattern[0].status == "match"
    report(8, "one annotated discrepancy at Gamma^2bar_1,2 (difference "
              "-2*u1*X'^2/X^2); general pattern holds symbolically")


def test_criterion_9_complete_theorem(gks_metric, gks_hat_metric):
    bad = _unmatched("complete")
    assert not bad, f"counterexamples: {bad}"
    base = harmonicity_residuals(gks_metric, gks_hat_metric,
                                 cfg=CFG)
    lifted = generic_lifted_traces(gks_metric, gks_hat_metric, LiftKind.COMPLETE,
                                   cfg=CFG)
    c1, c2 = condition_18(abstract_spec(), hatted_abstract_spec())
    # base residuals are rational multiples of the two obstructions ...
    assert equivalent(base.residual("1"), simplify(-c1))
    assert equivalent(base.residual("3"),
                      simplify(-c2 / ref("Y(t)^2*f(theta)^2")))
    # ... and the lifted residuals are twice the base residuals
    for k in ("1", "2", "3", "4"):
        assert lifted.residual(k) == ZERO
        assert equivalent(lifted.residual(f"{k}bar"),
                          simplify(2 * base.residual(k)))
    report(9, "the lift identities and the exact trace-condition identity hold "
              "on the abstract family; lifted residuals are scalar multiples of "
              "the two obstructions")


def test_criterion_10_property_suite(gks_metric, sphere_metric, flat4_metric,
                                     example_metrics, capsys):
    corpus = [gks_metric, sphere_metric, flat4_metric, *example_metrics]
    for metric in corpus:
        conn = christoffel(metric, cfg=CFG)
        n = metric.dim
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    assert conn.get(k, i, j) == conn.get(k, j, i)
        residual = metric_compatibility_residual(metric, conn)
        assert all(v == ZERO for v in residual.values())
        riem = riemann(conn)
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert riem.get(h, i, j, k) == simplify(-riem.get(h, j, i, k))
                        bianchi = simplify(
                            riem.get(h, i, j, k) + riem.get(h, j, k, i)
                            + riem.get(h, k, i, j)
                        )
                        assert bianchi == ZERO
        for value in list(conn.coefficients.values()) + list(riem.components.values()):
            for coord in metric.chart.coords:
                res = finite_difference_check(value, coord, CFG)
                assert res.passed, (value, coord, res.worst_rel_error)

    start = time.perf_counter()
    code = main(["paper-check", "--scenario", "all"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # swallow the CLI report
    assert code == 0
    assert elapsed < 30.0, f"paper-check all took {elapsed:.1f}s"
    report(10, f"structural and differential invariants hold on the corpus; "
               f"paper-check --scenario all passed in {elapsed:.1f}s")
