"""Finite-difference checks and reference-table reconciliation."""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from liftgeo import _poly, cli, oracle
from liftgeo.expr import ZERO, Coord, differentiate, esum, eval_numeric, to_string
from liftgeo.connection import christoffel, riemann
from liftgeo.geometry import load_metric_document
from liftgeo.oracle import (
    InconclusiveError, OracleError, ProbeConfig, finite_difference_check,
    reconcile_with_paper,
)

from conftest import ref


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(probes=0)
    with pytest.raises(ValueError):
        ProbeConfig(zero_tol=0.0)
    cfg = ProbeConfig(seed=5, probes=7)
    assert cfg.seed == 5
    assert cfg.probes == 7


@pytest.mark.parametrize("field", ["zero_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_probe_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match="finite"):
        ProbeConfig(**{field: value})


def test_fd_check_on_analytic_function():
    res = finite_difference_check(ref("sinh(theta)"), "theta")
    assert res.passed
    assert res.worst_rel_error < 1e-8
    assert res.probes_used == 20


def test_fd_check_fails_on_a_slightly_wrong_derivative(monkeypatch):
    # the oracle evaluates the unreduced pair of _d_nf; scale its numerator
    exact = oracle._d_nf

    def wrong(fr, field, memo):
        num, den = exact(fr, field, memo)
        return _poly.p_scale(num, Fraction(10001, 10000)), den

    monkeypatch.setattr(oracle, "_d_nf", wrong)
    for text, v in (("sinh(theta)", "theta"), ("X'(t)/X(t)", "t")):
        res = finite_difference_check(ref(text), v)
        assert not res.passed
        assert res.worst_rel_error > 1e-5


def test_fd_check_with_abstract_standins():
    res = finite_difference_check(ref("X(t)^2"), "t")
    assert res.passed
    # stand-ins give X' genuine functional meaning, so quotients work too
    res = finite_difference_check(ref("X'(t)/X(t)"), "t")
    assert res.passed


def test_fd_check_takes_a_jet_at_the_value_of_its_argument():
    # X(t^2) has derivative 2*t*X'(t^2): a jet bound at t instead of t^2
    # gives the difference quotient and the derivative different functions
    for text in ("X(t^2)", "X(2*t)", "X'(t^2)*X(t)"):
        assert finite_difference_check(ref(text), "t").passed, text


def _standin(name: str, seed: int):
    """The stand-in of the abstract function name as a value in t: the
    degree-4 polynomial whose coefficients, lowest degree first, are drawn
    from the seed and the name."""
    rng = random.Random((seed & 0xFFFFFFFF) * 1000003 + sum(map(ord, name)))
    return esum((Fraction(rng.randint(4, 16), 8), Coord("t") ** d) for d in range(5))


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_standin_jets_are_the_derivatives_of_the_standin(seed):
    jet = oracle._standin_jet(ProbeConfig(seed=seed))
    for name in ("X", "Y", "f"):
        value = _standin(name, seed)
        for order in range(6):
            for x in (0.5, 1.3, 2.0, -0.7):
                expected = eval_numeric(value, {"t": x})
                assert jet((name, order), x) == pytest.approx(expected, rel=1e-14, abs=0.0)
            value = differentiate(value, "t")


def test_fd_check_respects_safe_domain():
    # 1/theta is fine away from 0; the default interval stays away from it
    res = finite_difference_check(ref("1/theta"), "theta")
    assert res.passed


def test_fd_check_deterministic():
    a = finite_difference_check(ref("X(t)^3/Y(t)"), "t", ProbeConfig(seed=11))
    b = finite_difference_check(ref("X(t)^3/Y(t)"), "t", ProbeConfig(seed=11))
    assert a == b


def test_fd_check_inconclusive_when_every_probe_is_singular():
    # -q0^2 < 0 at every probe point, so log is outside its domain there
    with pytest.raises(InconclusiveError):
        finite_difference_check(ref("log(-q0^2) + t"), "t")


def test_fd_check_passes_for_gks_connection_and_curvature(gks_metric):
    cfg = ProbeConfig()
    conn = christoffel(gks_metric)
    riem = riemann(conn)
    targets = list(conn.coefficients.values()) + list(riem.components.values())
    for value in targets:
        for coord in ("t", "theta"):
            res = finite_difference_check(value, coord, cfg)
            assert res.passed, (value, coord, res.worst_rel_error)


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def fd_prems(monkeypatch):
    """The pseudo-remainders taken while finite_difference_check runs, called
    directly or from the CLI's verify. The oracle only evaluates a derivative,
    so it needs no gcd: the first one is recorded, even where a caller would
    catch the error, and raised, so a long gcd fails the test at once."""
    calls = []
    checking = []
    prem, check = _poly._prem, oracle.finite_difference_check

    def counting(a, b):
        if checking:
            calls.append(None)
            raise AssertionError("a pseudo-remainder in the finite-difference stage")
        return prem(a, b)

    def flagged(*args):
        checking.append(None)
        try:
            return check(*args)
        finally:
            checking.pop()

    monkeypatch.setattr(_poly, "_prem", counting)
    monkeypatch.setattr(oracle, "finite_difference_check", flagged)
    monkeypatch.setattr(cli, "finite_difference_check", flagged)
    return calls


def test_fd_check_takes_no_gcd_on_gks_connection_and_curvature(fd_prems):
    # counts, not a wall time: reduced derivatives took 5 pseudo-remainders
    metric = load_metric_document(ROOT / "metrics" / "gks.metric")
    conn = christoffel(metric)
    riem = riemann(conn)
    for value in [*conn.coefficients.values(), *riem.components.values()]:
        for coord in metric.chart.coords:
            assert oracle.finite_difference_check(value, coord, ProbeConfig(seed=5)).passed
    assert fd_prems == []


def test_verify_takes_no_gcd_in_the_fd_stage_of_an_offdiagonal_metric(fd_prems, monkeypatch):
    # reducing these derivatives over multi-term denominators took minutes
    monkeypatch.chdir(ROOT)
    assert cli.main(["verify", "metrics/offdiag.metric", "--seed", "5"]) == 0
    assert fd_prems == []


def test_reconcile_empty_maps():
    assert reconcile_with_paper({}, {}) == ()


def test_reconcile_matching_tables(gks_metric, monkeypatch):
    # the expected values are equal to the computed ones but built apart; a
    # match builds no difference, so no sum is made
    from liftgeo import expr
    conn = christoffel(gks_metric)
    computed = {conn.display_key(*key): v for key, v in conn.items()}
    expected = {name: ref(to_string(v)) for name, v in computed.items()}
    sums = []
    esum = expr.esum
    monkeypatch.setattr(expr, "esum", lambda terms: sums.append(terms) or esum(terms))
    entries = reconcile_with_paper(computed, expected)
    assert [e.name for e in entries] == sorted(computed)
    assert all(e.status == "match" and e.difference is None for e in entries)
    assert sums == []


def test_reconcile_flags_mismatch_with_witness():
    computed = {"entry": ref("u1*(X(t)*X''(t) - X'(t)^2)/X(t)^2")}
    expected = {"entry": ref("u1*(X(t)*X''(t) + X'(t)^2)/X(t)^2")}
    (entry,) = reconcile_with_paper(computed, expected)
    assert entry.status == "mismatch"
    assert entry.difference == "-2*u1*X'(t)^2/X(t)^2"
    assert entry.witness is not None and entry.value is not None


def test_reconcile_surfaces_unknown_as_inconclusive():
    computed = {"trig": ref("sin(theta)^2 + cos(theta)^2")}
    expected = {"trig": ref("1")}
    (entry,) = reconcile_with_paper(computed, expected)
    assert entry.status == "inconclusive"
    assert entry.difference == "-1 + cos(theta)^2 + sin(theta)^2"
    assert entry.witness is None


def test_reconcile_requires_shared_keys():
    with pytest.raises(OracleError, match="key sets differ"):
        reconcile_with_paper({"a": ZERO}, {"b": ZERO})
