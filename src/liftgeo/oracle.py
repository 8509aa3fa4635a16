"""Numeric verification harness: finite-difference derivative checks and
reference-table reconciliation.

A derivative is checked by a Richardson step over central differences of
step FD_STEP and passes within the relative error FD_REL_TOL. Reconciliation
returns one ReconEntry (of liftgeo._recon) per table entry. Random-point
identity probing, which it uses for entries that do not cancel exactly,
lives in :func:`liftgeo.expr.is_identically_zero`. An abstract function is
evaluated through jets of a polynomial stand-in drawn from the seed."""

from __future__ import annotations

import math
import random
from typing import Mapping

from . import expr as ex
from ._poly import p_one
from .expr import Expr, ProbeConfig, _Record, _d_nf, _set, simplify, to_string

__all__ = [
    "ProbeConfig", "OracleError", "InconclusiveError", "FdResult",
    "finite_difference_check", "reconcile_with_paper",
    "FD_STEP", "FD_REL_TOL",
]

FD_STEP = 1e-5  # central-difference step h of the coarse difference
FD_REL_TOL = 1e-6  # largest relative error of a passing derivative


class OracleError(Exception):
    pass


class InconclusiveError(OracleError):
    """Every probe hit a singular denominator; no verdict is possible."""


class FdResult(_Record):
    __slots__ = _fields = ("passed", "worst_rel_error", "probes_used")

    def __init__(self, passed: bool, worst_rel_error: float, probes_used: int):
        _set(self, "passed", passed)
        _set(self, "worst_rel_error", worst_rel_error)
        _set(self, "probes_used", probes_used)


def _standin_jet(cfg: ProbeConfig):
    """jet((name, order), x): the order-th derivative at x, by Horner, of
    name's stand-in, a degree-4 polynomial with coefficients in [1/2, 2]
    drawn from cfg.seed and the name, lowest degree first. Positive
    coefficients keep it, and every denominator built from it, away from 0
    on the positive probe domain."""
    derived: dict = {}

    def jet(key: tuple, x: float) -> float:
        if key not in derived:
            name, order = key
            rng = random.Random((cfg.seed & 0xFFFFFFFF) * 1000003 + sum(map(ord, name)))
            drawn = [rng.randint(4, 16) / 8 for _ in range(5)]
            derived[key] = [drawn[d] * math.perm(d, order) for d in range(4, order - 1, -1)]
        r = 0.0
        for c in derived[key]:
            r = r * x + c
        return ex._finite(r)

    return jet


def _central_difference(plan, env: dict, v: str, h: float, jet) -> float:
    env_p = dict(env)
    env_p[v] = env[v] + h
    hi_val = ex._value_at(plan, env_p, jet)
    env_p[v] = env[v] - h
    lo_val = ex._value_at(plan, env_p, jet)
    return (hi_val - lo_val) / (2 * h)


def finite_difference_check(e: Expr, v: str, cfg: ProbeConfig = ProbeConfig()) -> FdResult:
    """Finite-difference check of the derivative of e in v on the probe domain.

    The numeric derivative is the Richardson step (4 D(h/2) - D(h)) / 3 over
    central differences D with h = FD_STEP: it cancels the h^2 term of the
    truncation error, which on a steep function such as exp(801*t) would
    otherwise pass FD_REL_TOL. Only coordinates and constants are drawn; at
    each point evaluated, an abstract jet is the derivative of its stand-in
    at the value of its argument (see _standin_jet), so e and its derivative
    see the same function. The derivative is the unreduced chain-rule and
    quotient-rule pair, since it is only evaluated. Each value is laid out
    once, not per point.
    """
    fr = ex._frac_of(e)
    analytic = _d_nf(fr, {v: p_one()}, {})
    # the derivative adds no coordinate or constant but v
    symbols = {v: v, **{key: label for key, label in ex._probe_symbols(e).items()
                        if isinstance(key, str)}}
    plan, analytic = ex._plan(fr), ex._plan(analytic)
    jet = _standin_jet(cfg)

    def rel_error(env: dict) -> float:
        exact = ex._value_at(analytic, env, jet)
        coarse = _central_difference(plan, env, v, FD_STEP, jet)
        fine = _central_difference(plan, env, v, FD_STEP / 2, jet)
        return abs((4 * fine - coarse) / 3 - exact) / max(1.0, abs(exact))

    rels = [rel for _, rel in ex._probe_values(symbols, cfg, rel_error)]
    if not rels:
        try:
            shown = to_string(e)
        except ex.ExprError:  # a coefficient too long to print
            shown = "a value with a coefficient too long to print"
        raise InconclusiveError(f"all probes hit singular denominators for d/d{v} of {shown}")
    worst = max([0.0, *rels])
    return FdResult(passed=worst <= FD_REL_TOL, worst_rel_error=worst, probes_used=len(rels))


# ---------------------------------------------------------------------------
# reconciliation against transcribed reference tables

def reconcile_with_paper(
    computed: Mapping,
    expected: Mapping,
    cfg: ProbeConfig = ProbeConfig(),
) -> tuple:
    """Entry-by-entry comparison of two name -> Expr tables: one ReconEntry
    per name, in sorted order.

    Mismatches are first-class results, never aborts: each carries the
    printed canonical difference and, when available, a numeric witness
    point. An entry whose canonical forms are equal is a match, and its
    difference is never built.
    """
    # only the readers of the paper's tables load the entry's dataclass
    from ._recon import ReconEntry

    if set(computed) != set(expected):
        missing = sorted(set(expected) - set(computed))
        extra = sorted(set(computed) - set(expected))
        raise OracleError(
            f"key sets differ (missing: {missing}, unexpected: {extra})"
        )
    entries = []
    for name in sorted(computed):
        if ex.equivalent(computed[name], expected[name]):
            entries.append(ReconEntry(name, "match"))
            continue
        diff = simplify(computed[name] - expected[name])
        verdict = ex.is_identically_zero(diff, cfg=cfg)
        if verdict.is_nonzero:
            entries.append(ReconEntry(
                name, "mismatch", difference=to_string(diff),
                witness=verdict.witness, value=verdict.value,
            ))
        else:
            entries.append(ReconEntry(name, "inconclusive", difference=to_string(diff)))
    return tuple(entries)
