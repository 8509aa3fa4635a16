"""Numeric verification harness: finite-difference derivative checks and
reference-table reconciliation.

A derivative is checked by a Richardson step over central differences of
step FD_STEP and passes within the relative error FD_REL_TOL. Reconciliation
returns one ReconEntry per table entry. Random-point identity probing, which
it uses for entries that do not cancel exactly, lives in
:func:`liftgeo.expr.is_identically_zero`."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import expr as ex
from ._poly import p_one
from .expr import (
    Coord, Expr, FuncSymbol, ProbeConfig,
    _d_nf, simplify, substitute, to_string,
)

__all__ = [
    "ProbeConfig", "OracleError", "InconclusiveError", "FdResult",
    "concretize", "finite_difference_check", "ReconEntry", "reconcile_with_paper",
    "FD_STEP", "FD_REL_TOL",
]

FD_STEP = 1e-5  # central-difference step h of the coarse difference
FD_REL_TOL = 1e-6  # largest relative error of a passing derivative


class OracleError(Exception):
    pass


class InconclusiveError(OracleError):
    """Every probe hit a singular denominator; no verdict is possible."""


def _polynomial_standin(func: FuncSymbol, rng: random.Random) -> Expr:
    """Degree-4 stand-in with positive rational coefficients.

    Positivity keeps the stand-in (and hence every denominator built from
    it) bounded away from zero on the positive probe domain, while giving
    genuine functional dependence for finite differencing.
    """
    x = Coord(func.var)
    # each coefficient in [1/2, 2]
    return ex.esum((Fraction(rng.randint(4, 16), 8), x ** degree) for degree in range(5))


@dataclass(frozen=True)
class FdResult:
    passed: bool
    worst_rel_error: float
    probes_used: int


def concretize(e: Expr, cfg: ProbeConfig = ProbeConfig()) -> Expr:
    """e with each abstract function replaced by its polynomial stand-in.

    A stand-in depends only on cfg.seed and the function's name, so one
    concrete expression serves the checks of every coordinate; an expression
    without abstract functions is returned in its normal form.
    """
    abstract = {
        (a.func.name, a.func.var): a.func for a in ex._atoms(simplify(e))
        if isinstance(a, ex.FuncApp) and a.func.is_abstract
    }
    bindings = {}
    for (name, _var), func in sorted(abstract.items()):
        rng = random.Random((cfg.seed & 0xFFFFFFFF) * 1000003 + sum(map(ord, name)))
        bindings[func] = _polynomial_standin(func, rng)
    return substitute(e, bindings) if bindings else simplify(e)


def _central_difference(plan, env: dict, v: str, h: float) -> float:
    env_p = dict(env)
    env_p[v] = env[v] + h
    hi_val = ex._value_at(plan, env_p)
    env_p[v] = env[v] - h
    lo_val = ex._value_at(plan, env_p)
    return (hi_val - lo_val) / (2 * h)


def finite_difference_check(e: Expr, v: str, cfg: ProbeConfig = ProbeConfig()) -> FdResult:
    """Finite-difference check of the derivative of e in v on the probe domain.

    The numeric derivative is the Richardson step (4 D(h/2) - D(h)) / 3 over
    central differences D with h = FD_STEP: it cancels the h^2 term of the
    truncation error, which on a steep function such as exp(801*t) would
    otherwise pass FD_REL_TOL. Abstract functions are replaced by
    concrete polynomial stand-ins drawn deterministically from the seed (see
    concretize), so evaluation and differentiation see the same functional
    dependence. The derivative is the unreduced chain-rule and quotient-rule
    pair, since it is only evaluated. Each value is laid out once, not per point.
    """
    concrete = concretize(e, cfg)
    analytic = _d_nf(ex._frac_of(concrete), {v: p_one()}, {})
    # a concrete value holds no FuncApp atom: its derivative adds no symbol but v
    symbols = {v: v, **ex._probe_symbols(concrete)}
    concrete, analytic = ex._plan(ex._frac_of(concrete)), ex._plan(analytic)

    def rel_error(env: dict) -> float:
        exact = ex._value_at(analytic, env)
        coarse = _central_difference(concrete, env, v, FD_STEP)
        fine = _central_difference(concrete, env, v, FD_STEP / 2)
        return abs((4 * fine - coarse) / 3 - exact) / max(1.0, abs(exact))

    rels = [rel for _, rel in ex._probe_values(symbols, cfg, rel_error)]
    if not rels:
        raise InconclusiveError(
            f"all probes hit singular denominators for d/d{v} of {to_string(e)}"
        )
    worst = max([0.0, *rels])
    return FdResult(passed=worst <= FD_REL_TOL, worst_rel_error=worst, probes_used=len(rels))


# ---------------------------------------------------------------------------
# reconciliation against transcribed reference tables

@dataclass(frozen=True)
class ReconEntry:
    """One reconciled entry. difference is computed - expected in printed
    form, given for a mismatch or an inconclusive entry; an annotated
    mismatch is a documented one, and note says why."""

    name: str
    status: str  # "match" | "mismatch" | "inconclusive"
    annotated: bool = False
    note: Optional[str] = None
    difference: Optional[str] = None
    witness: Optional[dict] = None
    value: Optional[float] = None


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
