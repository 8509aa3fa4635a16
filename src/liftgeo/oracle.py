"""Numeric verification harness: finite-difference derivative checks,
random-point identity probing, and reference-table reconciliation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import expr as ex
from .expr import (
    Coord, Expr, FuncSymbol, Power, Rat, ZERO,
    SingularPointError, differentiate, simplify, substitute, to_string,
)

__all__ = [
    "ProbeConfig", "OracleError", "InconclusiveError", "FdResult",
    "finite_difference_check", "ReconEntry", "ReconciliationReport",
    "reconcile_with_paper",
]


class OracleError(Exception):
    pass


class InconclusiveError(OracleError):
    """Every probe hit a singular denominator; no verdict is possible."""


@dataclass(frozen=True)
class ProbeConfig:
    seed: int = 0
    probes: int = 20
    zero_tol: float = 1e-9
    fd_step: float = 1e-5
    fd_rel_tol: float = 1e-6
    domain: Optional[Mapping] = None  # label -> (lo, hi), defaults per symbol

    def __post_init__(self):
        if self.probes < 1:
            raise ValueError("probes must be >= 1")
        if self.zero_tol <= 0 or self.fd_step <= 0 or self.fd_rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        for label, (lo, hi) in (self.domain or {}).items():
            if not lo < hi:
                raise ValueError(f"degenerate probe interval for {label!r}")

    def zero_kwargs(self) -> dict:
        return {
            "seed": self.seed,
            "probes": self.probes,
            "zero_tol": self.zero_tol,
            "domain": self.domain,
        }


def _polynomial_standin(func: FuncSymbol, rng: random.Random) -> Expr:
    """Degree-4 stand-in with positive rational coefficients.

    Positivity keeps the stand-in (and hence every denominator built from
    it) bounded away from zero on the positive probe domain, while giving
    genuine functional dependence for finite differencing.
    """
    x = Coord(func.var)
    terms = []
    for degree in range(5):
        coef = Rat(Fraction(rng.randint(4, 16), 8))  # in [1/2, 2]
        if degree == 0:
            terms.append(coef)
        elif degree == 1:
            terms.append(ex.Product((coef, x)))
        else:
            terms.append(ex.Product((coef, Power(x, degree))))
    return ex.esum(terms)


@dataclass(frozen=True)
class FdResult:
    passed: bool
    worst_rel_error: float
    probes_used: int


def finite_difference_check(e: Expr, v: str, cfg: ProbeConfig = ProbeConfig()) -> FdResult:
    """Central-difference check of differentiate(e, v) on the probe domain.

    Abstract functions are replaced by concrete polynomial stand-ins drawn
    deterministically from the seed, so evaluation and differentiation see
    the same functional dependence.
    """
    abstract = {
        (a.func.name, a.func.var): a.func for a in ex._atoms(simplify(e))
        if isinstance(a, ex.FuncApp) and a.func.is_abstract
    }
    bindings = {}
    for (name, _var), func in sorted(abstract.items()):
        rng = random.Random((cfg.seed & 0xFFFFFFFF) * 1000003 + sum(map(ord, name)))
        bindings[func] = _polynomial_standin(func, rng)
    concrete = substitute(e, bindings) if bindings else simplify(e)
    analytic = differentiate(concrete, v)
    symbols = ex._probe_symbols(concrete, analytic)
    if v not in symbols.values():
        symbols[v] = v
    h = cfg.fd_step
    worst = 0.0
    used = 0
    for candidates in ex._probe_points(symbols, cfg.probes, cfg.seed, cfg.domain):
        for env, _ in candidates:
            try:
                exact = ex._eval(analytic, env, ex.DEFAULT_EPSILON)
                env_p = dict(env)
                env_p[v] = env[v] + h
                hi_val = ex._eval(concrete, env_p, ex.DEFAULT_EPSILON)
                env_p[v] = env[v] - h
                lo_val = ex._eval(concrete, env_p, ex.DEFAULT_EPSILON)
            except SingularPointError:
                continue
            fd = (hi_val - lo_val) / (2 * h)
            rel = abs(fd - exact) / max(1.0, abs(exact))
            worst = max(worst, rel)
            used += 1
            break
    if used == 0:
        raise InconclusiveError(
            f"all probes hit singular denominators for d/d{v} of {to_string(e)}"
        )
    return FdResult(passed=worst <= cfg.fd_rel_tol, worst_rel_error=worst, probes_used=used)


# ---------------------------------------------------------------------------
# reconciliation against transcribed reference tables

@dataclass(frozen=True)
class ReconEntry:
    name: str
    status: str  # "match" | "mismatch" | "inconclusive"
    difference: Optional[Expr] = None  # computed - expected, canonical
    witness: Optional[dict] = None
    value: Optional[float] = None


@dataclass(frozen=True)
class ReconciliationReport:
    entries: tuple

    @property
    def mismatches(self) -> tuple:
        return tuple(e for e in self.entries if e.status == "mismatch")

    @property
    def inconclusive(self) -> tuple:
        return tuple(e for e in self.entries if e.status == "inconclusive")

    @property
    def all_match(self) -> bool:
        return all(e.status == "match" for e in self.entries)


def reconcile_with_paper(
    computed: Mapping,
    expected: Mapping,
    cfg: ProbeConfig = ProbeConfig(),
) -> ReconciliationReport:
    """Entry-by-entry comparison of two name -> Expr tables.

    Mismatches are first-class results, never aborts: each carries the
    canonical difference and, when available, a numeric witness point.
    """
    if set(computed) != set(expected):
        missing = sorted(set(expected) - set(computed))
        extra = sorted(set(computed) - set(expected))
        raise OracleError(
            f"key sets differ (missing: {missing}, unexpected: {extra})"
        )
    entries = []
    for name in sorted(computed):
        diff = simplify(computed[name] - expected[name])
        if diff == ZERO:
            entries.append(ReconEntry(name, "match"))
            continue
        verdict = ex.is_identically_zero(diff, **cfg.zero_kwargs())
        if verdict.is_nonzero:
            entries.append(ReconEntry(
                name, "mismatch", difference=diff,
                witness=verdict.witness, value=verdict.value,
            ))
        elif verdict.is_zero:
            entries.append(ReconEntry(name, "match"))
        else:
            entries.append(ReconEntry(name, "inconclusive", difference=diff))
    return ReconciliationReport(tuple(entries))
