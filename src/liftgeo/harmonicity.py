"""Second fundamental form, tension field, and the trace-based relative
harmonicity criterion for metric pairs.

A metric d is harmonic with respect to g when the identity map
(M, g) -> (M, d) is harmonic; operationally, when every trace
rho^k = g^ij (dGamma^k_ij - Gamma^k_ij) vanishes. The relation is not
symmetric in (g, d): g supplies both the inverse and the subtracted
connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import expr as ex
from .expr import Expr, ZERO, esum, eprod, differentiate, simplify, substitute
from .geometry import Chart, Frame, GeometryError, Metric, inverse
from .connection import Connection, christoffel, fiber_contract, riemann
from .lifts import LiftKind, lift_connection, lift_metric

__all__ = [
    "Verdict", "HarmonicityReport", "second_fundamental_form", "tension_field",
    "harmonicity_residuals", "lifted_harmonicity",
]


@dataclass(frozen=True)
class Verdict:
    kind: str  # "harmonic" | "not_harmonic" | "undecided"
    index: Optional[str] = None
    witness: Optional[dict] = None
    value: Optional[float] = None
    undecided_indices: tuple = ()

    @property
    def is_harmonic(self) -> bool:
        return self.kind == "harmonic"


@dataclass(frozen=True)
class HarmonicityReport:
    """Per-upper-index trace residuals with a sound three-way verdict."""

    chart: Chart
    residuals: Mapping  # display index label -> Expr
    verdict: Verdict
    notes: tuple = ()

    def residual(self, label: str) -> Expr:
        return self.residuals.get(label, ZERO)


def _judge(chart: Chart, residuals: dict, notes, zero_kwargs) -> HarmonicityReport:
    undecided = []
    for label, rho in residuals.items():
        v = ex.is_identically_zero(rho, **(zero_kwargs or {}))
        if v.is_nonzero:
            verdict = Verdict(
                "not_harmonic", index=label, witness=v.witness, value=v.value
            )
            return HarmonicityReport(chart, residuals, verdict, tuple(notes))
        if v.is_unknown:
            undecided.append(label)
    if undecided:
        verdict = Verdict("undecided", undecided_indices=tuple(undecided))
    else:
        verdict = Verdict("harmonic")
    return HarmonicityReport(chart, residuals, verdict, tuple(notes))


def second_fundamental_form(
    f_map: Sequence[Expr],
    g1: Metric,
    g2: Metric,
    *,
    zero_kwargs: Optional[Mapping] = None,
) -> dict:
    """beta(f)^gamma_ij for a map given by coordinate expressions.

    beta^gamma_ij = d_i d_j f^gamma - MGamma^k_ij d_k f^gamma
    + NGamma^gamma_ab (d_i f^a)(d_j f^b), with the target connection
    composed with the map. Keys are (gamma, i, j) with i <= j.
    """
    m = g1.dim
    n = g2.dim
    f_map = tuple(simplify(c) for c in f_map)
    if len(f_map) != n:
        raise GeometryError(f"map needs {n} component expressions")
    xs = g1.chart.coords
    ys = g2.chart.coords
    conn1 = christoffel(g1, zero_kwargs=zero_kwargs)
    conn2 = christoffel(g2, zero_kwargs=zero_kwargs)
    jac = [[differentiate(f_map[a], xs[i]) for i in range(m)] for a in range(n)]
    pullback = {y: f_map[a] for a, y in enumerate(ys)}
    target = {
        key: substitute(value, pullback) for key, value in conn2.items()
    }
    out = {}
    for gamma in range(n):
        for i in range(m):
            for j in range(i, m):
                terms = [differentiate(jac[gamma][j], xs[i])]
                for k in range(m):
                    gam = conn1.get(k, i, j)
                    if gam != ZERO and jac[gamma][k] != ZERO:
                        terms.append(-(gam * jac[gamma][k]))
                for (c, a, b), gam in target.items():
                    if c != gamma:
                        continue
                    pairs = [(a, b)] if a == b else [(a, b), (b, a)]
                    for aa, bb in pairs:
                        if jac[aa][i] != ZERO and jac[bb][j] != ZERO:
                            terms.append(eprod((gam, jac[aa][i], jac[bb][j])))
                out[(gamma, i, j)] = esum(terms)
    return out


def tension_field(
    f_map: Sequence[Expr],
    g1: Metric,
    g2: Metric,
    *,
    zero_kwargs: Optional[Mapping] = None,
) -> tuple:
    """tau(f)^gamma = g^ij beta(f)^gamma_ij (trace with the domain metric)."""
    beta = second_fundamental_form(f_map, g1, g2, zero_kwargs=zero_kwargs)
    ginv = inverse(g1, zero_kwargs=zero_kwargs)
    m = g1.dim
    n = g2.dim
    out = []
    for gamma in range(n):
        terms = []
        for i in range(m):
            for j in range(m):
                w = ginv.entry(i, j)
                if w == ZERO:
                    continue
                b = beta[(gamma, i, j) if i <= j else (gamma, j, i)]
                if b != ZERO:
                    terms.append(w * b)
        out.append(esum(terms) if terms else ZERO)
    return tuple(out)


def harmonicity_residuals(
    g: Metric,
    d: Metric,
    *,
    zero_kwargs: Optional[Mapping] = None,
) -> HarmonicityReport:
    """rho^k = g^ij (dGamma^k_ij - Gamma^k_ij) for every upper index.

    Both metrics must be natural-coordinate metrics on one chart; their
    connections come from christoffel. Adapted-frame pairs (Sasaki and
    horizontal lifts) are judged by lifted_harmonicity, which supplies the
    lifted connections.
    """
    if g.chart != d.chart:
        raise GeometryError("metrics live on different charts")
    if g.frame != d.frame:
        raise GeometryError("metrics use different frame kinds")
    if g.frame is Frame.ADAPTED:
        raise GeometryError(
            "adapted-frame pairs have no coordinate connection; "
            "use lifted_harmonicity on the base metrics"
        )
    conn_g = christoffel(g, zero_kwargs=zero_kwargs)
    conn_d = christoffel(d, zero_kwargs=zero_kwargs)
    return _trace(g, conn_g, conn_d, zero_kwargs, ())


def _trace(g: Metric, conn_g: Connection, conn_d: Connection,
           zero_kwargs, notes) -> HarmonicityReport:
    """Judge the traces g^ij (conn_d - conn_g)^k_ij of every upper index k."""
    ginv = inverse(g, zero_kwargs=zero_kwargs)
    n = g.dim
    weights = [
        [(j, ginv.entry(i, j)) for j in range(n) if ginv.entry(i, j) != ZERO]
        for i in range(n)
    ]
    residuals = {}
    for k in range(n):
        terms = []
        for i in range(n):
            for j, w in weights[i]:
                delta = conn_d.get(k, i, j) - conn_g.get(k, i, j)
                if delta != ZERO:
                    terms.append(w * delta)
        residuals[g.chart.index_name(k)] = esum(terms) if terms else ZERO
    return _judge(g.chart, residuals, notes, zero_kwargs)


def lifted_harmonicity(
    g: Metric,
    d: Metric,
    kind: LiftKind,
    *,
    zero_kwargs: Optional[Mapping] = None,
) -> HarmonicityReport:
    """Harmonicity of the lifted pair on the tangent bundle.

    Builds the lift metrics and connections for both metrics and runs the
    2m-index trace system. For the Sasaki lift the barred-index residuals
    reduce to curvature differences g^ij (Rhat - R)^k_ij0; whether they
    cancel identically is recorded in the report notes.
    """
    kind = LiftKind(kind)
    if g.chart != d.chart:
        raise GeometryError("metrics live on different charts")
    lg = lift_metric(g, kind)
    conn_g = lift_connection(g, kind, zero_kwargs=zero_kwargs)
    conn_d = lift_connection(d, kind, zero_kwargs=zero_kwargs)
    notes = []
    if kind is LiftKind.SASAKI:
        ginv = inverse(g, zero_kwargs=zero_kwargs)
        m = g.dim
        fg = fiber_contract(riemann(christoffel(g, zero_kwargs=zero_kwargs)))
        fd = fiber_contract(riemann(christoffel(d, zero_kwargs=zero_kwargs)))
        identically = True
        for k in range(m):
            terms = []
            for i in range(m):
                for j in range(m):
                    w = ginv.entry(i, j)
                    if w == ZERO or i == j:
                        continue
                    key = (k, i, j) if i < j else (k, j, i)
                    sign = 1 if i < j else -1
                    delta = sign * (fd.get(key, ZERO) - fg.get(key, ZERO))
                    if delta != ZERO:
                        terms.append(w * delta)
            if terms and esum(terms) != ZERO:
                identically = False
        notes.append(
            "barred-trace curvature difference g^ij (Rhat - R)^k_ij0 "
            + ("vanishes identically" if identically else "does not vanish identically")
        )
    return _trace(lg.metric, conn_g, conn_d, zero_kwargs, notes)
