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
from .expr import Expr, ProbeConfig, ZERO, esum, differentiate, simplify, substitute
from .geometry import Chart, Frame, GeometryError, Metric, inverse
from .connection import Connection, christoffel
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


def _judge(chart: Chart, residuals: dict, notes, cfg: ProbeConfig) -> HarmonicityReport:
    undecided = []
    for label, rho in residuals.items():
        v = ex.is_identically_zero(rho, cfg=cfg)
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
    cfg: ProbeConfig = ProbeConfig(),
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
    conn1 = christoffel(g1, cfg=cfg)
    conn2 = christoffel(g2, cfg=cfg)
    jac = [[differentiate(f_map[a], xs[i]) for i in range(m)] for a in range(n)]
    pullback = {y: f_map[a] for a, y in enumerate(ys)}
    target = {
        key: substitute(value, pullback) for key, value in conn2.items()
    }
    # each stored target coefficient NGamma^c_ab with a < b stands for two slots
    slots = [(c, ab, gam) for (c, a, b), gam in target.items()
             for ab in {(a, b), (b, a)}]
    return {
        (gamma, i, j): esum(
            [differentiate(jac[gamma][j], xs[i])]
            + [(-1, conn1.get(k, i, j), jac[gamma][k]) for k in range(m)]
            + [(gam, jac[a][i], jac[b][j]) for c, (a, b), gam in slots if c == gamma]
        )
        for gamma in range(n) for i in range(m) for j in range(i, m)
    }


def tension_field(
    f_map: Sequence[Expr],
    g1: Metric,
    g2: Metric,
    *,
    cfg: ProbeConfig = ProbeConfig(),
) -> tuple:
    """tau(f)^gamma = g^ij beta(f)^gamma_ij (trace with the domain metric)."""
    beta = second_fundamental_form(f_map, g1, g2, cfg=cfg)
    ginv = inverse(g1, cfg=cfg)
    m = g1.dim
    n = g2.dim
    return tuple(
        esum((ginv.entry(i, j), beta[(gamma, min(i, j), max(i, j))])
             for i in range(m) for j in range(m))
        for gamma in range(n)
    )


def harmonicity_residuals(
    g: Metric,
    d: Metric,
    *,
    cfg: ProbeConfig = ProbeConfig(),
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
    conn_g = christoffel(g, cfg=cfg)
    conn_d = christoffel(d, cfg=cfg)
    return _trace(g, conn_g, conn_d, cfg, ())


def _trace(g: Metric, conn_g: Connection, conn_d: Connection,
           cfg: ProbeConfig, notes) -> HarmonicityReport:
    """Judge the traces g^ij (conn_d - conn_g)^k_ij of every upper index k."""
    ginv = inverse(g, cfg=cfg)
    n = g.dim
    weights = [
        [(j, ginv.entry(i, j)) for j in range(n) if ginv.entry(i, j) != ZERO]
        for i in range(n)
    ]
    # each slot's difference is reduced before it is weighted: on dense
    # lifted pairs, weighting both connections separately makes the final
    # reduction a far larger gcd
    residuals = {
        g.chart.index_name(k): esum(
            (w, esum((conn_d.get(k, i, j), (-1, conn_g.get(k, i, j)))))
            for i in range(n) for j, w in weights[i]
        )
        for k in range(n)
    }
    return _judge(g.chart, residuals, notes, cfg)


def lifted_harmonicity(
    g: Metric,
    d: Metric,
    kind: LiftKind,
    *,
    cfg: ProbeConfig = ProbeConfig(),
) -> HarmonicityReport:
    """Harmonicity of the lifted pair on the tangent bundle.

    Builds the lift metrics and connections for both metrics and runs the
    2m-index trace system. For the Sasaki lift the barred-index residuals
    reduce to curvature differences g^ij (Rhat - R)^k_ij0, which the report
    notes record as vanishing identically.
    """
    kind = LiftKind(kind)
    if g.chart != d.chart:
        raise GeometryError("metrics live on different charts")
    lg = lift_metric(g, kind)
    conn_g = lift_connection(g, kind, cfg=cfg)
    conn_d = lift_connection(d, kind, cfg=cfg)
    notes = []
    if kind is LiftKind.SASAKI:
        # g^ij is symmetric and (Rhat - R)^k_ij0 = (Rhat - R)^k_ijh u^h is
        # antisymmetric in (i, j), so their contraction is 0 for every pair
        notes.append("barred-trace curvature difference g^ij (Rhat - R)^k_ij0 "
                     "vanishes identically")
    return _trace(lg, conn_g, conn_d, cfg, notes)
