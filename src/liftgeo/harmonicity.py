"""The trace-based relative harmonicity criterion for metric pairs, on the
base manifold and on its tangent bundle.

A metric d is harmonic with respect to g when the identity map
(M, g) -> (M, d) is harmonic. Its tension field is the trace vector
rho^k = g^ij (dGamma^k_ij - Gamma^k_ij), so operationally d is harmonic
with respect to g when every trace vanishes. The relation is not
symmetric in (g, d): g supplies both the inverse and the subtracted
connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import expr as ex
from .expr import Expr, ProbeConfig, ZERO, esum
from .geometry import Frame, GeometryError, Metric, inverse
from .connection import Connection, christoffel
from .lifts import LiftKind, lift_connection, lift_metric

__all__ = [
    "Verdict", "HarmonicityReport", "harmonicity_residuals", "lifted_harmonicity",
]


@dataclass(frozen=True)
class Verdict:
    kind: str  # "harmonic" | "not_harmonic" | "undecided"
    index: Optional[str] = None
    witness: Optional[dict] = None
    value: Optional[float] = None
    undecided_indices: tuple = ()


@dataclass(frozen=True)
class HarmonicityReport:
    """Per-upper-index trace residuals with a sound three-way verdict."""

    residuals: Mapping  # display index label -> Expr
    verdict: Verdict
    notes: tuple = ()

    def residual(self, label: str) -> Expr:
        return self.residuals.get(label, ZERO)


def _judge(residuals: dict, notes, cfg: ProbeConfig) -> HarmonicityReport:
    undecided = []
    for label, rho in residuals.items():
        v = ex.is_identically_zero(rho, cfg=cfg)
        if v.is_nonzero:
            verdict = Verdict(
                "not_harmonic", index=label, witness=v.witness, value=v.value
            )
            return HarmonicityReport(residuals, verdict, tuple(notes))
        if v.is_unknown:
            undecided.append(label)
    if undecided:
        verdict = Verdict("undecided", undecided_indices=tuple(undecided))
    else:
        verdict = Verdict("harmonic")
    return HarmonicityReport(residuals, verdict, tuple(notes))


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
    return _judge(residuals, notes, cfg)


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
