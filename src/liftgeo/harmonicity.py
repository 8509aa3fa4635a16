"""The trace-based relative harmonicity criterion for metric pairs, on the
base manifold and on its tangent bundle.

A metric d is harmonic with respect to g when the identity map
(M, g) -> (M, d) is harmonic. Its tension field is the trace vector
rho^k = g^ij (dGamma^k_ij - Gamma^k_ij), so operationally d is harmonic
with respect to g when every trace vanishes. The relation is not
symmetric in (g, d): g supplies both the inverse and the subtracted
connection. On the tangent bundle the lifted traces are the base traces
mapped through the lift identities, so no lifted quantity is built, and
the lifted verdict is the base verdict carried through the same map: it
is decided once, on the base traces.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import expr as ex
from .expr import Expr, ProbeConfig, ZERO, _Record, _set, esum
from .geometry import Frame, GeometryError, Metric, inverse
from .connection import Connection, christoffel
from .lifts import LiftKind

__all__ = [
    "Verdict", "HarmonicityReport", "harmonicity_residuals", "lifted_report", "lifted_harmonicity",
]


class Verdict(_Record):
    __slots__ = _fields = ("kind", "index", "witness", "value", "undecided_indices")

    def __init__(self, kind: str, index: Optional[str] = None, witness: Optional[dict] = None,
                 value: Optional[float] = None, undecided_indices: tuple = ()):
        _set(self, "kind", kind)  # "harmonic" | "not_harmonic" | "undecided"
        _set(self, "index", index)
        _set(self, "witness", witness)
        _set(self, "value", value)
        _set(self, "undecided_indices", undecided_indices)


class HarmonicityReport(_Record):
    """Per-upper-index trace residuals with a sound three-way verdict."""

    __slots__ = _fields = ("residuals", "verdict", "notes")

    def __init__(self, residuals: Mapping, verdict: Verdict, notes: tuple = ()):
        _set(self, "residuals", residuals)  # display index label -> Expr
        _set(self, "verdict", verdict)
        _set(self, "notes", notes)

    def residual(self, label: str) -> Expr:
        return self.residuals.get(label, ZERO)


def harmonicity_residuals(
    g: Metric,
    d: Metric,
    *,
    cfg: ProbeConfig = ProbeConfig(),
) -> HarmonicityReport:
    """rho^k = g^ij (dGamma^k_ij - Gamma^k_ij) for every upper index.

    Both metrics must be natural-coordinate metrics on one chart; their
    connections come from christoffel. Adapted-frame pairs (Sasaki and
    horizontal lifts) go through lifted_harmonicity, which reads their
    traces and verdict from the base pair's.
    """
    if g.chart != d.chart:
        raise GeometryError("metrics live on different charts")
    if Frame.ADAPTED in (g.frame, d.frame):
        raise GeometryError(
            "adapted-frame pairs have no coordinate connection; "
            "use lifted_harmonicity on the base metrics"
        )
    conn_g = christoffel(g, cfg=cfg)
    conn_d = christoffel(d, cfg=cfg)
    return _trace(g, conn_g, conn_d, cfg)


def _trace(g: Metric, conn_g: Connection, conn_d: Connection,
           cfg: ProbeConfig) -> HarmonicityReport:
    """Judge the traces g^ij (conn_d - conn_g)^k_ij of every upper index k:
    the first certified nonzero trace decides not_harmonic, else any
    unknown one leaves the pair undecided."""
    ginv = inverse(g, cfg=cfg)
    n = g.dim
    weights = [
        [(j, ginv.entry(i, j)) for j in range(n) if ginv.entry(i, j) != ZERO]
        for i in range(n)
    ]

    def difference(k, i, j):
        """(conn_d - conn_g)^k_ij from the stored values; ZERO if neither
        connection stores one."""
        terms = [(s, e) for s, e in ((1, conn_d.get(k, i, j)), (-1, conn_g.get(k, i, j)))
                 if e != ZERO]
        return esum(terms) if terms else ZERO

    # each slot's difference is reduced before it is weighted: on dense
    # lifted pairs, weighting both connections separately makes the final
    # reduction a far larger gcd
    residuals = {}
    for k in range(n):
        terms = [(w, diff) for i in range(n) for j, w in weights[i]
                 if (diff := difference(k, i, j)) != ZERO]
        residuals[g.chart.index_name(k)] = esum(terms) if terms else ZERO
    undecided = []
    for label, rho in residuals.items():
        v = ex.is_identically_zero(rho, cfg=cfg)
        if v.is_nonzero:
            verdict = Verdict("not_harmonic", index=label, witness=v.witness, value=v.value)
            return HarmonicityReport(residuals, verdict)
        if v.is_unknown:
            undecided.append(label)
    kind = "undecided" if undecided else "harmonic"
    return HarmonicityReport(residuals, Verdict(kind, undecided_indices=tuple(undecided)))


def lifted_report(base: HarmonicityReport, kind: LiftKind) -> HarmonicityReport:
    """The lifted pair's report from the base pair's report by the lift
    identities (Yano-Ishihara, 1973): the traces over 1..m, 1bar..mbar are
    (rho, 0) for Sasaki and horizontal and (0, 2 rho) for complete. The
    sasaki, horizontal and complete scenarios check them on the abstract
    family against the generic traces of the lifted metric and connections.
    The verdict is the base verdict carried through the same map, not judged
    again; for complete its value doubles, which is exact in floating point.
    """
    complete = kind is LiftKind.COMPLETE
    residuals = {k: ZERO if complete else rho for k, rho in base.residuals.items()}
    residuals.update((f"{k}bar", 2 * rho if complete else ZERO)
                     for k, rho in base.residuals.items())
    v = base.verdict
    if complete:
        v = Verdict(v.kind, v.index and f"{v.index}bar", v.witness,
                    None if v.value is None else 2 * v.value,
                    tuple(f"{k}bar" for k in v.undecided_indices))
    # Sasaki: g^ij is symmetric and (Rhat - R)^k_ij0 = (Rhat - R)^k_ijh u^h
    # is antisymmetric in (i, j), so their contraction is 0 for every pair
    notes = ("barred-trace curvature difference g^ij (Rhat - R)^k_ij0 vanishes "
             "identically",) if kind is LiftKind.SASAKI else ()
    return HarmonicityReport(residuals, v, notes)


def lifted_harmonicity(
    g: Metric,
    d: Metric,
    kind: LiftKind,
    *,
    cfg: ProbeConfig = ProbeConfig(),
) -> HarmonicityReport:
    """Harmonicity of the lifted pair on the tangent bundle.

    Both metrics must lift (one chart, no name Chart.tangent reserves);
    the report is lifted_report of the base pair's report.
    """
    kind = LiftKind(kind)
    for metric in (g, d):
        metric.chart.tangent(v for _, v in metric.items())
    return lifted_report(harmonicity_residuals(g, d, cfg=cfg), kind)
