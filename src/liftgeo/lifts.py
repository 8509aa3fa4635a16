"""Tangent-bundle constructions: vector lifts, the Sasaki, horizontal and
complete lift metrics, and their Levi-Civita connection tables.

Index convention: on a tangent chart of an m-dimensional base, slot i < m is
the base direction x^(i+1) and slot i + m is the fiber direction u^(i+1)
(written with a bar in reports). Sasaki and horizontal connections are the
known closed forms in the frame adapted to the base connection; that frame
is anholonomic, so they are taken as given rather than pushed through the
coordinate Christoffel formula. The complete lift lives in genuine induced
coordinates and its connection is always recomputed generically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .expr import Coord, Expr, Rat, ZERO, eprod, esum, differentiate, simplify
from .geometry import Frame, GeometryError, Metric, _derive
from .connection import Connection, Riemann, christoffel, riemann

__all__ = [
    "LiftKind", "LiftedMetric", "vertical_lift", "horizontal_lift_vector",
    "lift_metric", "lift_connection",
]


class LiftKind(enum.Enum):
    SASAKI = "sasaki"
    HORIZONTAL = "horizontal"
    COMPLETE = "complete"


@dataclass(frozen=True)
class LiftedMetric:
    kind: LiftKind
    metric: Metric

    @property
    def frame(self) -> Frame:
        return self.metric.frame


def vertical_lift(components: Sequence[Expr]) -> tuple:
    """(0, ..., 0, X^1, ..., X^m): the fiber copy of a base vector field."""
    comps = tuple(simplify(c) for c in components)
    m = len(comps)
    return tuple([ZERO] * m) + comps


def horizontal_lift_vector(components: Sequence[Expr], c: Connection) -> tuple:
    """(X^i ; -u^a Gamma^i_ak X^k) in the induced natural coordinates."""
    m = c.chart.dim
    comps = tuple(simplify(x) for x in components)
    if len(comps) != m:
        raise GeometryError(f"vector field needs {m} components")
    fibers = [Coord(f"u{a + 1}") for a in range(m)]
    vertical = []
    for i in range(m):
        terms = []
        for a in range(m):
            for k in range(m):
                gam = c.get(i, a, k)
                if gam != ZERO and comps[k] != ZERO:
                    terms.append(eprod((Rat(-1), fibers[a], gam, comps[k])))
        vertical.append(esum(terms) if terms else ZERO)
    return comps + tuple(vertical)


def lift_metric(g: Metric, kind: LiftKind) -> LiftedMetric:
    """Block forms on the tangent chart.

    Sasaki:     diag(g, g)        adapted frame
    Horizontal: (0, g; g, 0)      adapted frame
    Complete:   (u^k d_k g, g; g, 0)  natural induced coordinates
    """
    if g.frame is not Frame.NATURAL or g.chart.is_tangent:
        raise GeometryError("lift metrics are built from a base metric")
    kind = LiftKind(kind)
    return _derive(g, ("lift", kind), lambda: _lift_metric(g, kind))


def _lift_metric(g: Metric, kind: LiftKind) -> LiftedMetric:
    m = g.dim
    tchart = g.chart.tangent()
    entries: dict = {}
    if kind is LiftKind.SASAKI:
        for i in range(m):
            for j in range(i, m):
                v = g.entry(i, j)
                if v != ZERO:
                    entries[(i, j)] = v
                    entries[(i + m, j + m)] = v
        frame = Frame.ADAPTED
    elif kind is LiftKind.HORIZONTAL:
        for i in range(m):
            for j in range(m):
                v = g.entry(i, j)
                if v != ZERO:
                    entries[(i, j + m)] = v
        frame = Frame.ADAPTED
    else:
        fibers = [Coord(f"u{k + 1}") for k in range(m)]
        coords = g.chart.coords
        for i in range(m):
            for j in range(i, m):
                v = g.entry(i, j)
                if v == ZERO:
                    continue
                entries[(i, j + m)] = v
                if i != j:
                    entries[(j, i + m)] = v
                terms = [
                    eprod((fibers[k], differentiate(v, coords[k])))
                    for k in range(m)
                ]
                drift = esum(terms)
                if drift != ZERO:
                    entries[(i, j)] = drift
        frame = Frame.NATURAL
    return LiftedMetric(kind, Metric.from_entries(tchart, entries, frame))


def _sasaki_connection(g: Metric, conn: Connection, riem: Riemann) -> Connection:
    m = g.dim
    tchart = g.chart.tangent()
    fibers = [Coord(f"u{h + 1}") for h in range(m)]
    half = Rat(1) / 2
    neg_half = Rat(-1) / 2
    coeffs: dict = {}

    def curvature_sum(k: int, a: int, b: int, scale) -> Expr:
        # scale * R^k_{h a b} u^h
        terms = []
        for h in range(m):
            r = riem.get(k, h, a, b)
            if r != ZERO:
                terms.append(eprod((scale, fibers[h], r)))
        return esum(terms) if terms else ZERO

    for (k, i, j), gam in conn.items():
        pairs = [(i, j)] if i == j else [(i, j), (j, i)]
        for a, b in pairs:
            coeffs[(k, a, b)] = gam              # Gamma^k_ij
            coeffs[(k + m, a, b + m)] = gam      # Gamma^kbar_{i jbar}
    for k in range(m):
        for i in range(m):
            for j in range(m):
                v = curvature_sum(k, j, i, half)     # Gamma^k_{i jbar} = 1/2 R^k_hji u^h
                if v != ZERO:
                    coeffs[(k, i, j + m)] = v
                v = curvature_sum(k, i, j, half)     # Gamma^k_{ibar j} = 1/2 R^k_hij u^h
                if v != ZERO:
                    coeffs[(k, i + m, j)] = v
                # Gamma^kbar_ij = -1/2 R^k_ijh u^h
                terms = []
                for h in range(m):
                    r = riem.get(k, i, j, h)
                    if r != ZERO:
                        terms.append(eprod((neg_half, fibers[h], r)))
                if terms:
                    v = esum(terms)
                    if v != ZERO:
                        coeffs[(k + m, i, j)] = v
    return Connection(tchart, coeffs, Frame.ADAPTED)


def _horizontal_connection(g: Metric, conn: Connection) -> Connection:
    m = g.dim
    tchart = g.chart.tangent()
    coeffs: dict = {}
    for (k, i, j), gam in conn.items():
        pairs = [(i, j)] if i == j else [(i, j), (j, i)]
        for a, b in pairs:
            coeffs[(k, a, b)] = gam              # Gamma^k_ij
            coeffs[(k, a, b + m)] = gam          # Gamma^k_{i jbar}
    return Connection(tchart, coeffs, Frame.ADAPTED)


def lift_connection(
    g: Metric, kind: LiftKind, *, zero_kwargs: Optional[Mapping] = None
) -> Connection:
    """Levi-Civita connection of the lifted metric.

    Sasaki and horizontal use the adapted-frame closed forms built from the
    base connection and curvature; the complete lift is recomputed
    generically from its metric.
    """
    kind = LiftKind(kind)
    if kind is LiftKind.COMPLETE:
        return christoffel(lift_metric(g, kind).metric, zero_kwargs=zero_kwargs)
    conn = christoffel(g, zero_kwargs=zero_kwargs)
    if kind is LiftKind.HORIZONTAL:
        return _horizontal_connection(g, conn)
    return _sasaki_connection(g, conn, riemann(conn))
