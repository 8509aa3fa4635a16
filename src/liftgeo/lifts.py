"""Tangent-bundle constructions: the Sasaki, horizontal and complete lift
metrics and their Levi-Civita connection tables.

Index convention: on a tangent chart of an m-dimensional base, slot i < m is
the base direction x^(i+1) and slot i + m is the fiber direction u^(i+1)
(written with a bar in reports). Every lift connection is a closed form
over the base connection, from one base block: Gamma^k_ij and its fiber
copy. Sasaki and horizontal live in the frame adapted to the base
connection, which is anholonomic, so the coordinate Christoffel formula
does not apply to them. The Sasaki connection adds one fiber contraction
1/2 R^k_hij u^h per (k, i, j), shared by the slots (ibar, j) and (j, ibar),
and Gamma^kbar_ij = -1/2 R^k_ij0, in one curvature walk. The complete lift
lives in induced coordinates. The complete lift of a base value v is
v^C = u^l d_l v, the derivation along the fiber field {x^l: u^l}, reduced
once; one derivation serves every value of a lift build, so each atom is
derived once. It gives the base block of g^C and, since the connection of
g^C is the complete lift of the base connection (Yano-Kobayashi),
Gamma^kbar_ij = (Gamma^k_ij)^C. Each lift connection is kept on its metric.
Harmonicity reads none of these: lifted_harmonicity maps the base traces,
and the lift scenarios of gks check that map against these tables.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .expr import ProbeConfig, derivation, esum
from .geometry import Chart, Frame, GeometryError, Metric, _derive
from .connection import Connection, Riemann, christoffel, riemann

__all__ = ["LiftKind", "lift_metric", "lift_connection"]


class LiftKind(enum.Enum):
    SASAKI = "sasaki"
    HORIZONTAL = "horizontal"
    COMPLETE = "complete"


def lift_metric(g: Metric, kind: LiftKind) -> Metric:
    """The lifted metric: a block form on the tangent chart, whose frame is
    adapted or natural.

    Sasaki:     diag(g, g)        adapted frame
    Horizontal: (0, g; g, 0)      adapted frame
    Complete:   (u^k d_k g, g; g, 0)  natural induced coordinates
    """
    if g.frame is not Frame.NATURAL or g.chart.is_tangent:
        raise GeometryError("lift metrics are built from a base metric")
    kind = LiftKind(kind)
    return _derive(g, ("lift", kind), lambda: _lift_metric(g, kind))


def _lift_metric(g: Metric, kind: LiftKind) -> Metric:
    m = g.dim
    tchart = g.chart.tangent(v for _, v in g.items())
    entries: dict = {}
    for (i, j), v in g.items():
        if kind is LiftKind.SASAKI:
            entries[(i, j)] = entries[(i + m, j + m)] = v
        else:
            entries[(i, j + m)] = entries[(j, i + m)] = v
    if kind is not LiftKind.COMPLETE:
        return Metric(tchart, entries, Frame.ADAPTED)
    complete_lift = derivation({x: u.num for x, u in zip(g.chart.coords, tchart.fibers)})
    for (i, j), v in g.items():
        entries[(i, j)] = complete_lift(v)
    return Metric(tchart, entries, Frame.NATURAL)


def _base_block(conn: Connection, shift: int) -> dict:
    """Gamma^k_ij on ordered lower pairs and its copy Gamma^(k+shift)_{i jbar}:
    the fiber copy is barred above (shift m) but for horizontal (shift 0)."""
    m = conn.chart.dim
    coeffs: dict = {}
    for (k, i, j), gam in conn.items():
        for a, b in {(i, j), (j, i)}:
            coeffs[(k, a, b)] = gam
            coeffs[(k + shift, a, b + m)] = gam
    return coeffs


def _sasaki_connection(tchart: Chart, conn: Connection, riem: Riemann) -> Connection:
    m = conn.chart.dim
    fibers = tchart.fibers
    half = Fraction(1, 2)
    coeffs = _base_block(conn, m)
    # one walk over the stored curvature R^k_hij (h < i) sums both families:
    # Gamma^k_{ibar j} = Gamma^k_{j ibar} = 1/2 R^k_hij u^h, one sum for both,
    # gets the term of u^h in slot (k, i, j) and, negated, of u^i in (k, h, j);
    # Gamma^kbar_hi = -1/2 R^k_hij u^j is stored for h < i, negated for (i, h)
    slots: dict = {}
    barred: dict = {}
    for (k, h, i, j), r in riem.items():
        slots.setdefault((k, i, j), []).append((half, fibers[h], r))
        slots.setdefault((k, h, j), []).append((half, fibers[i], -r))
        barred.setdefault((k, h, i), []).append((-half, fibers[j], r))
    for (k, i, j), terms in slots.items():
        coeffs[(k, i + m, j)] = coeffs[(k, j, i + m)] = esum(terms)
    for (k, h, i), terms in barred.items():
        gam = esum(terms)
        coeffs[(k + m, h, i)], coeffs[(k + m, i, h)] = gam, -gam
    return Connection(tchart, coeffs, Frame.ADAPTED)


def lift_connection(
    g: Metric, kind: LiftKind, *, cfg: ProbeConfig = ProbeConfig()
) -> Connection:
    """Levi-Civita connection of the lifted metric, a closed form over the
    base connection: Sasaki and horizontal in the adapted frame (Sasaki adds
    the base curvature), complete in natural induced coordinates.

    It is built once per metric and kind. Each call is judged with its own
    cfg: the base metric's nondegeneracy verdict is made once per cfg.
    """
    kind = LiftKind(kind)
    conn = christoffel(g, cfg=cfg)
    return _derive(g, ("lift connection", kind), lambda: _lift_connection(g, conn, kind))


def _lift_connection(g: Metric, conn: Connection, kind: LiftKind) -> Connection:
    # a fiber-name clash raises here, and a failed build is not kept
    tchart = g.chart.tangent(v for _, v in g.items())
    if kind is LiftKind.COMPLETE:
        # the complete lift of conn; Gamma^kbar_{ibar j} is stored as Gamma^kbar_{j ibar}
        m = conn.chart.dim
        complete_lift = derivation({x: u.num for x, u in zip(g.chart.coords, tchart.fibers)})
        coeffs = _base_block(conn, m)
        for (k, i, j), gam in conn.items():
            coeffs[(k + m, i, j)] = complete_lift(gam)
        return Connection(tchart, coeffs, Frame.NATURAL)
    if kind is LiftKind.HORIZONTAL:
        return Connection(tchart, _base_block(conn, 0), Frame.ADAPTED)
    return _sasaki_connection(tchart, conn, riemann(conn))
