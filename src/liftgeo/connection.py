"""Levi-Civita connection coefficients and Riemann curvature in natural
coordinates, plus the fiber contraction used on tangent bundles."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ._poly import p_one
from .expr import Expr, ProbeConfig, ZERO, _Record, _set, derivation, esum
from .geometry import Chart, Frame, GeometryError, Metric, _derive, _place, _unordered_pair, inverse

__all__ = [
    "Connection", "Riemann", "christoffel", "riemann", "fiber_contract",
    "metric_compatibility_residual",
]


class Connection(_Record):
    """Coefficients Gamma^k_ij, nonzero entries only.

    Natural-coordinate connections store one entry per unordered lower pair
    (i <= j); adapted-frame connections store ordered lower pairs, since the
    mixed barred/unbarred slots of lifted metrics are not symmetric.
    """

    _fields = ("chart", "coefficients", "frame")
    # _derived: values derived from this connection, built once each by _derive
    __slots__ = _fields + ("_derived",)

    def __init__(self, chart: Chart, coefficients: Mapping, frame: Frame = Frame.NATURAL):
        if frame is Frame.ADAPTED and not chart.is_tangent:
            raise GeometryError("adapted frames only exist on tangent charts")
        stored = _unordered_pair if frame is Frame.NATURAL else (lambda key: key)
        _set(self, "chart", chart)
        _set(self, "coefficients",
             _place("Connection", chart, coefficients, stored, "(k, i, j)", 3))
        _set(self, "frame", frame)
        _set(self, "_derived", {})

    def get(self, k: int, i: int, j: int) -> Expr:
        if self.frame is Frame.NATURAL and i > j:
            i, j = j, i
        return self.coefficients.get((k, i, j), ZERO)

    def items(self):
        return sorted(self.coefficients.items())

    def display_key(self, k: int, i: int, j: int) -> str:
        name = self.chart.index_name
        return f"Gamma^{name(k)}_{name(i)},{name(j)}"


def christoffel(g: Metric, *, cfg: ProbeConfig = ProbeConfig()) -> Connection:
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
    if g.frame is not Frame.NATURAL:
        raise GeometryError(
            "the coordinate Christoffel formula applies in natural coordinates only"
        )
    ginv = inverse(g, cfg=cfg)
    return _derive(g, "christoffel", lambda: _christoffel(g, ginv))


def _partials(chart: Chart) -> list:
    """d/dx^l for each coordinate of chart, one derivation each, so the
    values of one assembly share each atom's derivative."""
    return [derivation({x: p_one()}) for x in chart.coords]


def _christoffel(g: Metric, ginv: Metric) -> Connection:
    n = g.dim
    partials = _partials(g.chart)
    # d[l][i][j] = derivative of g_ij along coordinate l (nonzero only)
    d: dict = {}
    for i in range(n):
        for j in range(i, n):
            entry = g.entry(i, j)
            if entry == ZERO:
                continue
            for l in range(n):
                de = partials[l](entry)
                if de != ZERO:
                    d[(l, i, j)] = d[(l, j, i)] = de
    # first-kind symbols Gamma_lij = 1/2 (d_i g_jl + d_j g_il - d_l g_ij),
    # summed over the nonzero derivatives and stored where nonzero
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    first = {}
    for l in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = [(s, d[key]) for s, key in
                         ((half, (i, j, l)), (half, (j, i, l)), (minus_half, (l, i, j))) if key in d]
                if terms and (e := esum(terms)) != ZERO:
                    first[(l, i, j)] = e
    pairs = {(i, j) for _, i, j in first}
    # Gamma^k_ij = g^kl Gamma_lij, along the nonzero entries of row k that
    # meet a stored first-kind symbol
    inv_rows = [
        [(l, ginv.entry(k, l)) for l in range(n) if ginv.entry(k, l) != ZERO]
        for k in range(n)
    ]
    coeffs = {}
    for k in range(n):
        for i, j in pairs:
            terms = [(gkl, first[l, i, j]) for l, gkl in inv_rows[k] if (l, i, j) in first]
            if terms:
                coeffs[(k, i, j)] = esum(terms)
    return Connection(g.chart, coeffs, Frame.NATURAL)


class Riemann(_Record):
    """Curvature components R^h_ijk, keyed (h, i, j, k) with i < j, each an
    index of the chart; R^h_jik = -R^h_ijk is read, not stored. Any other
    key is a GeometryError; a zero value is dropped."""

    __slots__ = _fields = ("chart", "components")

    def __init__(self, chart: Chart, components: Mapping):
        _set(self, "chart", chart)
        _set(self, "components", _place("Riemann", chart, components,
                                        lambda key: key if key[1] < key[2] else None,
                                        "(h, i, j, k) with i < j", 4))

    def get(self, h: int, i: int, j: int, k: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return self.components.get((h, i, j, k), ZERO)
        found = self.components.get((h, j, i, k))
        return -found if found is not None else ZERO

    def items(self):
        return sorted(self.components.items())

    def display_key(self, h: int, i: int, j: int, k) -> str:
        name = self.chart.index_name
        return f"R^{name(h)}_{name(i)},{name(j)},{k if isinstance(k, str) else name(k)}"


def riemann(c: Connection) -> Riemann:
    """R^h_ijk = d_i Gamma^h_jk - d_j Gamma^h_ik
    + Gamma^h_il Gamma^l_jk - Gamma^h_jl Gamma^l_ik."""
    if c.frame is not Frame.NATURAL:
        raise GeometryError("curvature is computed in natural coordinates only")
    return _derive(c, "riemann", lambda: _riemann(c))


def _riemann(c: Connection) -> Riemann:
    n = c.chart.dim
    partials = _partials(c.chart)
    stored = c.coefficients

    def gamma(h, j, k):
        """The stored Gamma^h_jk, or None."""
        return stored.get((h, j, k) if j <= k else (h, k, j))

    # dc[h, j, k, i] = d_i Gamma^h_jk (j <= k) and rows[h][i] = the stored
    # Gamma^h_il, nonzero only
    dc = {}
    for key, e in stored.items():
        for i, d_i in enumerate(partials):
            if (de := d_i(e)) != ZERO:
                dc[key + (i,)] = de
    rows = [[[(l, e) for l in range(n) if (e := gamma(h, i, l)) is not None]
             for i in range(n)] for h in range(n)]

    def terms(h, i, j, k):
        if (t := dc.get((h, min(j, k), max(j, k), i))) is not None:
            yield t
        if (t := dc.get((h, min(i, k), max(i, k), j))) is not None:
            yield -1, t
        for l, hil in rows[h][i]:
            if (ljk := gamma(l, j, k)) is not None:
                yield hil, ljk
        for l, hjl in rows[h][j]:
            if (lik := gamma(l, i, k)) is not None:
                yield -1, hjl, lik

    # a slot with no nonzero term is not summed
    comps = {}
    for h in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if ts := list(terms(h, i, j, k)):
                        comps[(h, i, j, k)] = esum(ts)
    return Riemann(c.chart, comps)


def fiber_contract(r: Riemann) -> dict:
    """R^h_ij0 = R^h_ijk u^k, linear in the fiber coordinates of the
    tangent chart; a coordinate, constant or function named like one is a
    GeometryError. It sums the stored R^h_ijk only, and a sum of nonzero
    base values times distinct fiber coordinates is nonzero."""
    fibers = r.chart.tangent(r.components.values()).fibers
    rows: dict = {}
    for (h, i, j, k), e in r.items():
        rows.setdefault((h, i, j), []).append((fibers[k], e))
    return {key: esum(terms) for key, terms in rows.items()}


def metric_compatibility_residual(g: Metric, c: Connection) -> dict:
    """d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il for all (k, i, j), i <= j.

    Every entry is identically zero precisely when c is metric-compatible
    (the Levi-Civita property, torsion-freeness being structural).
    """
    n = g.dim
    partials = _partials(g.chart)

    def terms(k, i, j):
        entry = g.entry(i, j)
        if entry != ZERO and (de := partials[k](entry)) != ZERO:
            yield de
        for l in range(n):
            if (gam := c.get(l, k, i)) != ZERO and (gl := g.entry(l, j)) != ZERO:
                yield -1, gam, gl
        for l in range(n):
            if (gam := c.get(l, k, j)) != ZERO and (gl := g.entry(i, l)) != ZERO:
                yield -1, gam, gl

    return {
        (k, i, j): esum(ts) if (ts := list(terms(k, i, j))) else ZERO
        for k in range(n) for i in range(n) for j in range(i, n)
    }
