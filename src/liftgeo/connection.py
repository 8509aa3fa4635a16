"""Levi-Civita connection coefficients and Riemann curvature in natural
coordinates, plus the fiber contraction used on tangent bundles."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .expr import Coord, Expr, Rat, ZERO, esum, eprod, differentiate, simplify
from .geometry import Chart, Frame, GeometryError, Metric, _derive, inverse

__all__ = [
    "Connection", "Riemann", "christoffel", "riemann", "fiber_contract",
    "metric_compatibility_residual",
]


@dataclass(frozen=True)
class Connection:
    """Coefficients Gamma^k_ij, nonzero entries only.

    Natural-coordinate connections store one entry per unordered lower pair
    (i <= j); adapted-frame connections store ordered lower pairs, since the
    mixed barred/unbarred slots of lifted metrics are not symmetric.
    """

    chart: Chart
    coefficients: Mapping
    frame: Frame = Frame.NATURAL
    # values derived from this connection, built once each by _derive
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {}
        for (k, i, j), e in self.coefficients.items():
            if self.frame is Frame.NATURAL and i > j:
                i, j = j, i
            e = simplify(e)
            if e != ZERO:
                coeffs[(k, i, j)] = e
        object.__setattr__(self, "coefficients", coeffs)

    def get(self, k: int, i: int, j: int) -> Expr:
        if self.frame is Frame.NATURAL and i > j:
            i, j = j, i
        return self.coefficients.get((k, i, j), ZERO)

    def items(self):
        return sorted(self.coefficients.items())

    def display_key(self, k: int, i: int, j: int) -> str:
        name = self.chart.index_name
        return f"Gamma^{name(k)}_{name(i)},{name(j)}"


def christoffel(g: Metric, *, zero_kwargs: Optional[Mapping] = None) -> Connection:
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij)."""
    if g.frame is not Frame.NATURAL:
        raise GeometryError(
            "the coordinate Christoffel formula applies in natural coordinates only"
        )
    ginv = inverse(g, zero_kwargs=zero_kwargs)
    return _derive(g, "christoffel", lambda: _christoffel(g, ginv))


def _christoffel(g: Metric, ginv: Metric) -> Connection:
    n = g.dim
    coords = g.chart.coords
    # d[l][i][j] = derivative of g_ij along coordinate l (nonzero only)
    d: dict = {}
    for i in range(n):
        for j in range(i, n):
            entry = g.entry(i, j)
            if entry == ZERO:
                continue
            for l in range(n):
                de = differentiate(entry, coords[l])
                if de != ZERO:
                    d[(l, i, j)] = d[(l, j, i)] = de
    inv_rows = [
        [(l, ginv.entry(k, l)) for l in range(n) if ginv.entry(k, l) != ZERO]
        for k in range(n)
    ]
    coeffs = {}
    half = Rat(1) / 2
    for k in range(n):
        row = inv_rows[k]
        for i in range(n):
            for j in range(i, n):
                terms = []
                for l, gkl in row:
                    inner = []
                    a = d.get((i, j, l))
                    if a is not None:
                        inner.append(a)
                    b = d.get((j, i, l))
                    if b is not None:
                        inner.append(b)
                    c = d.get((l, i, j))
                    if c is not None:
                        inner.append(-c)
                    if inner:
                        terms.append(gkl * esum(inner))
                if terms:
                    coeffs[(k, i, j)] = half * esum(terms)
    return Connection(g.chart, coeffs, Frame.NATURAL)


@dataclass(frozen=True)
class Riemann:
    """Curvature components R^h_ijk, stored for i < j (antisymmetric pair)."""

    chart: Chart
    components: Mapping

    def __post_init__(self):
        comps = {}
        for (h, i, j, k), e in self.components.items():
            e = simplify(e)
            if e == ZERO:
                continue
            if i < j:
                comps[(h, i, j, k)] = e
            elif i > j:
                comps[(h, j, i, k)] = simplify(-e)
        object.__setattr__(self, "components", comps)

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
    coords = c.chart.coords
    comps = {}
    for h in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    terms = []
                    a = c.get(h, j, k)
                    if a != ZERO:
                        da = differentiate(a, coords[i])
                        if da != ZERO:
                            terms.append(da)
                    b = c.get(h, i, k)
                    if b != ZERO:
                        db = differentiate(b, coords[j])
                        if db != ZERO:
                            terms.append(-db)
                    for l in range(n):
                        hil = c.get(h, i, l)
                        if hil != ZERO:
                            ljk = c.get(l, j, k)
                            if ljk != ZERO:
                                terms.append(hil * ljk)
                        hjl = c.get(h, j, l)
                        if hjl != ZERO:
                            lik = c.get(l, i, k)
                            if lik != ZERO:
                                terms.append(-(hjl * lik))
                    if terms:
                        comps[(h, i, j, k)] = esum(terms)
    return Riemann(c.chart, comps)


def fiber_contract(r: Riemann) -> dict:
    """R^h_ij0 = R^h_ijk u^k, linear in the fiber coordinates u1..um."""
    m = r.chart.dim
    fibers = [Coord(f"u{k + 1}") for k in range(m)]
    out: dict = {}
    for (h, i, j, k), e in r.components.items():
        key = (h, i, j)
        term = eprod((fibers[k], e))
        out[key] = esum((out[key], term)) if key in out else term
    return {k: v for k, v in out.items() if v != ZERO}


def metric_compatibility_residual(g: Metric, c: Connection) -> dict:
    """d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il for all (k, i, j), i <= j.

    Every entry is identically zero precisely when c is metric-compatible
    (the Levi-Civita property, torsion-freeness being structural).
    """
    n = g.dim
    coords = g.chart.coords
    out = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = [differentiate(g.entry(i, j), coords[k])]
                for l in range(n):
                    cki = c.get(l, k, i)
                    if cki != ZERO and g.entry(l, j) != ZERO:
                        terms.append(-(cki * g.entry(l, j)))
                    ckj = c.get(l, k, j)
                    if ckj != ZERO and g.entry(i, l) != ZERO:
                        terms.append(-(ckj * g.entry(i, l)))
                out[(k, i, j)] = esum(terms)
    return out
