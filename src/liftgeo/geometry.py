"""Charts, metrics, exact inverses and determinants, validation, and the
metric definition file format."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import expr as ex
from .expr import (
    Expr, FuncSymbol, Power, Product, Rat, SymbolTable, ZERO,
    esum, eprod, parse, simplify,
)

__all__ = [
    "Chart", "Frame", "Metric", "GeometryError", "DegenerateMetricError",
    "MetricFileError", "inverse", "determinant", "validate",
    "parse_metric_document", "load_metric_document", "MetricDocument",
    "matrix_mul", "identity_matrix",
]


class GeometryError(Exception):
    pass


class DegenerateMetricError(GeometryError):
    pass


class Frame(enum.Enum):
    NATURAL = "natural"
    ADAPTED = "adapted"


@dataclass(frozen=True)
class Chart:
    """Ordered coordinate list; tangent charts remember their base."""

    coords: tuple
    base: Optional["Chart"] = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_tangent(self) -> bool:
        return self.base is not None

    def tangent(self) -> "Chart":
        if self.is_tangent:
            raise GeometryError("iterated tangent charts are not supported")
        fibers = tuple(f"u{i + 1}" for i in range(self.dim))
        return Chart(self.coords + fibers, base=self)

    def index_name(self, i: int) -> str:
        """1-based display name; fiber slots are rendered with a bar."""
        if self.is_tangent:
            m = self.base.dim
            return str(i + 1) if i < m else f"{i - m + 1}bar"
        return str(i + 1)


@dataclass(frozen=True)
class Metric:
    chart: Chart
    components: tuple
    frame: Frame = Frame.NATURAL
    # values derived from this metric, built once each by _derive
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.components)
        object.__setattr__(self, "components", rows)
        n = self.chart.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GeometryError(
                f"component matrix must be {n}x{n} for chart {self.chart.coords}"
            )
        if self.frame is Frame.ADAPTED and not self.chart.is_tangent:
            raise GeometryError("adapted frames only exist on tangent charts")

    @classmethod
    def from_entries(cls, chart: Chart, entries: Mapping, frame: Frame = Frame.NATURAL) -> "Metric":
        """Build a symmetric matrix from 0-based (i, j) -> Expr entries."""
        n = chart.dim
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), e in entries.items():
            e = simplify(e)
            rows[i][j] = e
            rows[j][i] = e
        return cls(chart, tuple(tuple(r) for r in rows), frame)

    @property
    def dim(self) -> int:
        return self.chart.dim

    def entry(self, i: int, j: int) -> Expr:
        return self.components[i][j]


def _derive(owner, key, build):
    """The value `key` derived from the immutable `owner`, built on first use.

    It lives exactly as long as its owner. Two threads may both build it on
    first use; the builds agree and setdefault keeps one of them.
    """
    found = owner._derived.get(key)
    return found if found is not None else owner._derived.setdefault(key, build())


def identity_matrix(n: int):
    return tuple(
        tuple(ex.ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def matrix_mul(a, b):
    n = len(a)
    return tuple(
        tuple(esum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _det_minor(rows: tuple, cols: tuple, entry, memo: dict) -> Expr:
    if not rows:
        return ex.ONE
    key = (rows, cols)
    found = memo.get(key)
    if found is not None:
        return found
    i = rows[0]
    rest = rows[1:]
    terms = []
    for pos, j in enumerate(cols):
        a = entry(i, j)
        if a == ZERO:
            continue
        sub = _det_minor(rest, cols[:pos] + cols[pos + 1:], entry, memo)
        if sub == ZERO:
            continue
        term = eprod((a, sub))
        terms.append(term if pos % 2 == 0 else -term)
    result = esum(terms) if terms else ZERO
    memo[key] = result
    return result


def determinant(g: Metric) -> Expr:
    """Exact symbolic determinant (cofactor expansion, simplified per step)."""
    return _derive(g, "determinant", lambda: _determinant(g))


def _determinant(g: Metric) -> Expr:
    idx = tuple(range(g.dim))
    return _det_minor(idx, idx, g.entry, {})


def inverse(g: Metric, *, zero_kwargs: Optional[Mapping] = None) -> Metric:
    """Exact adjugate-over-determinant inverse as a Metric on the same chart.

    Nondegeneracy is certified on every call, with this call's zero_kwargs.
    """
    det = determinant(g)
    verdict = ex.is_identically_zero(det, **(zero_kwargs or {}))
    if verdict.is_zero:
        raise DegenerateMetricError("metric determinant is identically zero")
    if verdict.is_unknown:
        raise DegenerateMetricError(
            "cannot certify nondegeneracy: determinant zero-test is inconclusive "
            f"for {det}"
        )
    return _derive(g, "inverse", lambda: _inverse(g, det))


def _inverse(g: Metric, det: Expr) -> Metric:
    n = g.dim
    memo: dict = {}
    idx = tuple(range(n))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # adj[i][j] = (-1)^(i+j) * minor with row j and column i removed
            minor_rows = idx[:j] + idx[j + 1:]
            minor_cols = idx[:i] + idx[i + 1:]
            m = _det_minor(minor_rows, minor_cols, g.entry, memo)
            if m == ZERO:
                row.append(ZERO)
                continue
            sign = 1 if (i + j) % 2 == 0 else -1
            row.append(simplify(Product((Rat(sign), m, Power(det, -1)))))
        rows.append(tuple(row))
    return Metric(g.chart, tuple(rows), g.frame)


def validate(g: Metric, *, zero_kwargs: Optional[Mapping] = None) -> list:
    """Diagnostics: symmetry, nondegeneracy, chart closure. Empty = valid."""
    issues = []
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            if simplify(g.entry(i, j) - g.entry(j, i)) != ZERO:
                issues.append(
                    f"symmetry violation: g[{i + 1},{j + 1}] != g[{j + 1},{i + 1}]"
                )
    allowed = set(g.chart.coords)
    for i in range(n):
        for j in range(i, n):
            extra = sorted(ex._free_coords(g.entry(i, j)) - allowed)
            if extra:
                issues.append(
                    f"chart-closure violation: g[{i + 1},{j + 1}] references "
                    f"undeclared coordinate(s) {extra}"
                )
    if not issues:
        det = determinant(g)
        verdict = ex.is_identically_zero(det, **(zero_kwargs or {}))
        if verdict.is_zero:
            issues.append("degenerate: determinant is identically zero")
        elif verdict.is_unknown:
            issues.append("nondegeneracy is inconclusive (determinant zero-test unknown)")
    return issues


# ---------------------------------------------------------------------------
# metric definition files

class MetricFileError(GeometryError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class MetricDocument:
    metric: Metric
    symbols: SymbolTable


def parse_metric_document(text: str) -> MetricDocument:
    """Parse the line-oriented metric definition format.

    chart t r theta phi
    func X(t) abstract
    func f(theta) = sin(theta)
    g 1 1 = 1
    g 2 2 = -X(t)^2        # unlisted entries are 0; g i j also sets g j i
    """
    symbols = SymbolTable()
    chart: Optional[Chart] = None
    entries: dict = {}
    sources: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "chart":
            if chart is not None:
                raise MetricFileError("duplicate chart line", lineno)
            if len(fields) < 2:
                raise MetricFileError("chart needs at least one coordinate", lineno)
            try:
                for name in fields[1:]:
                    symbols.declare_coord(name)
            except ex.ExprError as err:
                raise MetricFileError(str(err), lineno) from None
            chart = Chart(tuple(fields[1:]))
        elif kind == "func":
            if chart is None:
                raise MetricFileError("func line before chart line", lineno)
            rest = line[len("func"):].strip()
            head, _, tail = rest.partition(")")
            name, _, var = head.partition("(")
            name = name.strip()
            var = var.strip()
            if not name or not var or "(" in var:
                raise MetricFileError("expected: func NAME(coordinate) ...", lineno)
            tail = tail.strip()
            body = None
            if tail == "abstract" or tail == "":
                body = None
            elif tail.startswith("="):
                try:
                    body = parse(tail[1:].strip(), symbols)
                except ex.ParseError as err:
                    raise MetricFileError(str(err), lineno) from None
            else:
                raise MetricFileError(
                    "expected 'abstract' or '= EXPR' after func declaration", lineno
                )
            try:
                symbols.declare_func(FuncSymbol(name, var, body))
            except ex.ExprError as err:
                raise MetricFileError(str(err), lineno) from None
        elif kind == "const":
            for name in fields[1:]:
                if name in ex.KNOWN_FUNCTIONS:
                    raise MetricFileError(f"{name!r} is a reserved function name", lineno)
                symbols.consts.add(name)
        elif kind == "g":
            if chart is None:
                raise MetricFileError("g line before chart line", lineno)
            body = line[1:].strip()
            lhs, eq, rhs = body.partition("=")
            if not eq:
                raise MetricFileError("expected: g I J = EXPR", lineno)
            parts = lhs.split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise MetricFileError("expected two 1-based indices after g", lineno)
            i, j = (int(p) for p in parts)
            n = chart.dim
            if not (1 <= i <= n and 1 <= j <= n):
                raise MetricFileError(f"index out of range 1..{n}", lineno)
            try:
                value = parse(rhs.strip(), symbols)
            except ex.ParseError as err:
                raise MetricFileError(str(err), lineno) from None
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in entries and entries[key] != value:
                raise MetricFileError(
                    f"conflicting assignment for g {i} {j} "
                    f"(previously set on line {sources[key]})", lineno
                )
            entries[key] = value
            sources[key] = lineno
        else:
            raise MetricFileError(f"unknown directive {kind!r}", lineno)
    if chart is None:
        raise MetricFileError("missing chart line", 1)
    metric = Metric.from_entries(chart, entries)
    return MetricDocument(metric=metric, symbols=symbols)


def load_metric_document(path) -> MetricDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric_document(fh.read())
