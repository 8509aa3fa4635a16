"""Charts, metrics, exact inverses and determinants, validation, and the
metric definition file format."""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from . import expr as ex
from .expr import (
    Expr, FuncSymbol, ProbeConfig, SymbolTable, ZERO, _Record, _set, esum, eprod, parse,
    simplify,
)

__all__ = [
    "Chart", "Frame", "Metric", "GeometryError", "DegenerateMetricError",
    "MetricFileError", "inverse", "determinant", "validate",
    "parse_metric_document", "load_metric_document",
]


class GeometryError(Exception):
    pass


class DegenerateMetricError(GeometryError):
    pass


class Frame(enum.Enum):
    NATURAL = "natural"
    ADAPTED = "adapted"


class Chart(_Record):
    """Ordered coordinate list; tangent charts remember their base."""

    __slots__ = _fields = ("coords", "base")

    def __init__(self, coords, base: Optional["Chart"] = None):
        coords = tuple(coords)
        repeated = sorted({c for c in coords if coords.count(c) > 1})
        if repeated:
            raise GeometryError(f"chart repeats coordinate name(s) {repeated}")
        _set(self, "coords", coords)
        _set(self, "base", base)

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


def _tangent_chart(chart: Chart, values) -> Chart:
    """chart.tangent(), for lifting or fiber-contracting values on chart.

    A constant or function of the values named like a fiber coordinate is a
    GeometryError: the two would print and be probed as one symbol, and a
    report that mixes them could not be parsed again.
    """
    tchart = chart.tangent()
    fibers = set(tchart.coords[chart.dim:])
    clash = sorted({a.func.name if isinstance(a, ex.FuncApp) else a.name
                    for v in values for a in ex._atoms(v)
                    if isinstance(a, (ex.Const, ex.FuncApp))} & fibers)
    if clash:
        raise GeometryError(
            f"constant or function name(s) {clash} are reserved for the fiber "
            "coordinates of the tangent chart"
        )
    return tchart


class Metric(_Record):
    _fields = ("chart", "components", "frame")
    # _derived: values derived from this metric, built once each by _derive
    __slots__ = _fields + ("_derived",)

    def __init__(self, chart: Chart, components, frame: Frame = Frame.NATURAL):
        rows = tuple(tuple(row) for row in components)
        n = chart.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GeometryError(
                f"component matrix must be {n}x{n} for chart {chart.coords}"
            )
        if frame is Frame.ADAPTED and not chart.is_tangent:
            raise GeometryError("adapted frames only exist on tangent charts")
        _set(self, "chart", chart)
        _set(self, "components", rows)
        _set(self, "frame", frame)
        _set(self, "_derived", {})

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

    def items(self):
        """The nonzero entries ((i, j), value) with i <= j, sorted."""
        n = self.dim
        return [((i, j), self.components[i][j]) for i in range(n) for j in range(i, n)
                if self.components[i][j] != ZERO]


def _derive(owner, key, build):
    """The value `key` derived from the immutable `owner`, built on first use.

    It lives exactly as long as its owner. Two threads may both build it on
    first use; the builds agree and setdefault keeps one of them.
    """
    found = owner._derived.get(key)
    return found if found is not None else owner._derived.setdefault(key, build())


def _det_minor(rows: tuple, cols: tuple, entry, memo: dict) -> Expr:
    """The minor of the nonempty rows and cols; a 1x1 minor is its entry."""
    if len(rows) == 1:
        return entry(rows[0], cols[0])
    key = (rows, cols)
    found = memo.get(key)
    if found is not None:
        return found
    i = rows[0]
    rest = rows[1:]
    # a zero entry skips its minor's expansion
    result = esum(
        ((-1) ** pos, entry(i, j), _det_minor(rest, cols[:pos] + cols[pos + 1:], entry, memo))
        for pos, j in enumerate(cols) if entry(i, j) != ZERO
    )
    memo[key] = result
    return result


def _blocks(g: Metric) -> list:
    """Index tuples of the connected components of g's nonzero pattern, in
    the order of their first index, found once per metric.

    Reordered by them, g is block diagonal, so its determinant and inverse
    are assembled block by block; a dense metric is one block.
    """
    return _derive(g, "blocks", lambda: _block_search(g))


def _block_search(g: Metric) -> list:
    # one pass over the entries: a nonzero entry joins the blocks of its
    # row and its column
    block = [{i} for i in range(g.dim)]
    for i, row in enumerate(g.components):
        for j, e in enumerate(row):
            if block[i] is not block[j] and e != ZERO:
                joined = block[i] | block[j]
                for k in joined:
                    block[k] = joined
    return list(dict.fromkeys(tuple(sorted(b)) for b in block))


def determinant(g: Metric) -> Expr:
    """Exact symbolic determinant: the product of the cofactor expansions of
    the diagonal blocks of g's nonzero pattern, simplified per step."""
    return _derive(g, "determinant", lambda: _determinant(g))


def _determinant(g: Metric) -> Expr:
    memo: dict = {}
    return eprod(_det_minor(b, b, g.entry, memo) for b in _blocks(g))


def inverse(g: Metric, *, cfg: ProbeConfig = ProbeConfig()) -> Metric:
    """Exact inverse as a Metric on the same chart: each diagonal block of g's
    nonzero pattern is its adjugate over its determinant, all else is 0. A
    1x1 block is the reciprocal of its entry, one negative power of a
    reduced pair with no product and no reduction.

    Nondegeneracy is certified on every call: the determinant's zero test
    runs with this call's cfg, while the inverse itself is built once.
    """
    det = determinant(g)
    verdict = ex.is_identically_zero(det, cfg=cfg)
    if verdict.is_zero:
        raise DegenerateMetricError("metric determinant is identically zero")
    if verdict.is_unknown:
        try:
            shown = ex.to_string(det)
        except ex.ExprError:  # a coefficient too long to print
            shown = "a determinant with a coefficient too long to print"
        raise DegenerateMetricError(
            "cannot certify nondegeneracy: determinant zero-test is inconclusive "
            f"for {shown}"
        )
    return _derive(g, "inverse", lambda: _inverse(g, det))


def _inverse(g: Metric, det: Expr) -> Metric:
    n = g.dim
    memo: dict = {}
    rows = [[ZERO] * n for _ in range(n)]
    for block in _blocks(g):
        if len(block) == 1:
            (i,) = block
            rows[i][i] = g.entry(i, i) ** -1
            continue
        inv_det = (det if len(block) == n else _det_minor(block, block, g.entry, memo)) ** -1
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                # adj[i][j] = (-1)^(a+b) * block minor with row j and column i removed
                minor_rows = block[:b] + block[b + 1:]
                minor_cols = block[:a] + block[a + 1:]
                m = _det_minor(minor_rows, minor_cols, g.entry, memo)
                rows[i][j] = eprod(((-1) ** (a + b), m, inv_det))
    return Metric(g.chart, rows, g.frame)


def validate(g: Metric, *, cfg: ProbeConfig = ProbeConfig()) -> list:
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
        verdict = ex.is_identically_zero(det, cfg=cfg)
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


def parse_metric_document(text: str) -> Metric:
    """Parse the line-oriented metric definition format into its metric.

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
        # the one error boundary of a line: whatever the line raises is
        # reported with its number
        try:
            if kind == "chart":
                if chart is not None:
                    raise GeometryError("duplicate chart line")
                if len(fields) < 2:
                    raise GeometryError("chart needs at least one coordinate")
                for name in fields[1:]:
                    symbols.declare_coord(name)
                chart = Chart(tuple(fields[1:]))
            elif kind == "func":
                if chart is None:
                    raise GeometryError("func line before chart line")
                rest = line[len("func"):].strip()
                head, _, tail = rest.partition(")")
                name, _, var = head.partition("(")
                name = name.strip()
                var = var.strip()
                if not name or not var or "(" in var:
                    raise GeometryError("expected: func NAME(coordinate) ...")
                tail = tail.strip()
                body = None
                if tail == "abstract" or tail == "":
                    body = None
                elif tail.startswith("="):
                    body = parse(tail[1:].strip(), symbols)
                    symbols.consts |= {a.name for a in ex._atoms(body) if isinstance(a, ex.Const)}
                else:
                    raise GeometryError(
                        "expected 'abstract' or '= EXPR' after func declaration"
                    )
                symbols.declare_func(FuncSymbol(name, var, body))
            elif kind == "const":
                # documents names that parse as constants anyway; like a
                # constant an earlier line read, no later line may rename one
                for name in fields[1:]:
                    symbols.declare_const(name)
            elif kind == "g":
                if chart is None:
                    raise GeometryError("g line before chart line")
                body = line[1:].strip()
                lhs, eq, rhs = body.partition("=")
                if not eq:
                    raise GeometryError("expected: g I J = EXPR")
                parts = lhs.split()
                if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
                    raise GeometryError("expected two 1-based indices after g")
                i, j = (int(p) for p in parts)
                n = chart.dim
                if not (1 <= i <= n and 1 <= j <= n):
                    raise GeometryError(f"index out of range 1..{n}")
                value = parse(rhs.strip(), symbols)
                symbols.consts |= {a.name for a in ex._atoms(value) if isinstance(a, ex.Const)}
                key = (min(i, j) - 1, max(i, j) - 1)
                if key in entries and entries[key] != value:
                    raise GeometryError(
                        f"conflicting assignment for g {i} {j} "
                        f"(previously set on line {sources[key]})"
                    )
                entries[key] = value
                sources[key] = lineno
            else:
                raise GeometryError(f"unknown directive {kind!r}")
        except (ex.ExprError, GeometryError) as err:
            raise MetricFileError(str(err), lineno) from None
    if chart is None:
        raise MetricFileError("missing chart line", 1)
    return Metric.from_entries(chart, entries)


def load_metric_document(path) -> Metric:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric_document(fh.read())
