"""Charts, metrics, exact inverses and determinants, validation, and the
metric definition file format."""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from . import expr as ex
from .expr import (
    Coord, Expr, FuncSymbol, ProbeConfig, SymbolTable, ZERO, _Record, _set, esum, eprod, parse,
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

    def tangent(self, values=()) -> "Chart":
        """The tangent chart (x^l, u^l), for lifting or fiber-contracting
        values. A coordinate here, or a constant or function of the values,
        named like a fiber coordinate u1..um is a GeometryError: the two would
        print, parse and be probed as one symbol."""
        if self.is_tangent:
            raise GeometryError("iterated tangent charts are not supported")
        fibers = tuple(f"u{i + 1}" for i in range(self.dim))
        names = {a.func.name if isinstance(a, ex.FuncApp) else a.name
                 for v in values for a in ex._atoms(v) if isinstance(a, (ex.Const, ex.FuncApp))}
        clash = sorted(names.union(self.coords).intersection(fibers))
        if clash:
            raise GeometryError(
                f"coordinate, constant or function name(s) {clash} are reserved "
                "for the fiber coordinates of the tangent chart"
            )
        return Chart(self.coords + fibers, base=self)

    @property
    def fibers(self) -> tuple:
        """The fiber coordinates u^1..u^m of a tangent chart as values; a base
        chart has none."""
        names = self.coords[self.base.dim:] if self.is_tangent else ()
        return tuple(simplify(Coord(u)) for u in names)

    def index_name(self, i: int) -> str:
        """1-based display name; fiber slots are rendered with a bar."""
        if self.is_tangent:
            m = self.base.dim
            return str(i + 1) if i < m else f"{i - m + 1}bar"
        return str(i + 1)


def _place(record: str, chart: Chart, entries: Mapping, stored, layout: str, rank: int) -> dict:
    """The components of a Metric, Connection or Riemann: each key is rank
    indices of the chart and maps by stored to the key kept (None refuses it;
    layout names the keys taken), keys kept as one agree, zeros go last."""
    indices = set(range(chart.dim))
    placed: dict = {}
    for key, e in entries.items():
        if (to := stored(key) if len(key) == rank and indices.issuperset(key) else None) is None:
            raise GeometryError(f"{record} refuses key {key} on chart {chart.coords}: "
                                f"keys are {layout}, each an index of the chart")
        e = simplify(e)
        if (found := placed.setdefault(to, e)) is not e and found != e:
            other = next(k for k in entries if stored(k) == to)
            raise GeometryError(f"{record} refuses keys {other} and {key} on chart "
                                f"{chart.coords}: they are kept as one, with different values")
    return {to: e for to, e in placed.items() if e.num}  # a zero has no terms


def _unordered_pair(key: tuple) -> tuple:
    """key with its last two indices in order, for a pair read in either order."""
    return key if key[-2] <= key[-1] else key[:-2] + (key[-1], key[-2])


class Metric(_Record):
    """A metric on a chart, symmetric by construction: entries maps
    0-based (i, j) to a value, each entry sets both g_ij and g_ji, and an
    unlisted entry is 0. _place refuses an index outside the chart, or an
    (i, j) and a (j, i) given different values. components is the rows."""

    _fields = ("chart", "components", "frame")
    # _derived: values derived from this metric, built once each by _derive
    __slots__ = _fields + ("_derived",)

    def __init__(self, chart: Chart, entries: Mapping, frame: Frame = Frame.NATURAL):
        if frame is Frame.ADAPTED and not chart.is_tangent:
            raise GeometryError("adapted frames only exist on tangent charts")
        n = chart.dim
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), e in _place("Metric", chart, entries, _unordered_pair, "(i, j)", 2).items():
            rows[i][j] = rows[j][i] = e
        _set(self, "chart", chart)
        _set(self, "components", tuple(tuple(r) for r in rows))
        _set(self, "frame", frame)
        _set(self, "_derived", {})

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


def _nondegeneracy(g: Metric, cfg: ProbeConfig) -> ex.ZeroVerdict:
    """The zero test of g's determinant under cfg, the one that inverse and
    validate read. Its verdict is kept on g per cfg, so each setting tests a
    metric once and every call is still judged with its own cfg."""
    return _derive(g, ("nondegeneracy", cfg),
                   lambda: ex.is_identically_zero(determinant(g), cfg=cfg))


def inverse(g: Metric, *, cfg: ProbeConfig = ProbeConfig()) -> Metric:
    """Exact inverse as a Metric on the same chart: each diagonal block of g's
    nonzero pattern is its adjugate over its determinant, all else is 0. A
    1x1 block is the reciprocal of its entry, one negative power of a
    reduced pair with no product and no reduction.

    The inverse is built once per metric. It is refused unless the
    determinant is certified nonzero under this call's cfg, a verdict made
    once per metric and cfg by _nondegeneracy.
    """
    verdict = _nondegeneracy(g, cfg)
    if verdict.is_zero:
        raise DegenerateMetricError("metric determinant is identically zero")
    if verdict.is_unknown:
        try:
            shown = ex.to_string(determinant(g))
        except ex.ExprError:  # a coefficient too long to print
            shown = "a determinant with a coefficient too long to print"
        raise DegenerateMetricError(
            "cannot certify nondegeneracy: determinant zero-test is inconclusive "
            f"for {shown}"
        )
    return _derive(g, "inverse", lambda: _inverse(g))


def _inverse(g: Metric) -> Metric:
    memo: dict = {}
    entries: dict = {}
    for block in _blocks(g):
        if len(block) == 1:
            (i,) = block
            entries[(i, i)] = g.entry(i, i) ** -1
            continue
        # a block that is the whole matrix reads the kept determinant
        inv_det = (determinant(g) if len(block) == g.dim
                   else _det_minor(block, block, g.entry, memo)) ** -1
        # the adjugate of a symmetric matrix is symmetric: build j >= i only
        for a, i in enumerate(block):
            for b, j in enumerate(block[a:], start=a):
                # adj[i][j] = (-1)^(a+b) * block minor with row j and column i removed
                minor_rows = block[:b] + block[b + 1:]
                minor_cols = block[:a] + block[a + 1:]
                m = _det_minor(minor_rows, minor_cols, g.entry, memo)
                entries[(i, j)] = eprod(((-1) ** (a + b), m, inv_det))
    return Metric(g.chart, entries, g.frame)


def validate(g: Metric, *, cfg: ProbeConfig = ProbeConfig()) -> list:
    """Diagnostics: chart closure, then nondegeneracy under cfg as
    _nondegeneracy judges it. Empty = valid. A Metric is symmetric by
    construction."""
    issues = []
    allowed = set(g.chart.coords)
    for (i, j), e in g.items():
        extra = sorted(ex._free_coords(e) - allowed)
        if extra:
            issues.append(
                f"chart-closure violation: g[{i + 1},{j + 1}] references "
                f"undeclared coordinate(s) {extra}"
            )
    if not issues:
        verdict = _nondegeneracy(g, cfg)
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
    return Metric(chart, entries)


def load_metric_document(path) -> Metric:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric_document(fh.read())
