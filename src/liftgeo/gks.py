"""Generalized Kantowski-Sachs family: builders, the trace condition (18),
the paper-check scenarios and the transcribed reference tables they
reconcile against.

The trace-condition theorem is one exact identity between the traces and
the two obstructions of the abstract pair, of which every member is a
specialization; the lift scenarios check the lift identities on that pair.

The family is g = dt^2 - X(t)^2 dr^2 - Y(t)^2 [dtheta^2 + f(theta)^2 dphi^2]
over the chart (t, r, theta, phi); it is called Kantowski-Sachs, Bianchi
type-III or type-I when f is sin, sinh or the identity.

The reference tables are hand-transcribed closed forms, each text parsed
once per process, on first read. Three transcription
notes (see the scenario outputs): the printed source table for the complete
lift carries Gamma^2bar_1,2 = u1*(X*X'' + X'^2)/X^2 whereas the generic
computation gives u1*(X*X'' - X'^2)/X^2; that entry is kept verbatim and
reported as the single annotated discrepancy, with the generic value as the
arbiter. Two other printed entries (Gamma^3bar_4bar,4 and R^2_2,3,0) have
sign slips that contradict both the generic formulas and their own
companion entries; those are transcribed sign-corrected.
"""

from __future__ import annotations

import functools
import random
from typing import Mapping, Optional

from . import SCENARIO_NAMES
from . import expr as ex
from .expr import (
    Const, Coord, Expr, FuncSymbol, KnownFunc, ProbeConfig, SymbolTable, ZERO,
    _Record, _set, equivalent, esum, eprod, parse,
)
from .expr import to_string  # noqa: F401  (bench/workloads.py digests through gks.to_string)
from .geometry import Chart, Metric, inverse
from .connection import christoffel, fiber_contract, riemann
from .lifts import LiftKind, lift_connection, lift_metric
from .harmonicity import HarmonicityReport, _trace, harmonicity_residuals, lifted_harmonicity
from .oracle import ReconEntry, reconcile_with_paper

__all__ = [
    "BASE_CHART", "GksSpec", "abstract_spec", "hatted_abstract_spec",
    "build_gks", "condition_18", "example_pair", "TheoremCheck",
    "theorem_equivalence_check", "corpus_pairs",
    "ScenarioResult", "run_scenario", "SCENARIO_NAMES",
]

BASE_CHART = Chart(("t", "r", "theta", "phi"))


class GksSpec(_Record):
    """The three defining functions; abstract or with concrete bodies."""

    __slots__ = _fields = ("X", "Y", "f")

    def __init__(self, X: FuncSymbol, Y: FuncSymbol, f: FuncSymbol):
        if X.var != "t" or Y.var != "t":
            raise ValueError("X and Y must be functions of t")
        if f.var != "theta":
            raise ValueError("f must be a function of theta")
        _set(self, "X", X)
        _set(self, "Y", Y)
        _set(self, "f", f)


def abstract_spec() -> GksSpec:
    return GksSpec(FuncSymbol("X", "t"), FuncSymbol("Y", "t"), FuncSymbol("f", "theta"))


def hatted_abstract_spec() -> GksSpec:
    return GksSpec(FuncSymbol("Xh", "t"), FuncSymbol("Yh", "t"), FuncSymbol("fh", "theta"))


def build_gks(spec: GksSpec) -> Metric:
    """diag(1, -X^2, -Y^2, -Y^2 f^2) over (t, r, theta, phi)."""
    X = spec.X.app()
    Y = spec.Y.app()
    f = spec.f.app()
    return Metric.from_entries(BASE_CHART, {
        (0, 0): ex.ONE,
        (1, 1): -(X * X),
        (2, 2): -(Y * Y),
        (3, 3): eprod((-1, Y, Y, f, f)),
    })


def condition_18(g_spec: GksSpec, hat_spec: GksSpec) -> tuple:
    """The two trace obstructions for the hatted metric against the base one.

    First:  (Xh'Xh - X'X)/X^2 + (Yh'Yh - Y'Y)/Y^2 + (Yh'Yh fh^2 - Y'Y f^2)/(Y^2 f^2)
    Second: -fh fh' + f f'
    Both vanish exactly when the hatted metric is harmonic with respect to
    the base metric.
    """
    X, Xp = g_spec.X.app(), g_spec.X.app(1)
    Y, Yp = g_spec.Y.app(), g_spec.Y.app(1)
    f, fp = g_spec.f.app(), g_spec.f.app(1)
    Xh, Xhp = hat_spec.X.app(), hat_spec.X.app(1)
    Yh, Yhp = hat_spec.Y.app(), hat_spec.Y.app(1)
    fh, fhp = hat_spec.f.app(), hat_spec.f.app(1)
    first = esum((
        (Xhp * Xh - Xp * X) / (X * X),
        (Yhp * Yh - Yp * Y) / (Y * Y),
        (eprod((Yhp, Yh, fh, fh)) - eprod((Yp, Y, f, f))) / eprod((Y, Y, f, f)),
    ))
    second = esum((-(fh * fhp), f * fp))
    return first, second


def example_pair() -> tuple:
    """The worked pair: a Bianchi type-III metric (constants c1, c2, sinh)
    checked against a Bianchi type-I metric (constants e1, e2, identity).

    Both are read with the dr^2 factors restored (constant X, Y); dropping
    them would leave degenerate matrices outside the family.
    """
    ghat = GksSpec(
        FuncSymbol("Xh", "t", Const("c1")),
        FuncSymbol("Yh", "t", Const("c2")),
        FuncSymbol("fh", "theta", KnownFunc("sinh", Coord("theta"))),
    )
    g = GksSpec(
        FuncSymbol("X", "t", Const("e1")),
        FuncSymbol("Y", "t", Const("e2")),
        FuncSymbol("f", "theta", Coord("theta")),
    )
    return g, ghat


# ---------------------------------------------------------------------------
# theorem checks

class TheoremCheck(_Record):
    """Evidence that the trace-condition theorem holds for one metric pair."""

    __slots__ = _fields = ("pair", "base_report", "condition", "condition_holds", "results")

    def __init__(self, pair: str, base_report: HarmonicityReport, condition: tuple,
                 condition_holds: Optional[bool], results: Mapping):
        _set(self, "pair", pair)
        _set(self, "base_report", base_report)
        _set(self, "condition", condition)  # the two obstruction expressions
        _set(self, "condition_holds", condition_holds)
        _set(self, "results", results)  # name -> True/False/None (None = inconclusive)

    @property
    def passed(self) -> bool:
        return all(v is True for v in self.results.values())

    @property
    def inconclusive(self) -> bool:
        return any(v is None for v in self.results.values())


def theorem_equivalence_check(
    g_spec: GksSpec,
    hat_spec: GksSpec,
    cfg: ProbeConfig = ProbeConfig(),
    *,
    pair_name: str = "pair",
) -> TheoremCheck:
    """Check, for this pair, that the harmonicity verdict matches the joint
    vanishing of the two obstructions. The theorem-equivalence scenario
    proves this once for the whole family; this is its probe on one pair."""
    base = harmonicity_residuals(build_gks(g_spec), build_gks(hat_spec), cfg=cfg)
    base_ok = None if base.verdict.kind == "undecided" else base.verdict.kind == "harmonic"
    c1, c2 = condition_18(g_spec, hat_spec)
    v1, v2 = (ex.is_identically_zero(c, cfg=cfg) for c in (c1, c2))
    cond_ok = None if v1.is_unknown or v2.is_unknown else v1.is_zero and v2.is_zero
    agree = None if base_ok is None or cond_ok is None else base_ok == cond_ok
    return TheoremCheck(
        pair=pair_name,
        base_report=base,
        condition=(c1, c2),
        condition_holds=cond_ok,
        results={"trace-condition": agree},
    )


_F_BODIES = ("sin", "sinh", "identity")


def _f_body(kind: str) -> Expr:
    if kind == "identity":
        return Coord("theta")
    return KnownFunc(kind, Coord("theta"))


def _t_body(kind: str, const_name: str) -> Expr:
    t = Coord("t")
    if kind == "const":
        return Const(const_name)
    if kind == "t":
        return t
    if kind == "t2":
        return t ** 2
    return 1 + t ** 2


def _corpus_spec(hat: str, consts: str, i: int, x_kind: str, y_kind: str, f_kind: str) -> GksSpec:
    """A concrete member named X, Y, f plus hat; constant scale functions of
    pair i are named consts + i + a (X) and b (Y)."""
    return GksSpec(
        FuncSymbol("X" + hat, "t", _t_body(x_kind, f"{consts}{i}a")),
        FuncSymbol("Y" + hat, "t", _t_body(y_kind, f"{consts}{i}b")),
        FuncSymbol("f" + hat, "theta", _f_body(f_kind)),
    )


def corpus_pairs(seed: int = 0, count: int = 20) -> list:
    """Seeded pairs of concrete family members, mixing harmonic cases
    (all-constant scale functions with a shared fiber profile) with
    generic non-harmonic ones."""
    rng = random.Random(seed)
    kinds = ("const", "t", "t2", "1+t2")
    pairs = []
    for i in range(count):
        roll = rng.random()
        fk = rng.choice(_F_BODIES)
        if roll < 0.25:
            # all-constant pair with the same profile: harmonic
            g = _corpus_spec("", "e", i, "const", "const", fk)
            d = _corpus_spec("h", "c", i, "const", "const", fk)
        elif roll < 0.35:
            # identical pair: trivially harmonic
            xk, yk = rng.choice(kinds), rng.choice(kinds)
            g = _corpus_spec("", "e", i, xk, yk, fk)
            d = _corpus_spec("h", "e", i, xk, yk, fk)
        else:
            g = _corpus_spec("", "e", i, rng.choice(kinds), rng.choice(kinds), fk)
            d = _corpus_spec("h", "c", i, rng.choice(kinds), rng.choice(kinds),
                             rng.choice(_F_BODIES))
        pairs.append((f"pair{i:02d}", g, d))
    return pairs


# ---------------------------------------------------------------------------
# transcribed reference tables

# one table serves every entry: parsing fills its atom memo but changes
# what no name means
_REF_SYMBOLS = SymbolTable(
    coords=("t", "r", "theta", "phi", "u1", "u2", "u3", "u4"),
    funcs=(FuncSymbol(name, var) for name, var in (
        ("X", "t"), ("Y", "t"), ("f", "theta"), ("Xh", "t"), ("Yh", "t"), ("fh", "theta"),
    )),
)


@functools.cache
def _ref(text: str) -> Expr:
    """The value of a transcribed text, parsed once per process: the texts
    are constants of the paper, and no caller mutates a value's pair."""
    return parse(text, _REF_SYMBOLS)


# nonzero Levi-Civita coefficients of the abstract family (stored i <= j)
GAMMA_REF = {
    (0, 1, 1): "X(t)*X'(t)",
    (0, 2, 2): "Y(t)*Y'(t)",
    (0, 3, 3): "Y(t)*Y'(t)*f(theta)^2",
    (1, 0, 1): "X'(t)/X(t)",
    (2, 0, 2): "Y'(t)/Y(t)",
    (2, 3, 3): "-f(theta)*f'(theta)",
    (3, 0, 3): "Y'(t)/Y(t)",
    (3, 2, 3): "f'(theta)/f(theta)",
}

INVERSE_REF = {
    (0, 0): "1",
    (1, 1): "-1/X(t)^2",
    (2, 2): "-1/Y(t)^2",
    (3, 3): "-1/(Y(t)^2*f(theta)^2)",
}

# only nonzero traces of g^-1 (GammaHat - Gamma) for the abstract pair
TRACE_REF = {
    "rho^1": "-((Xh'(t)*Xh(t) - X'(t)*X(t))/X(t)^2"
             " + (Yh'(t)*Yh(t) - Y'(t)*Y(t))/Y(t)^2"
             " + (Yh'(t)*Yh(t)*fh(theta)^2 - Y'(t)*Y(t)*f(theta)^2)"
             "/(Y(t)^2*f(theta)^2))",
    "rho^2": "0",
    "rho^3": "-(-fh(theta)*fh'(theta) + f(theta)*f'(theta))"
             "/(Y(t)^2*f(theta)^2)",
    "rho^4": "0",
}

# fiber-contracted curvature R^h_ij0; R^2_2,3,0 is transcribed with the +
# sign demanded by the curvature formula and by its own phi-direction
# companion R^2_2,4,0
CURVATURE_REF = {
    (0, 0, 1): "u2*X(t)*X''(t)",
    (1, 0, 1): "u1*X''(t)/X(t)",
    (0, 0, 2): "u3*Y(t)*Y''(t)",
    (2, 0, 2): "u1*Y''(t)/Y(t)",
    (0, 0, 3): "u4*f(theta)^2*Y(t)*Y''(t)",
    (3, 0, 3): "u1*Y''(t)/Y(t)",
    (1, 1, 2): "u3*X'(t)*Y(t)*Y'(t)/X(t)",
    (2, 1, 2): "-u2*X(t)*X'(t)*Y'(t)/Y(t)",
    (1, 1, 3): "u4*f(theta)^2*X'(t)*Y(t)*Y'(t)/X(t)",
    (3, 1, 3): "-u2*X(t)*X'(t)*Y'(t)/Y(t)",
    (2, 2, 3): "u4*f(theta)*(f(theta)*Y'(t)^2 - f''(theta))",
    (3, 2, 3): "-u3*(f(theta)*Y'(t)^2 - f''(theta))/f(theta)",
}

# complete lift metric blocks (upper triangle, 0-based slots; 4..7 = fibers)
COMPLETE_METRIC_REF = {
    (0, 4): "1",
    (1, 1): "-2*u1*X(t)*X'(t)",
    (1, 5): "-X(t)^2",
    (2, 2): "-2*u1*Y(t)*Y'(t)",
    (2, 6): "-Y(t)^2",
    (3, 3): "-(2*u1*Y(t)*Y'(t)*f(theta)^2 + 2*u3*Y(t)^2*f(theta)*f'(theta))",
    (3, 7): "-Y(t)^2*f(theta)^2",
}

COMPLETE_INVERSE_REF = {
    (0, 4): "1",
    (1, 5): "-1/X(t)^2",
    (2, 6): "-1/Y(t)^2",
    (3, 7): "-1/(Y(t)^2*f(theta)^2)",
    (5, 5): "2*u1*X'(t)/X(t)^3",
    (6, 6): "2*u1*Y'(t)/Y(t)^3",
    (7, 7): "2*(u1*f(theta)*Y'(t) + u3*f'(theta)*Y(t))/(Y(t)^3*f(theta)^3)",
}

# printed complete-lift connection table. Gamma^2bar_1,2 is kept verbatim
# (the one annotated discrepancy against the generic computation);
# Gamma^3bar_4bar,4 is transcribed sign-corrected (see module docstring).
# The printed table omits five mixed mirror slots (for example
# Gamma^1bar_2,2bar); completeness is covered by the pattern check instead.
COMPLETE_CONNECTION_REF = {
    (0, 1, 1): "X(t)*X'(t)",
    (0, 2, 2): "Y(t)*Y'(t)",
    (0, 3, 3): "Y(t)*Y'(t)*f(theta)^2",
    (1, 0, 1): "X'(t)/X(t)",
    (2, 0, 2): "Y'(t)/Y(t)",
    (2, 3, 3): "-f(theta)*f'(theta)",
    (3, 0, 3): "Y'(t)/Y(t)",
    (3, 2, 3): "f'(theta)/f(theta)",
    (4, 1, 1): "u1*(X(t)*X''(t) + X'(t)^2)",
    (4, 2, 2): "u1*(Y(t)*Y''(t) + Y'(t)^2)",
    (4, 3, 3): "f(theta)*(u1*f(theta)*Y'(t)^2 + 2*u3*Y(t)*Y'(t)*f'(theta)"
               " + u1*Y(t)*f(theta)*Y''(t))",
    (5, 0, 1): "u1*(X(t)*X''(t) + X'(t)^2)/X(t)^2",
    (5, 1, 4): "X'(t)/X(t)",
    (5, 0, 5): "X'(t)/X(t)",
    (6, 0, 2): "u1*(Y(t)*Y''(t) - Y'(t)^2)/Y(t)^2",
    (6, 2, 4): "Y'(t)/Y(t)",
    (6, 0, 6): "Y'(t)/Y(t)",
    (6, 3, 3): "-u3*(f'(theta)^2 + f(theta)*f''(theta))",
    (6, 3, 7): "-f(theta)*f'(theta)",
    (7, 0, 3): "u1*(Y(t)*Y''(t) - Y'(t)^2)/Y(t)^2",
    (7, 2, 3): "u3*(f(theta)*f''(theta) - f'(theta)^2)/f(theta)^2",
    (7, 3, 4): "Y'(t)/Y(t)",
    (7, 3, 6): "f'(theta)/f(theta)",
}

COMPLETE_ANNOTATED_KEY = (5, 0, 1)
COMPLETE_ANNOTATED_NOTE = (
    "expected discrepancy: the printed table carries u1*(X*X'' + X'^2)/X^2 "
    "while the generic computation gives u1*(X*X'' - X'^2)/X^2 = u^l d_l "
    "Gamma^2_1,2; the generic value is the arbiter"
)


# ---------------------------------------------------------------------------
# scenarios

class ScenarioResult(_Record):
    __slots__ = _fields = ("scenario", "entries", "notes")

    def __init__(self, scenario: str, entries: tuple, notes: tuple = ()):
        _set(self, "scenario", scenario)
        _set(self, "entries", entries)  # of oracle.ReconEntry
        _set(self, "notes", notes)

    @property
    def passed(self) -> bool:
        return all(
            e.status == "match" or (e.status == "mismatch" and e.annotated)
            for e in self.entries
        )

    @property
    def inconclusive(self) -> bool:
        return any(e.status == "inconclusive" for e in self.entries)


def _table(label, computed: Mapping, reference: Mapping, cfg: ProbeConfig) -> list:
    """Reconcile a computed table with a transcribed one, both keyed by index
    tuple; a key on one side only is 0 on the other. label(*key) names an
    entry, and reference holds the transcribed text."""
    keys = computed.keys() | reference.keys()
    return list(reconcile_with_paper(
        {label(*key): computed.get(key, ZERO) for key in keys},
        {label(*key): _ref(reference[key]) if key in reference else ZERO for key in keys},
        cfg,
    ))


def scenario_gamma_matrices(cfg: ProbeConfig, metric) -> ScenarioResult:
    conn = christoffel(metric(abstract_spec()), cfg=cfg)
    entries = _table(conn.display_key, conn.coefficients, GAMMA_REF, cfg)
    return ScenarioResult("gamma-matrices", tuple(entries))


def scenario_inverse(cfg: ProbeConfig, metric) -> ScenarioResult:
    g = metric(abstract_spec())
    entries = _table(lambda i, j: f"ginv_{i + 1},{j + 1}",
                     dict(inverse(g, cfg=cfg).items()), INVERSE_REF, cfg)
    lifted = lift_metric(g, LiftKind.COMPLETE)
    name = lifted.chart.index_name
    entries += _table(lambda i, j: f"cginv_{name(i)},{name(j)}",
                      dict(inverse(lifted, cfg=cfg).items()), COMPLETE_INVERSE_REF, cfg)
    return ScenarioResult("inverse", tuple(entries))


def scenario_traces(cfg: ProbeConfig, metric) -> ScenarioResult:
    report = harmonicity_residuals(
        metric(abstract_spec()), metric(hatted_abstract_spec()), cfg=cfg)
    computed = {f"rho^{k}": report.residual(k) for k in ("1", "2", "3", "4")}
    expected = {key: _ref(s) for key, s in TRACE_REF.items()}
    return ScenarioResult("traces", reconcile_with_paper(computed, expected, cfg))


def scenario_example1(cfg: ProbeConfig, metric) -> ScenarioResult:
    g_spec, hat_spec = example_pair()
    c1, c2 = condition_18(g_spec, hat_spec)
    computed = {"condition-1": c1, "condition-2": c2}
    expected = {
        "condition-1": ZERO,
        "condition-2": _ref("-sinh(theta)*cosh(theta) + theta"),
    }
    entries = list(reconcile_with_paper(computed, expected, cfg))
    report = harmonicity_residuals(metric(g_spec), metric(hat_spec), cfg=cfg)
    if report.verdict.kind == "not_harmonic" and report.verdict.witness:
        witness = ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(report.verdict.witness.items())
        )
        entries.append(ReconEntry(
            name="verdict", status="match",
            note=(
                f"not harmonic; residual rho^{report.verdict.index} at "
                f"{witness} evaluates to {report.verdict.value:.6g}"
            ),
        ))
    elif report.verdict.kind == "undecided":
        entries.append(ReconEntry(name="verdict", status="inconclusive"))
    else:
        entries.append(ReconEntry(
            name="verdict", status="mismatch",
            note=f"expected not_harmonic, got {report.verdict.kind}",
        ))
    notes = (
        "both example metrics are read with the dr^2 factors restored "
        "(constant X, Y); the printed forms drop them",
    )
    return ScenarioResult("example1", tuple(entries), notes)


def scenario_curvature_table(cfg: ProbeConfig, metric) -> ScenarioResult:
    riem = riemann(christoffel(metric(abstract_spec()), cfg=cfg))
    entries = _table(lambda h, i, j: riem.display_key(h, i, j, "0"),
                     fiber_contract(riem), CURVATURE_REF, cfg)
    notes = (
        "R^2_2,3,0 is transcribed with the + sign required by the curvature "
        "formula (the printed - contradicts the companion entry R^2_2,4,0)",
    )
    return ScenarioResult("curvature-table", tuple(entries), notes)


def _lift_trace_scenario(kind: LiftKind, cfg: ProbeConfig, metric) -> ScenarioResult:
    """The traces of the lifted metric and connections of the abstract pair
    against lifted_harmonicity; X, Y, f are free, so every member agrees."""
    g = metric(abstract_spec())
    d = metric(hatted_abstract_spec())
    generic = _trace(lift_metric(g, kind), lift_connection(g, kind, cfg=cfg),
                     lift_connection(d, kind, cfg=cfg), cfg)
    lifted = lifted_harmonicity(g, d, kind, cfg=cfg)
    entries = reconcile_with_paper(
        {f"rho^{k}": generic.residual(k) for k in lifted.residuals},
        {f"rho^{k}": rho for k, rho in lifted.residuals.items()},
        cfg,
    )
    return ScenarioResult(kind.value, entries, tuple(lifted.notes))


def scenario_complete_table(cfg: ProbeConfig, metric) -> ScenarioResult:
    g = metric(abstract_spec())
    lifted = lift_metric(g, LiftKind.COMPLETE)
    # the Christoffel formula on the lifted metric is the arbiter
    conn = christoffel(lifted, cfg=cfg)

    # metric blocks against the printed matrix
    name = lifted.chart.index_name
    entries = _table(lambda i, j: f"cg_{name(i)},{name(j)}",
                     dict(lifted.items()), COMPLETE_METRIC_REF, cfg)

    # printed connection table (keys restricted to the printed entries)
    printed = {key: conn.get(*key) for key in COMPLETE_CONNECTION_REF}
    annotated = conn.display_key(*COMPLETE_ANNOTATED_KEY)
    entries += [
        ReconEntry(e.name, e.status, annotated=e.status == "mismatch",
                   note=COMPLETE_ANNOTATED_NOTE, difference=e.difference,
                   witness=e.witness, value=e.value)
        if e.name == annotated else e
        for e in _table(conn.display_key, printed, COMPLETE_CONNECTION_REF, cfg)
    ]

    # the closed form of lift_connection against every slot, including the
    # mirror slots the printed table omits
    closed = lift_connection(g, LiftKind.COMPLETE, cfg=cfg)
    bad = [
        conn.display_key(k, i, j)
        for k in range(8) for i in range(8) for j in range(i, 8)
        if not equivalent(conn.get(k, i, j), closed.get(k, i, j))
    ]
    entries.append(ReconEntry(
        name="general-pattern",
        status="mismatch" if bad else "match",
        note=(
            f"pattern fails at {bad}" if bad else
            "every slot equals the u-linear pattern "
            "(Gamma, u^l d_l Gamma, mixed copies, zeros)"
        ),
    ))
    notes = (
        "Gamma^3bar_4bar,4 is transcribed sign-corrected to -f*f' "
        "(the printed +f*f' contradicts the generic computation and the "
        "u-linear pattern)",
        "the printed table omits five nonzero mirror slots "
        "(for example Gamma^1bar_2,2bar); they are covered by the "
        "general-pattern entry",
    )
    return ScenarioResult("complete-table", tuple(entries), notes)


def scenario_theorem_equivalence(cfg: ProbeConfig, metric) -> ScenarioResult:
    """The traces of the abstract pair against condition (18): rho^1 = -c1,
    rho^3 = -c2/(Y^2 f^2) and rho^2 = rho^4 = 0, each an exact identity."""
    g_spec, hat_spec = abstract_spec(), hatted_abstract_spec()
    report = harmonicity_residuals(metric(g_spec), metric(hat_spec), cfg=cfg)
    c1, c2 = condition_18(g_spec, hat_spec)
    Y, f = g_spec.Y.app(), g_spec.f.app()
    computed = {
        "rho^1 + c1": report.residual("1") + c1,
        "rho^2": report.residual("2"),
        "Y^2*f^2*rho^3 + c2": eprod((Y, Y, f, f, report.residual("3"))) + c2,
        "rho^4": report.residual("4"),
    }
    notes = (
        "c1, c2 are the obstructions of condition (18); Y*f != 0 by "
        "nondegeneracy, so every member of the family, a specialization of "
        "the abstract pair, is harmonic exactly when c1 = c2 = 0",
        "the lifted statements are this identity composed with the lift "
        "identities, which the sasaki, horizontal and complete scenarios check",
    )
    return ScenarioResult("theorem-equivalence",
                          reconcile_with_paper(computed, dict.fromkeys(computed, ZERO), cfg),
                          notes)


# name -> scenario(cfg, metric), where metric(spec) builds a family member;
# the names are the package's SCENARIO_NAMES, which the cli reads without
# loading this module
_SCENARIOS = dict(zip(SCENARIO_NAMES, (
    scenario_gamma_matrices,
    scenario_inverse,
    scenario_traces,
    scenario_example1,
    scenario_curvature_table,
    functools.partial(_lift_trace_scenario, LiftKind.SASAKI),
    functools.partial(_lift_trace_scenario, LiftKind.HORIZONTAL),
    functools.partial(_lift_trace_scenario, LiftKind.COMPLETE),
    scenario_complete_table,
    scenario_theorem_equivalence,
), strict=True))


def run_scenario(name: str, cfg: ProbeConfig = ProbeConfig()) -> list:
    """Run one named scenario, or all of them; returns a list of results.

    The scenarios of one call build each metric once, and so each inverse,
    connection and curvature once: they build through a memo that
    lives as long as the call and builds only what a scenario reads.
    """
    if name != "all" and name not in _SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)} or all"
        )
    metric = functools.cache(build_gks)
    return [_SCENARIOS[n](cfg, metric) for n in (SCENARIO_NAMES if name == "all" else (name,))]
