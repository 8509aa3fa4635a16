"""Symbolic curvature, tangent-bundle lift metrics and relative harmonicity
for generalized Kantowski-Sachs type spacetimes."""

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    Expr, Normal, Coord, Const, FuncApp, KnownFunc,
    FuncSymbol, SymbolTable, ZeroVerdict, ProbeConfig, parse, to_string, simplify,
    differentiate, substitute, eval_numeric, is_identically_zero, equivalent,
)
from .geometry import (  # noqa: F401
    Chart, Frame, Metric, inverse, determinant, validate,
    parse_metric_document, load_metric_document,
)
from .connection import (  # noqa: F401
    Connection, Riemann, christoffel, riemann, fiber_contract,
    metric_compatibility_residual,
)
from .lifts import LiftKind, lift_metric, lift_connection  # noqa: F401
from .harmonicity import (  # noqa: F401
    HarmonicityReport, harmonicity_residuals, lifted_harmonicity,
)
from .oracle import (  # noqa: F401
    finite_difference_check, reconcile_with_paper,
)

# the paper-check scenarios of gks, in the order of run_scenario("all"); the
# cli offers them without loading gks
SCENARIO_NAMES = (
    "gamma-matrices", "inverse", "traces", "example1", "curvature-table",
    "sasaki", "horizontal", "complete", "complete-table", "theorem-equivalence",
)

# the names of gks, which only paper-check reads; they load on first use
_GKS_NAMES = (
    "GksSpec", "abstract_spec", "hatted_abstract_spec", "build_gks", "condition_18",
    "example_pair", "theorem_equivalence_check", "corpus_pairs", "run_scenario",
)


def __getattr__(name):
    if name in _GKS_NAMES:
        from . import gks
        return getattr(gks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_GKS_NAMES])
