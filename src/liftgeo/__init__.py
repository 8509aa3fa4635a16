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
from .gks import (  # noqa: F401
    GksSpec, abstract_spec, hatted_abstract_spec, build_gks, condition_18,
    example_pair, theorem_equivalence_check, corpus_pairs, run_scenario,
)
from .oracle import (  # noqa: F401
    finite_difference_check, reconcile_with_paper,
)
