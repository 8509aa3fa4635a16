"""Command-line interface.

Subcommands parse metric definition files, run the geometric computations
and the bundled reference scenarios, and emit deterministic text or JSON
reports (same seed + inputs = byte-identical output). Expressions inside
JSON reports are strings in the expression grammar and re-parse cleanly.

Exit codes: 0 checks pass / verdict computed, 1 check failure, 2 usage or
parse error, 3 inconclusive (an undecided zero-test), 141 the reader closed
standard output before the report was written (as a shell reports a
process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

try:
    # hashlib loads OpenSSL; the interpreter's own module gives the same digest
    from _sha256 import sha256 as _sha256
except ImportError:
    from hashlib import sha256 as _sha256

from . import SCENARIO_NAMES, __version__
from . import expr as ex
from .expr import ProbeConfig, to_string
from .geometry import GeometryError, MetricFileError, parse_metric_document, validate
from .connection import christoffel, fiber_contract, metric_compatibility_residual, riemann
from .lifts import LiftKind, lift_connection, lift_metric
from .harmonicity import harmonicity_residuals, lifted_harmonicity
from .oracle import InconclusiveError, finite_difference_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_CLOSED_PIPE = 141

FORMATS = ("text", "json")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS,
        default=os.environ.get("LIFTGEO_FORMAT", "text"),
        help="report format (env LIFTGEO_FORMAT)",
    )
    common.add_argument(
        "--seed", type=int, default=os.environ.get("LIFTGEO_SEED", "0"),
        help="probe RNG seed (env LIFTGEO_SEED)",
    )
    common.add_argument("--probes", type=int, default=ex.DEFAULT_PROBE_COUNT,
                        help="probe count per zero test")
    common.add_argument("--tol", type=float, default=ex.DEFAULT_ZERO_TOL,
                        help="numeric zero tolerance")

    parser = argparse.ArgumentParser(
        prog="liftgeo",
        description="symbolic curvature, tangent-bundle lifts and relative "
                    "harmonicity for generalized Kantowski-Sachs type metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("christoffel", parents=[common],
                       help="Levi-Civita coefficients of a metric file")
    p.add_argument("metric_file")

    p = sub.add_parser("curvature", parents=[common],
                       help="Riemann curvature components")
    p.add_argument("metric_file")
    p.add_argument("--fiber-contract", action="store_true",
                   help="also print R^k_ij0 = R^k_ijh u^h")

    p = sub.add_parser("lift", parents=[common], help="tangent-bundle lift metric")
    p.add_argument("metric_file")
    p.add_argument("--kind", required=True,
                   choices=tuple(k.value for k in LiftKind))
    p.add_argument("--connection", action="store_true",
                   help="also print the lifted connection table")

    p = sub.add_parser("harmonic", parents=[common],
                       help="is the second metric harmonic with respect to the first")
    p.add_argument("g_file")
    p.add_argument("d_file")
    p.add_argument("--lift", choices=tuple(k.value for k in LiftKind),
                   help="compare the lifted pair instead of the base pair")

    p = sub.add_parser("paper-check", parents=[common],
                       help="run the bundled reference-reproduction scenarios")
    p.add_argument("--scenario", default="all",
                   choices=SCENARIO_NAMES + ("all",))

    p = sub.add_parser("verify", parents=[common],
                       help="invariant suite for one metric file")
    p.add_argument("metric_file")
    return parser


class _UnreadableFile(Exception):
    """The path of a metric file that cannot be opened, read or decoded as
    UTF-8."""


def _load(path: str) -> tuple:
    """The metric of the file at path and its report input: the path and
    the SHA-256 of the bytes that were parsed. The file is read once, as
    UTF-8; parse_metric_document's splitlines ends a line at \\n, \\r\\n or
    \\r, as universal newlines do."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError):
        raise _UnreadableFile(path) from None
    return parse_metric_document(text), {"path": path, "sha256": _sha256(data).hexdigest()}


def _report(command: str, inputs, results, diagnostics) -> dict:
    return {
        "command": command,
        "inputs": list(inputs),
        "results": results,
        "diagnostics": list(diagnostics),
        "version": __version__,
    }


def _expr_map(pairs) -> dict:
    return {key: to_string(value) for key, value in pairs}


def _verdict_payload(report) -> dict:
    v = report.verdict
    payload = {"kind": v.kind}
    if v.index is not None:
        payload["index"] = v.index
        payload["witness"] = v.witness
        payload["value"] = v.value
    if v.undecided_indices:
        payload["undecided_indices"] = list(v.undecided_indices)
    return payload


# ---------------------------------------------------------------------------
# text rendering (a pure function of the JSON-able report dict)

def render_text(report: dict) -> str:
    lines = [f"liftgeo {report['version']} :: {report['command']}"]
    for item in report["inputs"]:
        lines.append(f"input {item['path']} sha256={item['sha256'][:16]}")
    results = report["results"]
    command = report["command"]
    if command == "christoffel":
        _render_expr_map(lines, "nonzero Levi-Civita coefficients", results["coefficients"])
    elif command == "curvature":
        _render_expr_map(lines, "nonzero curvature components", results["components"])
        if "fiber_contracted" in results:
            _render_expr_map(lines, "fiber-contracted components", results["fiber_contracted"])
    elif command == "lift":
        lines.append(f"kind: {results['kind']}   frame: {results['frame']}")
        _render_expr_map(lines, "nonzero lifted metric entries", results["metric"])
        if "connection" in results:
            _render_expr_map(lines, "nonzero lifted connection coefficients",
                             results["connection"])
    elif command == "harmonic":
        if results.get("lift"):
            lines.append(f"lift: {results['lift']}")
        _render_expr_map(lines, "trace residuals", results["residuals"])
        verdict = results["verdict"]
        lines.append(f"verdict: {verdict['kind']}")
        if "index" in verdict:
            lines.append(
                f"  nonzero residual at index {verdict['index']}, witness "
                f"{_fmt_witness(verdict['witness'])} -> {verdict['value']:.6g}"
            )
        if verdict.get("undecided_indices"):
            lines.append(f"  undecided indices: {', '.join(verdict['undecided_indices'])}")
        for note in results.get("notes", []):
            lines.append(f"note: {note}")
    elif command == "paper-check":
        for scenario in results["scenarios"]:
            status = "PASS" if scenario["passed"] else (
                "INCONCLUSIVE" if scenario["inconclusive"] else "FAIL")
            lines.append(f"[{status}] {scenario['scenario']}")
            for entry in scenario["entries"]:
                mark = {"match": "ok", "mismatch": "MISMATCH",
                        "inconclusive": "INCONCLUSIVE"}[entry["status"]]
                if entry["status"] == "mismatch" and entry.get("annotated"):
                    mark = "annotated mismatch"
                detail = ""
                if entry.get("difference"):
                    detail += f" difference {entry['difference']}"
                if entry.get("note"):
                    detail += f" ({entry['note']})"
                lines.append(f"  {mark:>20}  {entry['name']}{detail}")
            for note in scenario.get("notes", []):
                lines.append(f"  note: {note}")
    elif command == "verify":
        for check in results["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            detail = f"  ({check['detail']})" if check.get("detail") else ""
            lines.append(f"[{status}] {check['name']}{detail}")
    for note in report["diagnostics"]:
        lines.append(f"diagnostic: {note}")
    return "\n".join(lines) + "\n"


def _render_expr_map(lines, title, mapping):
    lines.append(f"{title}:")
    if not mapping:
        lines.append("  (none)")
        return
    for key in sorted(mapping):
        lines.append(f"  {key} = {mapping[key]}")


def _fmt_witness(witness) -> str:
    if not witness:
        return "{}"
    inner = ", ".join(f"{k}={v:.6g}" for k, v in sorted(witness.items()))
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_christoffel(args, cfg) -> tuple:
    metric, source = _load(args.metric_file)
    conn = christoffel(metric, cfg=cfg)
    coeffs = _expr_map((conn.display_key(*key), v) for key, v in conn.items())
    results = {"coefficients": coeffs}
    return _report("christoffel", [source], results, []), EXIT_OK


def _cmd_curvature(args, cfg) -> tuple:
    metric, source = _load(args.metric_file)
    conn = christoffel(metric, cfg=cfg)
    riem = riemann(conn)
    comps = _expr_map((riem.display_key(*key), v) for key, v in riem.items())
    results = {"components": comps}
    if args.fiber_contract:
        contracted = fiber_contract(riem)
        results["fiber_contracted"] = _expr_map(
            (riem.display_key(h, i, j, "0"), v) for (h, i, j), v in sorted(contracted.items())
        )
    return _report("curvature", [source], results, []), EXIT_OK


def _cmd_lift(args, cfg) -> tuple:
    metric, source = _load(args.metric_file)
    kind = LiftKind(args.kind)
    lifted = lift_metric(metric, kind)
    name = lifted.chart.index_name
    results = {
        "kind": kind.value,
        "frame": lifted.frame.value,
        "metric": _expr_map((f"g_{name(i)},{name(j)}", v) for (i, j), v in lifted.items()),
    }
    if args.connection:
        conn = lift_connection(metric, kind, cfg=cfg)
        results["connection"] = _expr_map(
            (conn.display_key(*key), v) for key, v in conn.items()
        )
    return _report("lift", [source], results, []), EXIT_OK


def _cmd_harmonic(args, cfg) -> tuple:
    g, g_source = _load(args.g_file)
    d, d_source = _load(args.d_file)
    if args.lift:
        report = lifted_harmonicity(g, d, LiftKind(args.lift), cfg=cfg)
    else:
        report = harmonicity_residuals(g, d, cfg=cfg)
    results = {
        "lift": args.lift,
        "residuals": _expr_map(
            (f"rho^{label}", v) for label, v in sorted(report.residuals.items())
        ),
        "verdict": _verdict_payload(report),
        "notes": list(report.notes),
    }
    code = EXIT_INCONCLUSIVE if report.verdict.kind == "undecided" else EXIT_OK
    return _report("harmonic", [g_source, d_source], results, []), code


def _cmd_paper_check(args, cfg) -> tuple:
    from dataclasses import asdict

    from .gks import run_scenario

    scenario_results = run_scenario(args.scenario, cfg)
    payload = []
    for res in scenario_results:
        payload.append({
            "scenario": res.scenario,
            "passed": res.passed,
            "inconclusive": res.inconclusive,
            "entries": [asdict(e) for e in res.entries],
            "notes": list(res.notes),
        })
    results = {"scenarios": payload}
    if any(not s["passed"] and not s["inconclusive"] for s in payload):
        code = EXIT_CHECK_FAILED
    elif any(s["inconclusive"] for s in payload):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return _report("paper-check", [], results, []), code


def _cmd_verify(args, cfg) -> tuple:
    metric, source = _load(args.metric_file)
    checks = []

    issues = validate(metric, cfg=cfg)
    checks.append({
        "name": "metric validation (symmetry, nondegeneracy, chart closure)",
        "passed": not issues,
        "detail": "; ".join(issues) if issues else None,
    })
    if issues:
        # the remaining checks need a usable Levi-Civita connection
        return _report("verify", [source], {"checks": checks}, []), EXIT_CHECK_FAILED

    conn = christoffel(metric, cfg=cfg)
    residual = metric_compatibility_residual(metric, conn)
    nonzero = [key for key, v in residual.items() if v != ex.ZERO]
    checks.append({
        "name": "metric compatibility residual is symbolically zero",
        "passed": not nonzero,
        "detail": f"nonzero at {nonzero}" if nonzero else None,
    })

    riem = riemann(conn)
    n = metric.dim
    # the cyclic sum is antisymmetric in (i, j, k), so one ordered triple
    # each, summed over its nonzero components
    bianchi_bad = [
        (h + 1, i + 1, j + 1, k + 1)
        for h in range(n) for i, j, k in itertools.combinations(range(n), 3)
        if (cyclic := [r for r in (riem.get(h, i, j, k), riem.get(h, j, k, i),
                                   riem.get(h, k, i, j)) if r != ex.ZERO])
        and ex.esum(cyclic) != ex.ZERO
    ]
    checks.append({
        "name": "first Bianchi identity is symbolically zero",
        "passed": not bianchi_bad,
        "detail": f"nonzero at {bianchi_bad}" if bianchi_bad else None,
    })

    worst = 0.0
    fd_failures = []
    inconclusive = []
    targets = [(conn.display_key(*key), v) for key, v in conn.items()]
    targets += [(riem.display_key(*key), v) for key, v in riem.items()]
    for label, value in targets:
        for coord in metric.chart.coords:
            try:
                res = finite_difference_check(value, coord, cfg)
            except InconclusiveError:
                inconclusive.append(f"{label} d/d{coord}")
                continue
            worst = max(worst, res.worst_rel_error)
            if not res.passed:
                fd_failures.append(f"{label} d/d{coord} rel={res.worst_rel_error:.3e}")
    checks.append({
        "name": "finite-difference derivative checks",
        "passed": not fd_failures and not inconclusive,
        "detail": (
            f"worst relative error {worst:.3e}"
            + (f"; failures: {fd_failures}" if fd_failures else "")
            + (f"; inconclusive: {inconclusive}" if inconclusive else "")
        ),
    })

    results = {"checks": checks}
    if any(not c["passed"] for c in checks):
        code = EXIT_CHECK_FAILED
    else:
        code = EXIT_OK
    return _report("verify", [source], results, []), code


_COMMANDS = {
    "christoffel": _cmd_christoffel,
    "curvature": _cmd_curvature,
    "lift": _cmd_lift,
    "harmonic": _cmd_harmonic,
    "paper-check": _cmd_paper_check,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format not in FORMATS:  # argparse checks choices on flags only
            parser.error(f"LIFTGEO_FORMAT must be one of {', '.join(FORMATS)}, "
                         f"not {args.format!r}")
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        cfg = ProbeConfig(seed=args.seed, probes=args.probes, zero_tol=args.tol)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, code = _COMMANDS[args.command](args, cfg)
    except (MetricFileError, ex.ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _UnreadableFile as err:
        print(f"error: cannot read {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GeometryError, ex.ExprError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    try:
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (e.g. `| head`): point stdout at os.devnull, so
        # that the flush at exit does not raise again (the recipe of the
        # Python `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
