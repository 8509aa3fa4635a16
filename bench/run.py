"""liftgeo benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 55 --trace 0

Run it from the repository root; it imports the package from ``src/`` and
writes temporary files under ``.bench_work/`` (removed at exit) and the spans
of the last traced run of each workload under ``.bench_out/``.  Every pass
runs in a fresh interpreter, one op at a time (a closed loop with one
client): ``paper-check`` and CLI users start with cold program state, so
program caches never carry over between passes.

A run measures passes over the workload's inputs for ``--seconds`` of wall
time, and at least ``MIN_PASSES`` whole passes, so each run of a seed measures
the same inputs, each several times and in different processes.  The latency
of an input is its best time over those cold passes: on a shared 2-core host
other tenants slow the CPU by up to 1.8 times, in stretches from a fraction
of a second to a minute, and the best of k cold runs repeats far better than
any one of them (for the eight table scenarios, the sum of the per-input
bests moved 2 % between runs where the sum of medians moved 16 %).  Long
runs matter for the same reason: a run of about a minute usually spans one
of the host's fast stretches.
``op_p50_s`` and ``op_p90_s`` are percentiles of these per-input latencies
(8, 8 and 16 inputs) and ``ops_per_s`` is inputs over their sum, i.e. the
rate of one pass.  ``op_p90_s`` is printed but not gated: no workload has ten
inputs beyond it.  ``setup_s`` is the median of set-up samples taken before
each pass, and after the last one until there are ``SETUP_SAMPLES``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed amount of work with the tracer installed, the same work
untraced (the difference is ``trace_overhead_s``), and one op under cProfile
to cross-check the tracer's call counts.  Outputs are checked against known
answers (see workloads.py) and each op's report digest must repeat for the
same input and seed across processes.  The last stdout line is the JSON
result; the lines before it are a readable table and the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_SAMPLES = 15
MIN_PASSES = 3  # every input runs at least three times, in different processes
RUN_LIMIT_S = 120.0  # stop launching work after this much wall time
TRACE_OPS = {"theorem-sweep": 8, "paper-tables": 32, "cli-files": 16}
REFERENCE_LOOP = 3_000_000

END_TO_END = (
    ("setup_s", "s"), ("op_p50_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
)

# per-layer metric -> (target, field); fields are read by _layer_value
PER_LAYER = (
    ("poly.p_mul.calls", "_poly.p_mul", "calls"),
    ("poly.p_mul.self_s", "_poly.p_mul", "self_s"),
    ("poly.p_pow.calls", "_poly.p_pow", "calls"),
    ("poly.p_pow.self_s", "_poly.p_pow", "self_s"),
    ("poly.p_gcd.calls", "_poly.p_gcd", "calls"),
    ("poly.p_gcd.self_s", "_poly.p_gcd", "self_s"),
    ("poly.f_make.calls", "_poly.f_make", "calls"),
    ("poly.f_make.self_s", "_poly.f_make", "self_s"),
    ("expr.simplify.calls", "expr.simplify", "calls"),
    ("expr.simplify.total_s", "expr.simplify", "total_s"),
    ("expr.simplify.self_s", "expr.simplify", "self_s"),
    ("expr.simplify.canonical_input_ratio", "expr.simplify", "canonical"),
    ("expr.differentiate.calls", "expr.differentiate", "calls"),
    ("expr.differentiate.total_s", "expr.differentiate", "total_s"),
    ("expr.substitute.calls", "expr.substitute", "calls"),
    ("expr.substitute.total_s", "expr.substitute", "total_s"),
    ("expr.is_identically_zero.calls", "expr.is_identically_zero", "calls"),
    ("expr.is_identically_zero.total_s", "expr.is_identically_zero", "total_s"),
    ("expr.is_identically_zero.decided_ratio", "expr.is_identically_zero", "decided"),
    ("expr.parse.calls", "expr.parse", "calls"),
    ("expr.parse.total_s", "expr.parse", "total_s"),
    ("geometry.inverse.calls_n4", "geometry.inverse", "n4"),
    ("geometry.inverse.calls_n8", "geometry.inverse", "n8"),
    ("geometry.inverse.total_s", "geometry.inverse", "total_s"),
    ("geometry.inverse.self_s", "geometry.inverse", "self_s"),
    ("geometry.inverse.distinct_ratio", "geometry.inverse", "distinct"),
    ("geometry.determinant.calls", "geometry.determinant", "calls"),
    ("geometry.determinant.total_s", "geometry.determinant", "total_s"),
    ("geometry.parse_metric_document.total_s", "geometry.parse_metric_document", "total_s"),
    ("connection.christoffel.calls_n4", "connection.christoffel", "n4"),
    ("connection.christoffel.calls_n8", "connection.christoffel", "n8"),
    ("connection.christoffel.total_s", "connection.christoffel", "total_s"),
    ("connection.christoffel.self_s", "connection.christoffel", "self_s"),
    ("connection.christoffel.distinct_ratio", "connection.christoffel", "distinct"),
    ("connection.riemann.calls", "connection.riemann", "calls"),
    ("connection.riemann.total_s", "connection.riemann", "total_s"),
    ("lifts.lift_metric.calls", "lifts.lift_metric", "calls"),
    ("lifts.lift_metric.total_s", "lifts.lift_metric", "total_s"),
    ("lifts.lift_connection.calls", "lifts.lift_connection", "calls"),
    ("lifts.lift_connection.total_s", "lifts.lift_connection", "total_s"),
    ("harmonicity.harmonicity_residuals.calls", "harmonicity.harmonicity_residuals", "calls"),
    ("harmonicity.harmonicity_residuals.total_s", "harmonicity.harmonicity_residuals", "total_s"),
    ("harmonicity.harmonicity_residuals.self_s", "harmonicity.harmonicity_residuals", "self_s"),
    ("harmonicity.lifted_harmonicity.calls", "harmonicity.lifted_harmonicity", "calls"),
    ("harmonicity.lifted_harmonicity.total_s", "harmonicity.lifted_harmonicity", "total_s"),
    ("oracle.finite_difference_check.calls", "oracle.finite_difference_check", "calls"),
    ("oracle.finite_difference_check.total_s", "oracle.finite_difference_check", "total_s"),
    ("oracle.finite_difference_check.self_s", "oracle.finite_difference_check", "self_s"),
    ("oracle.reconcile_with_paper.calls", "oracle.reconcile_with_paper", "calls"),
    ("oracle.reconcile_with_paper.total_s", "oracle.reconcile_with_paper", "total_s"),
    ("cli.main.total_s", "cli.main", "total_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


class Run:
    """One benchmark invocation: its checkout, work directory and clock."""

    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.started = time.perf_counter()
        os.makedirs(os.path.join(self.root, ".bench_work"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(
            prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(self.root, ".bench_work"))
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LIFTGEO_")}
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.digests = {}
        self.failures = []
        self.attempted = 0
        self._files = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it

    def over_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_LIMIT_S

    # -- processes --------------------------------------------------------

    def spawn(self, cmd: list) -> tuple:
        """Run cmd to completion in the work directory; returns
        (exit code or None on timeout, stdout bytes, stderr bytes, seconds)."""
        self._files += 1
        out_path = os.path.join(self.workdir, f"out{self._files}")
        err_path = os.path.join(self.workdir, f"err{self._files}")
        timeout = max(5.0, RUN_LIMIT_S + 20.0 - (time.perf_counter() - self.started))
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            # a blocking wait: Popen.wait(timeout) polls in steps of up to
            # 50 ms, which would quantize every CLI latency
            watchdog = threading.Timer(timeout, kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        if killed:
            code = None
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return code, stdout, stderr, elapsed

    def setup_sample(self) -> float:
        """Seconds from starting an interpreter to liftgeo.cli being imported."""
        code = "import liftgeo.cli, sys; sys.stdout.write('ready'); sys.stdout.flush()"
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=self.workdir,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        ready = proc.stdout.read(5)
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
        if ready != b"ready" or proc.returncode != 0:
            raise SystemExit(f"error: liftgeo.cli does not import:\n{err.decode(errors='replace')}")
        return elapsed

    # -- ops --------------------------------------------------------------

    def run_ops(self, indices: list, trace_file=None, profile=False, until=None) -> list:
        """Run ops in order (one pass process, or one CLI process each).
        CLI ops stop at the perf_counter time ``until``; a pass process
        always runs whole."""
        if self.args.workload == "cli-files":
            return [self._cli_op(i, trace_file, profile) for i in indices
                    if not self.over_time() and (until is None or time.perf_counter() < until)]
        cmd = [sys.executable, WORKER, "pass", "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--ops", ",".join(map(str, indices))]
        if trace_file:
            cmd += ["--trace", trace_file]
        if profile:
            cmd.append("--profile-check")
        code, stdout, stderr, _ = self.spawn(cmd)
        try:
            ops = json.loads(stdout.decode().splitlines()[-1])["ops"]
        except (ValueError, IndexError, KeyError):
            ops = None
        if code != 0 or ops is None:
            reason = f"pass process exit {code}: {stderr.decode(errors='replace')[-400:]}"
            return [{"index": i, "latency_s": None, "error": reason, "digest": None}
                    for i in indices]
        return ops

    def _cli_op(self, index: int, trace_file, profile) -> dict:
        argv = workloads.cli_argv(index, self.args.seed)
        if trace_file:
            cmd = [sys.executable, WORKER, "cli", "--trace", f"{trace_file}.{index}"]
            cmd += (["--profile-check"] if profile else []) + ["--"] + argv
        else:
            cmd = [sys.executable, "-m", "liftgeo.cli"] + argv
        code, stdout, stderr, elapsed = self.spawn(cmd)
        if code is None:
            error = f"{' '.join(argv)}: timed out"
        else:
            error = workloads.check_cli(argv, code, stdout)
        if error and stderr:
            error += f" ({stderr.decode(errors='replace')[-300:]})"
        return {"index": index, "latency_s": elapsed, "error": error,
                "digest": workloads.digest_bytes(stdout)}

    def record(self, ops: list) -> list:
        """Count ops, failures and digest mismatches; returns the ops."""
        for op in ops:
            self.attempted += 1
            error = op["error"]
            if error is None and op["digest"] is not None:
                first = self.digests.setdefault(op["index"], op["digest"])
                if first != op["digest"]:
                    error = f"op {op['index']}: report digest differs for the same input and seed"
                    op["error"] = error
            if error is not None:
                self.failures.append(error)
        return ops


# ---------------------------------------------------------------------------
# measurement

def reference_loop() -> float:
    """A fixed pure-Python loop, reported beside each run; never used to rescale."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i
    return time.perf_counter() - start


def measure_end_to_end(run: Run) -> tuple:
    args = run.args
    setup, ops = [], []
    passes = 0
    deadline = time.perf_counter() + args.seconds
    last_pass = 0.0
    while not run.over_time():
        # after MIN_PASSES whole passes, stop at --seconds: CLI ops stop at
        # the deadline, and a pass process starts only if it should end by it
        until = deadline if passes >= MIN_PASSES else None
        if until is not None and time.perf_counter() + (
                0.0 if args.workload == "cli-files" else last_pass) > deadline:
            break
        begun = time.perf_counter()
        setup.append(run.setup_sample())  # spread over the run, not bunched
        order = workloads.pass_order(args.workload, args.seed, passes)
        ops += run.record(run.run_ops(order, until=until))
        passes += 1
        last_pass = time.perf_counter() - begun
    while len(setup) < SETUP_SAMPLES:
        setup.append(run.setup_sample())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    best = {}
    for op in ops:
        if op["error"] is None and op["latency_s"] is not None:
            best[op["index"]] = min(op["latency_s"], best.get(op["index"], float("inf")))
    latencies = sorted(best.values()) or [0.0]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(latencies),
        "ops_per_s": len(best) / sum(latencies) if best else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    info = {"inputs": len(best), "passes": passes, "ops": len(ops),
            "op_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                         if len(latencies) > 1 else latencies[0]),
            "setup_samples": setup}
    return metrics, info


def _trace_work(workload: str, seed: int) -> list:
    """Op indices of the traced work, grouped by pass."""
    want = TRACE_OPS[workload]
    groups = []
    while want > 0:
        order = workloads.pass_order(workload, seed, len(groups))[:want]
        groups.append(order)
        want -= len(order)
    return groups


def _layer_value(stats: dict, field: str) -> float:
    calls = stats["calls"]
    if field in ("n4", "n8"):
        return stats["by_dim"].get(field[1:], 0)
    if field in ("canonical", "decided", "distinct"):
        return stats[field] / calls if calls else 0.0
    return stats[field]


def _merge(dumps: list) -> dict:
    merged = {}
    for dump in dumps:
        for name, s in dump["stats"].items():
            m = merged.setdefault(name, {"calls": 0, "primitive": 0, "total_s": 0.0,
                                         "self_s": 0.0, "canonical": 0, "decided": 0,
                                         "distinct": 0, "by_dim": {}})
            for key in ("calls", "primitive", "total_s", "self_s", "canonical",
                        "decided", "distinct"):
                m[key] += s[key]
            for dim, count in s["by_dim"].items():
                m["by_dim"][dim] = m["by_dim"].get(dim, 0) + count
    return merged


def _load_dumps(run: Run, paths: list) -> list:
    dumps = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        except (OSError, ValueError) as err:
            run.failures.append(f"trace file {os.path.basename(path)} unreadable: {err}")
    return dumps


def _trace_paths(run: Run, label: str, indices: list) -> tuple:
    base = os.path.join(run.workdir, label)
    if run.args.workload == "cli-files":
        return base, [f"{base}.{i}" for i in indices]
    return base, [base]


def measure_per_layer(run: Run) -> tuple:
    groups = _trace_work(run.args.workload, run.args.seed)
    traced, untraced, trace_files = [], [], []
    for k, indices in enumerate(groups):
        base, paths = _trace_paths(run, f"trace{k}", indices)
        traced += run.record(run.run_ops(indices, trace_file=base))
        trace_files += paths
    for indices in groups:
        untraced += run.record(run.run_ops(indices))
    if [op["index"] for op in traced] != [op["index"] for op in untraced]:
        run.failures.append("traced and untraced runs did not complete the same ops")
    dumps = _load_dumps(run, trace_files)

    # cross-check the wrapper counts against cProfile on one op
    first = groups[0][:1]
    base, paths = _trace_paths(run, "profile", first)
    run.record(run.run_ops(first, trace_file=base, profile=True))
    profile_rows = []
    for dump in _load_dumps(run, paths):
        profile_rows += dump.get("profile_check", [])
    missed = [f"{name}: tracer {calls} calls ({primitive} primitive), "
              f"cProfile {prof_calls} ({prof_primitive})"
              for name, calls, primitive, prof_calls, prof_primitive in profile_rows
              if (calls, primitive) != (prof_calls, prof_primitive)]
    if not profile_rows:
        run.failures.append("cProfile cross-check produced no counts")
    elif missed:
        run.failures.append("tracer missed calls: " + "; ".join(missed))

    merged = _merge(dumps)
    metrics = {name: _layer_value(merged[target], field) for name, target, field in PER_LAYER}
    overhead = (sum(op["latency_s"] or 0.0 for op in traced)
                - sum(op["latency_s"] or 0.0 for op in untraced))
    metrics["trace_overhead_s"] = overhead
    spans_path = _write_spans(run, dumps)
    info = {"traced_ops": len(traced), "profile_rows": len(profile_rows),
            "spans_file": os.path.relpath(spans_path, run.root)}
    return metrics, info


def _write_spans(run: Run, dumps: list) -> str:
    out_dir = os.path.join(run.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{run.args.workload}.jsonl")
    fields = ("op", "span", "parent", "name", "start", "end", "self_s")
    with open(path, "w", encoding="utf-8") as fh:
        for process, dump in enumerate(dumps):
            for span in dump["spans"]:
                row = dict(zip(fields, span))
                row["process"] = process
                fh.write(json.dumps(row) + "\n")
    return path


# ---------------------------------------------------------------------------
# reporting

def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def run_record(run: Run, loops: list) -> dict:
    return {
        "workload": run.args.workload, "seed": run.args.seed,
        "seconds": run.args.seconds, "trace": run.args.trace,
        "machine": platform.machine(), "processor": platform.processor(),
        "system": platform.platform(), "nproc": os.cpu_count(),
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": _git_commit(run.root),
        "reference_loop_s": loops, "reference_loop_iterations": REFERENCE_LOOP,
    }


def print_table(run: Run, metrics: dict, units: dict, info: dict):
    failed_ratio = len(run.failures) / run.attempted if run.attempted else 0.0
    print(f"workload {run.args.workload}  seed {run.args.seed}  "
          f"ops attempted {run.attempted}  failed {len(run.failures)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'ops_failed_ratio':<44} {failed_ratio:>14.6g} ratio")
    if "inputs" in info:
        print(f"  {'op_p90_s':<44} {info['op_p90_s']:>14.6g} s  (not gated: fewer than "
              f"10 of the {info['inputs']} inputs lie beyond it)")
        print(f"  latencies: best over {info['passes']} cold passes (the last may be "
              f"partial) for each of {info['inputs']} inputs ({info['ops']} ops)")
    for failure in run.failures[:10]:
        print(f"  FAILED: {failure}")


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="liftgeo benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "liftgeo", "cli.py")):
        print("error: run from the repository root; src/liftgeo is missing", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        loops = [reference_loop()]
        if args.workload == "cli-files":
            workloads.write_cli_files(run.workdir)
        if args.trace:
            metrics, info = measure_per_layer(run)
            units = {name: _unit(name) for name in metrics}
        else:
            metrics, info = measure_end_to_end(run)
            units = dict(END_TO_END)
        loops.append(reference_loop())
        print_table(run, metrics, units, info)
        print("run-record " + json.dumps(run_record(run, loops)))
        print("info " + json.dumps(info))
        result = {
            "correct": not run.failures,
            "attempted": max(run.attempted, 1),
            "failed": len(run.failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        }
        print(json.dumps(result))
    finally:
        run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
