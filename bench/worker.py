"""One benchmark process: a pass of in-process ops, or one traced CLI request.

    worker.py pass --workload W --seed S --ops 3,0,1 [--trace FILE] [--profile-check]
    worker.py cli --trace FILE [--profile-check] -- ARGS...

``pass`` runs the listed ops of an in-process workload in order, times each
call with ``perf_counter`` and prints one JSON line with each op's latency,
known-answer check and digest.  ``cli`` installs the tracer and calls
``liftgeo.cli.main(ARGS)``; stdout carries only the CLI's report and the exit
code is the CLI's.  With ``--trace`` the tracer's counters and spans go to
FILE when the process ends; ``--profile-check`` also runs cProfile and adds
its call counts for the cross-check.  Both need ``liftgeo`` on the path.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402


def _start_trace(args):
    if not args.trace:
        return None, None
    tracer = Tracer()
    tracer.install()
    profiler = cProfile.Profile() if args.profile_check else None
    return tracer, profiler


def _finish_trace(args, tracer, profiler):
    if tracer is None:
        return
    tracer.uninstall()
    dump = tracer.dump()
    if profiler is not None:
        dump["profile_check"] = tracer.profile_check(profiler)
    with open(args.trace, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)


def run_pass(args) -> int:
    work = workloads.InProcess(args.workload, args.seed)
    tracer, profiler = _start_trace(args)
    ops = []
    for index in (int(i) for i in args.ops.split(",")):
        op_id = f"{args.workload}:{args.seed}:{index}:{len(ops)}"
        if tracer is not None:
            tracer.begin_op(op_id)
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            result, error = work.run(index), None
        except Exception:  # an op that raises is a failed op, not a crash
            result, error = None, traceback.format_exc(limit=3)
        finally:
            latency = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
        digest = None
        if result is not None:
            error, digest = work.check(result), work.digest(result)
        ops.append({"index": index, "latency_s": latency, "error": error, "digest": digest})
    _finish_trace(args, tracer, profiler)
    print(json.dumps({"ops": ops}))
    return 0


def run_cli(args) -> int:
    from liftgeo import cli

    tracer, profiler = _start_trace(args)
    if tracer is not None:
        tracer.begin_op(" ".join(args.argv))
    if profiler is not None:
        profiler.enable()
    try:
        code = cli.main(args.argv)
    finally:
        if profiler is not None:
            profiler.disable()
        sys.stdout.flush()
        _finish_trace(args, tracer, profiler)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True, choices=("theorem-sweep", "paper-tables"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", required=True, help="comma-separated op indices")
    p.add_argument("--trace")
    p.add_argument("--profile-check", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("--trace")
    p.add_argument("--profile-check", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "pass":
        return run_pass(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
