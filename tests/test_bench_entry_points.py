"""The benchmark's in-process workloads still run against the package.

bench/ is fixed with the benchmark's definition, so a change to the package
that drops a name or a result field it reads must fail here, not in a
benchmark run.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("workload", ["theorem-sweep", "paper-tables"])
def test_in_process_workload_gives_its_known_answer(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    inputs = workloads.InProcess(workload, 0)
    for index in (0, 1):
        result = inputs.run(index)
        assert inputs.check(result) is None
        assert len(inputs.digest(result)) == 64


def _fresh_python(*args, cwd=ROOT):
    """args run by a new interpreter that imports liftgeo from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_what_the_tracer_wraps_and_not_gks():
    # the tracer installs by importing liftgeo.cli, then reads the module of
    # every target from sys.modules; only paper-check needs gks
    code = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import liftgeo.cli
import tracer
loaded = sorted(m for m in sys.modules if m.startswith("liftgeo."))
tracer.Tracer().install()
print(json.dumps([loaded, sorted({{m for m, _ in tracer.TARGETS}})]))
"""
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    loaded, wrapped = json.loads(done.stdout)
    assert {f"liftgeo.{m}" for m in wrapped} <= set(loaded)
    assert "liftgeo.gks" not in loaded


def test_worker_traces_a_cli_request(tmp_path):
    trace = tmp_path / "trace.json"
    done = _fresh_python(str(BENCH / "worker.py"), "cli", "--trace", str(trace), "--",
                         "christoffel", str(ROOT / "metrics" / "sphere.metric"))
    assert done.returncode == 0, done.stderr
    assert "Gamma^" in done.stdout
    stats = json.loads(trace.read_text())["stats"]
    assert stats["connection.christoffel"]["calls"] == 1
    assert stats["geometry.inverse"]["calls"] >= 1


def test_gks_names_of_the_package_load_on_first_use():
    code = """
import sys
import liftgeo
before = "liftgeo.gks" in sys.modules
from liftgeo import GksSpec, run_scenario
from liftgeo import gks
print(before, GksSpec is gks.GksSpec, run_scenario is gks.run_scenario,
      {"GksSpec", "run_scenario", "SCENARIO_NAMES"} <= set(dir(liftgeo)),
      hasattr(liftgeo, "no_such_name"))
"""
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "True", "True", "False"]
