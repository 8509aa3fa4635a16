"""The benchmark's in-process workloads still run against the package.

bench/ is fixed with the benchmark's definition, so a change to the package
that drops a name or a result field it reads must fail here, not in a
benchmark run.
"""

import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["theorem-sweep", "paper-tables"])
def test_in_process_workload_gives_its_known_answer(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    inputs = workloads.InProcess(workload, 0)
    for index in (0, 1):
        result = inputs.run(index)
        assert inputs.check(result) is None
        assert len(inputs.digest(result)) == 64
