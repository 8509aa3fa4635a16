"""Golden reports: the `--format json` stdout of fixed requests on the
bundled metric files must stay byte-identical.

A change that alters a report on purpose regenerates its golden file and
says why; every other change must leave them as they are. To regenerate
one, run its request from the repository root, e.g.

    PYTHONPATH=src python -m liftgeo.cli christoffel metrics/gks.metric \\
        --format json > tests/golden/christoffel-gks.json
"""

import pathlib

import pytest

from liftgeo.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _requests():
    for name in ("gks", "sphere"):
        path = f"metrics/{name}.metric"
        yield f"christoffel-{name}", ["christoffel", path]
        yield f"curvature-{name}", ["curvature", path, "--fiber-contract"]
        for kind in ("sasaki", "horizontal", "complete"):
            yield f"lift-{kind}-{name}", ["lift", path, "--kind", kind, "--connection"]
    # a member with built-in atoms and non-monomial denominators
    path = "metrics/ks.metric"
    yield "christoffel-ks", ["christoffel", path]
    yield "curvature-ks", ["curvature", path, "--fiber-contract"]
    yield "lift-complete-ks", ["lift", path, "--kind", "complete", "--connection"]
    for kind in ("sasaki", "horizontal"):
        yield f"lift-{kind}-ks", ["lift", path, "--kind", kind, "--connection"]
    # a dense metric: curvature and lifts of values over multi-term
    # denominators
    yield "curvature-offdiag", ["curvature", "metrics/offdiag.metric", "--fiber-contract"]
    for kind in ("sasaki", "horizontal", "complete"):
        yield f"lift-{kind}-offdiag", [
            "lift", "metrics/offdiag.metric", "--kind", kind, "--connection",
        ]
    yield "harmonic-complete-ks-ks", ["harmonic", path, path, "--lift", "complete"]
    yield "harmonic-complete-gks-gks", [
        "harmonic", "metrics/gks.metric", "metrics/gks.metric", "--lift", "complete",
    ]
    # adapted-frame lifts; the Sasaki report carries a note
    for kind in ("sasaki", "horizontal"):
        yield f"harmonic-{kind}-gks-gks", [
            "harmonic", "metrics/gks.metric", "metrics/gks.metric", "--lift", kind,
        ]
    # not-harmonic pairs: the witness is evaluated over a multi-term
    # denominator (ks against gks) and over monomial denominators (g1, ghat1)
    yield "harmonic-ks-gks", ["harmonic", path, "metrics/gks.metric"]
    # and their lifts: the witness and the value of the base pair, doubled on
    # the barred index for the complete lift
    for kind in ("sasaki", "horizontal", "complete"):
        yield f"harmonic-{kind}-ks-gks", [
            "harmonic", path, "metrics/gks.metric", "--lift", kind,
        ]
    yield "harmonic-g1-ghat1", ["harmonic", "metrics/g1.metric", "metrics/ghat1.metric"]
    # the symbolic and finite-difference self-checks; offdiag's derivatives
    # have multi-term denominators
    for name in ("gks", "ks", "sphere", "offdiag"):
        yield f"verify-{name}", ["verify", f"metrics/{name}.metric", "--seed", "5"]
    # every bundled reference scenario, the benchmark's paper-tables among them
    yield "paper-check-all", ["paper-check", "--scenario", "all", "--seed", "3"]


REQUESTS = dict(_requests())


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_matches_golden(name, capsys, monkeypatch):
    # each report names its input by the path it was given
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("LIFTGEO_FORMAT", raising=False)
    monkeypatch.delenv("LIFTGEO_SEED", raising=False)
    code = main(REQUESTS[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_golden_file_has_a_request():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(REQUESTS)
