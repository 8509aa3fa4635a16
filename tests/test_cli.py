"""End-to-end command-line interface behavior."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import sys
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from liftgeo import _poly
from liftgeo.cli import EXIT_CLOSED_PIPE, main, render_text
from liftgeo.gks import SCENARIO_NAMES

GKS_FILE = """\
chart t r theta phi
func X(t) abstract
func Y(t) abstract
func f(theta) abstract
g 1 1 = 1
g 2 2 = -X(t)^2
g 3 3 = -Y(t)^2
g 4 4 = -Y(t)^2 * f(theta)^2
"""

G1_FILE = """\
chart t r theta phi
g 1 1 = 1
g 2 2 = -e1^2
g 3 3 = -e2^2
g 4 4 = -e2^2 * theta^2
"""

GHAT1_FILE = """\
chart t r theta phi
g 1 1 = 1
g 2 2 = -c1^2
g 3 3 = -c2^2
g 4 4 = -c2^2 * sinh(theta)^2
"""

FLAT_FILE = """\
chart t r
g 1 1 = 1
g 2 2 = 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, body in (("gks", GKS_FILE), ("g1", G1_FILE),
                       ("ghat1", GHAT1_FILE), ("flat", FLAT_FILE)):
        p = tmp_path / f"{name}.metric"
        p.write_text(body)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_christoffel_text(files, capsys):
    code, out, _ = run(capsys, "christoffel", files["gks"])
    assert code == 0
    assert "Gamma^2_1,2 = X'(t)/X(t)" in out
    assert "Gamma^3_4,4 = -f(theta)*f'(theta)" in out


def test_christoffel_of_flat_reports_none(files, capsys):
    code, out, _ = run(capsys, "christoffel", files["flat"])
    assert code == 0
    assert "(none)" in out


def test_curvature_with_fiber_contraction(files, capsys):
    code, out, _ = run(capsys, "curvature", files["gks"], "--fiber-contract")
    assert code == 0
    assert "R^2_1,2,0 = u1*X''(t)/X(t)" in out


def test_lift_with_connection(files, capsys):
    code, out, _ = run(capsys, "lift", files["gks"], "--kind", "complete",
                       "--connection")
    assert code == 0
    assert "g_2,2 = -2*u1*X(t)*X'(t)" in out
    assert "Gamma^2bar_1,2 = u1*X''(t)/X(t) - u1*X'(t)^2/X(t)^2" in out


def test_harmonic_example_pair(files, capsys):
    code, out, _ = run(capsys, "harmonic", files["g1"], files["ghat1"])
    assert code == 0
    assert "verdict: not_harmonic" in out
    assert "rho^3" in out


def test_harmonic_lifted(files, capsys):
    code, out, _ = run(capsys, "harmonic", files["g1"], files["ghat1"],
                       "--lift", "sasaki")
    assert code == 0
    assert "verdict: not_harmonic" in out
    assert "rho^1bar = 0" in out


def test_paper_check_scenario_exit_zero(capsys):
    code, out, _ = run(capsys, "paper-check", "--scenario", "complete-table")
    assert code == 0
    assert "annotated mismatch" in out
    assert "[PASS] complete-table" in out


@pytest.mark.parametrize("kind, code, lines", [
    ("harmonic", 1, ["[FAIL] example1",
                     "MISMATCH  verdict (expected not_harmonic, got harmonic)"]),
    ("undecided", 3, ["[INCONCLUSIVE] example1", "INCONCLUSIVE  verdict"]),
], ids=["mismatch", "inconclusive"])
def test_paper_check_exits_1_on_a_mismatch_and_3_when_inconclusive(
        monkeypatch, capsys, kind, code, lines):
    # the example pair judged harmonic (a mismatch) or undecided
    from liftgeo import gks
    from liftgeo.harmonicity import HarmonicityReport, Verdict
    monkeypatch.setattr(gks, "harmonicity_residuals",
                        lambda g, d, *, cfg: HarmonicityReport({}, Verdict(kind)))
    got, out, err = run(capsys, "paper-check", "--scenario", "example1")
    assert (got, err) == (code, "")
    assert [line.strip() for line in out.splitlines()][1:5] == [
        lines[0], "ok  condition-1", "ok  condition-2", lines[1]]


def test_verify(files, capsys):
    code, out, _ = run(capsys, "verify", files["g1"])
    assert code == 0
    assert out.count("[PASS]") == 4


def test_verify_passes_on_a_steep_entry(tmp_path, capsys):
    # a plain central difference is off by 1.07e-05 here (truncation error
    # on exp(801*t)); the Richardson step is within FD_REL_TOL
    p = tmp_path / "steep.metric"
    p.write_text("chart t x\ng 1 1 = exp(400*t)*exp(401*t)*(2+sin(x))\ng 2 2 = 1\n")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 0, out
    assert out.count("[PASS]") == 4


def test_verify_degenerate_metric_fails(tmp_path, capsys):
    p = tmp_path / "bad.metric"
    p.write_text("chart t r\ng 1 1 = 1\n")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert "[FAIL]" in out


def test_json_round_trips_to_identical_text(files, capsys):
    code, out, _ = run(capsys, "harmonic", files["g1"], files["ghat1"],
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "results", "diagnostics", "version"}
    code2, text, _ = run(capsys, "harmonic", files["g1"], files["ghat1"])
    assert render_text(report) == text
    # the annotated mismatch, its printed difference, the pattern note and
    # the scenario notes
    code, out, _ = run(capsys, "paper-check", "--scenario", "complete-table",
                       "--format", "json")
    assert code == 0
    paper = json.loads(out)
    _, paper_text, _ = run(capsys, "paper-check", "--scenario", "complete-table")
    assert render_text(paper) == paper_text
    assert "annotated mismatch  Gamma^2bar_1,2 difference -2*u1*X'(t)^2/X(t)^2" in paper_text
    assert "general-pattern (every slot equals the u-linear pattern" in paper_text
    assert "  note: the printed table omits five nonzero mirror slots" in paper_text
    # expressions inside the report re-parse
    from liftgeo.expr import parse
    from conftest import full_symbols
    for value in report["results"]["residuals"].values():
        parse(value, full_symbols())


def test_reports_are_deterministic(files, capsys):
    _, out1, _ = run(capsys, "harmonic", files["g1"], files["ghat1"],
                     "--seed", "9", "--format", "json")
    _, out2, _ = run(capsys, "harmonic", files["g1"], files["ghat1"],
                     "--seed", "9", "--format", "json")
    assert out1 == out2


def test_env_fallbacks(files, capsys, monkeypatch):
    monkeypatch.setenv("LIFTGEO_FORMAT", "json")
    _, out, _ = run(capsys, "christoffel", files["flat"])
    json.loads(out)
    # the flag wins over the environment
    _, out, _ = run(capsys, "christoffel", files["flat"], "--format", "text")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_undecided_verdict_exits_inconclusive(tmp_path, capsys):
    g = tmp_path / "g.metric"
    g.write_text("chart theta x\ng 1 1 = 1\ng 2 2 = 1\n")
    d = tmp_path / "d.metric"
    d.write_text(
        "chart theta x\ng 1 1 = 1\n"
        "g 2 2 = 1 + theta*sin(theta)^2 + theta*cos(theta)^2 - theta\n"
    )
    code, out, _ = run(capsys, "harmonic", str(g), str(d))
    assert code == 3
    assert "verdict: undecided" in out


def test_base_and_lifts_agree_on_a_tiny_trace(tmp_path, capsys):
    # rho^1 = -3/4000000000 is within the probe tolerance, so the base pair is
    # undecided; every lift carries that verdict, the complete lift too,
    # although it prints 2 rho^1 on rho^1bar
    flat = tmp_path / "flat.metric"
    flat.write_text("chart t x\ng 1 1 = 1\ng 2 2 = 1\n")
    tiny = tmp_path / "tiny.metric"
    tiny.write_text("chart t x\ng 1 1 = 1\ng 2 2 = 1 + 3*t/(2*10^9)\n")
    for lift in ([], ["--lift", "sasaki"], ["--lift", "horizontal"], ["--lift", "complete"]):
        code, out, _ = run(capsys, "harmonic", str(flat), str(tiny), "--seed", "3", *lift)
        assert code == 3, lift
        assert "verdict: undecided" in out, lift


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "christoffel", "nope.metric")
    assert code == 2
    assert "cannot read" in err


def test_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "christoffel", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: cannot read {tmp_path}\n")


def test_file_that_is_not_utf8_is_usage_error(files, tmp_path, capsys):
    p = tmp_path / "latin1.metric"
    p.write_bytes("chart t r\ng 1 1 = 1\ng 2 2 = t^2  # r\xe9el\n".encode("latin-1"))
    for argv in (["verify", str(p)], ["harmonic", files["flat"], str(p)]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: cannot read {p}\n"), argv


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_file_with_other_line_ends_reads_as_its_copy_with_newlines(
        files, tmp_path, capsys, newline):
    # the lines are those of the \n copy, and the digest is that of the
    # file's own bytes
    p = tmp_path / "crlf.metric"
    p.write_bytes(GKS_FILE.replace("\n", newline).encode())
    reports = []
    for path in (files["gks"], str(p)):
        code, out, _ = run(capsys, "christoffel", path, "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[1]["results"] == reports[0]["results"]
    assert reports[1]["inputs"] == [
        {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}]
    p.write_bytes(newline.join(["chart t r", "g 1 1 = 1 +", ""]).encode())
    code, _, err = run(capsys, "christoffel", str(p))
    assert code == 2 and "line 2" in err


def test_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.metric"
    p.write_text("chart t r\ng 1 1 = 1 +\n")
    code, _, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert "line 2" in err


def test_duplicate_chart_line_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.metric"
    p.write_text("chart t r\ng 1 1 = 1\nchart t r\n")
    code, out, err = run(capsys, "christoffel", str(p))
    assert (code, out, err) == (2, "", "error: line 3: duplicate chart line\n")


def test_unknown_flag_is_usage_error(files, capsys):
    code, _, _ = run(capsys, "christoffel", files["flat"], "--wat")
    assert code == 2


def test_deeply_nested_entry_is_usage_error(tmp_path, capsys):
    p = tmp_path / "deep.metric"
    p.write_text("chart t r\ng 1 1 = 1\ng 2 2 = " + "(" * 5000 + "t" + ")" * 5000 + "\n")
    code, _, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert "line 3" in err and "nested" in err
    assert "Traceback" not in err


def test_expansion_past_the_term_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    powers = []
    p_pow = _poly.p_pow
    monkeypatch.setattr(_poly, "p_pow", lambda *a: powers.append(a) or p_pow(*a))
    p = tmp_path / "power.metric"
    p.write_text("chart x y\ng 1 1 = (1+x+y)^400\ng 2 2 = 1\n")
    code, _, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert "line 2" in err and "terms" in err
    assert "Traceback" not in err
    assert powers == []  # refused before any expansion


def test_product_past_the_term_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    # each power has 1771 terms, within the budget; their product has 6391
    products = []
    p_mul = _poly.p_mul
    monkeypatch.setattr(_poly, "p_mul",
                        lambda a, b: products.append((len(a), len(b))) or p_mul(a, b))
    p = tmp_path / "product.metric"
    p.write_text("chart t x y\ng 1 1 = (1+t+x+y)^20*(1+t-x+y)^20\ng 2 2 = 1\ng 3 3 = 1\n")
    code, _, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert "line 2" in err and "terms" in err
    assert "Traceback" not in err
    # refused before the product expands
    assert products and max(min(sizes) for sizes in products) <= 1000


# metric-file text for the grammar fuzz test: small entries of the grammar,
# token soup from its alphabet and a few characters outside it
_FUZZ_LEAVES = st.sampled_from([
    "t", "x", "y", "c1", "u1", "X(t)", "X'(t)", "X''(x)", "f", "0", "1", "3", "10",
    "sin(x)", "exp(t)", "log(y)", "sqrt(t)", "tan(t)",
])
_FUZZ_EXPRS = st.recursive(
    _FUZZ_LEAVES,
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}^{}".format, inner, st.integers(-3, 6)),
        st.builds("-{}".format, inner),
        st.builds("{}({})".format, st.sampled_from(["sin", "cosh", "exp", "X", "f"]), inner),
    ),
    max_leaves=6,
)
_FUZZ_SOUP = st.lists(
    st.sampled_from(list("tx1209+-*/^()' =") + ["sin", "X", "g", "\u03b8", "\u00b2"]),
    max_size=12,
).map("".join)
_FUZZ_ENTRIES = st.one_of(_FUZZ_EXPRS, _FUZZ_SOUP)
_FUZZ_LINES = st.one_of(
    st.builds("g {} {} = {}".format, st.integers(0, 3), st.integers(1, 3), _FUZZ_ENTRIES),
    st.builds("func {}({}) abstract".format, st.sampled_from(["X", "f", "t", "sin", "u1"]),
              st.sampled_from(["t", "x", "theta"])),
    st.builds("func {}({}) = {}".format, st.sampled_from(["X", "f"]),
              st.sampled_from(["t", "x"]), _FUZZ_ENTRIES),
    st.builds("const {}".format, st.sampled_from(["c1", "c1 c2", "t", "X", "sin"])),
    _FUZZ_SOUP,
)
_FUZZ_FILES = st.one_of(
    st.lists(
        st.builds("g {} {} = {}".format, st.integers(1, 3), st.integers(1, 3), _FUZZ_EXPRS),
        max_size=4,
    ).map(lambda lines: "\n".join(["chart t x y", "func X(t) abstract", *lines]) + "\n"),
    st.builds(
        lambda chart, func, lines: "\n".join([chart, func, *lines]) + "\n",
        st.sampled_from(["chart t x y", "chart t x", "chart t", "chart t t", "chart t u1", ""]),
        st.sampled_from(["func X(t) abstract", ""]),
        st.lists(_FUZZ_LINES, max_size=5),
    ),
)


@settings(max_examples=100, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FUZZ_FILES)
@example("chart t x y\ng 1 1 = (1+t+x+y)^20*(1+t-x+y)^20\ng 2 2 = 1\ng 3 3 = 1\n")
@example("chart x y\ng 1 1 = (1+x+y)^400\ng 2 2 = 1\n")
def test_any_metric_file_ends_in_a_documented_exit_code(tmp_path, text):
    # `lift --kind sasaki` parses and lifts without building a connection,
    # so each case costs what the reader costs
    p = tmp_path / "fuzz.metric"
    p.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lift", str(p), "--kind", "sasaki"])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_high_power_of_a_univariate_polynomial_is_within_the_budget(tmp_path, capsys):
    # 201 terms, although a 3-term polynomial to the 100 could have C(102, 2)
    p = tmp_path / "power.metric"
    p.write_text("chart t x\ng 1 1 = (1+t+t^2)^100\ng 2 2 = 1\n")
    code, _, err = run(capsys, "christoffel", str(p))
    assert code == 0, err


def test_verify_expands_a_high_power_of_an_abstract_function(tmp_path, capsys):
    # the oracle binds the jets of X(t) to its stand-in's value at each
    # point, so a 13th power of X(t) is one power of a double
    p = tmp_path / "power.metric"
    p.write_text("chart t x\nfunc X(t) abstract\ng 1 1 = 1 + X(t)^13\ng 2 2 = 1\n")
    code, _, err = run(capsys, "verify", str(p))
    assert code == 0, err


def test_verify_reports_an_overflowing_power_of_a_stand_in_as_inconclusive(tmp_path, capsys):
    # the derivative of Gamma^1_1,1 = 300*X^599*X'/(1 + X^600) holds X^1198,
    # which overflows a double at every probe of the stand-in for X(t)
    p = tmp_path / "power.metric"
    p.write_text("chart t x\nfunc X(t) abstract\ng 1 1 = 1 + X(t)^600\ng 2 2 = 1\n")
    code, out, err = run(capsys, "verify", str(p), "--seed", "5", "--format", "json")
    assert code == 1, err
    assert err == ""
    (fd,) = [c for c in json.loads(out)["results"]["checks"]
             if c["name"] == "finite-difference derivative checks"]
    assert not fd["passed"]
    assert fd["detail"].endswith("; inconclusive: ['Gamma^1_1,1 d/dt']")


def test_verify_binds_jets_at_the_value_of_their_argument(tmp_path, capsys):
    p = tmp_path / "args.metric"
    p.write_text("chart t x\nfunc X(t) abstract\n"
                 "g 1 1 = 1 + X(t^2)^2\ng 2 2 = x^2*X(2*t)\n")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 0, out + err
    assert out.count("[PASS]") == 4


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_exits_without_a_traceback(files, capsys, monkeypatch, tmp_path, fmt):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["christoffel", files["gks"], "--format", fmt])
        # the descriptor now points at os.devnull, so the flush at exit is quiet
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert code == EXIT_CLOSED_PIPE == 141
    assert capsys.readouterr().err == ""


def test_division_by_zero_entry_is_usage_error(tmp_path, capsys):
    p = tmp_path / "zero.metric"
    for entry in ("(x-x)^-1", "1/0"):
        p.write_text(f"chart x y\ng 1 1 = 1\ng 2 2 = {entry}\n")
        code, _, err = run(capsys, "christoffel", str(p))
        assert code == 2
        assert "line 3" in err and "identically zero" in err
        assert "Traceback" not in err


def test_first_error_from_the_left_wins(tmp_path, capsys):
    # the parser folds each term as it reads it, so the division by 0 is
    # found before the stray ')' after it
    p = tmp_path / "zero.metric"
    p.write_text("chart t x\ng 1 1 = t/(t-t) + )\ng 2 2 = 1\n")
    code, out, err = run(capsys, "christoffel", str(p))
    assert code == 2 and out == ""
    assert err == "error: line 2: division by an identically zero expression\n"


def test_bad_seed_in_environment_is_usage_error(files, capsys, monkeypatch):
    monkeypatch.setenv("LIFTGEO_SEED", "abc")
    code, _, err = run(capsys, "christoffel", files["flat"])
    assert code == 2
    assert "invalid int value: 'abc'" in err
    assert "Traceback" not in err


def test_bad_format_in_environment_is_usage_error(files, capsys, monkeypatch):
    monkeypatch.setenv("LIFTGEO_FORMAT", "xml")
    code, out, err = run(capsys, "christoffel", files["flat"])
    assert code == 2
    assert out == ""
    assert "LIFTGEO_FORMAT" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(files, capsys, tol):
    code, out, err = run(capsys, "christoffel", files["flat"], f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "finite" in err and "Traceback" not in err


def test_repeated_chart_coordinate_is_usage_error(tmp_path, capsys):
    p = tmp_path / "twice.metric"
    p.write_text("chart t t\ng 1 1 = t\n")
    code, out, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert out == ""
    assert "line 1" in err and "repeats" in err


@pytest.mark.parametrize("line", [
    "g 2 2 = ²", "g ² 2 = t", "g 2 2 = t^٣", "g 2 2 = t²", "g 2 2 = θ", "g 2 2 = １ + t",
    "g 2 2 = t*" + "7" * 5000, "g 2 2 = t^" + "7" * 5000,
], ids=["superscript-value", "superscript-index", "arabic-indic-exponent",
        "superscript-in-name", "greek-name", "full-width-digit",
        "literal-past-the-digit-limit", "exponent-past-the-digit-limit"])
def test_non_ascii_digit_or_letter_is_usage_error(tmp_path, capsys, line):
    # numbers, names and indices are ASCII: a superscript, Arabic-Indic or
    # full-width digit is neither read as its value nor kept in a name; and
    # an integer past the interpreter's int-to-string limit (4300 digits) is
    # a parse error at its line, not a conversion error from the interpreter
    p = tmp_path / "unicode.metric"
    p.write_text(f"chart t r\ng 1 1 = 1\n{line}\n", encoding="utf-8")
    code, out, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3") and "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("chart t r+s\ng 1 1 = 1\ng 2 2 = t\n", 1),
    ("chart t θ\ng 1 1 = 1\ng 2 2 = t\n", 1),
    ("chart t x\nfunc F-1(t) abstract\ng 1 1 = 1\ng 2 2 = t\n", 2),
    ("chart t x\nconst r+s θ 1x\ng 1 1 = 1\ng 2 2 = t\n", 2),
    ("chart t x\nconst t\ng 1 1 = 1\ng 2 2 = t\n", 2),
    ("chart t x\nfunc X(t) abstract\nconst X\ng 1 1 = 1\ng 2 2 = X(t)\n", 3),
    ("const c\nchart c x\ng 1 1 = 1\ng 2 2 = c\n", 2),
], ids=["operator-in-coordinate", "greek-coordinate", "operator-in-func", "operator-in-const",
        "const-named-like-a-coordinate", "const-named-like-a-func",
        "coordinate-named-like-a-const"])
def test_declared_name_that_no_expression_can_read_is_usage_error(tmp_path, capsys, text, line):
    # chart coordinates, func and const names follow the identifier rule of
    # the expression syntax: an ASCII letter, then ASCII letters, digits or _;
    # and a const line names no coordinate or function, which every g line
    # would read instead of the constant
    p = tmp_path / "names.metric"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}:") and "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("chart t x\nfunc t(x) = x^2\ng 1 1 = 1\ng 2 2 = t\n", 2),
    ("chart t x\nfunc x(t) abstract\ng 1 1 = 1\ng 2 2 = x\n", 2),
    ("chart t x\nfunc X(t) abstract\ng 1 1 = X(t)\nfunc X(t) = t^2\ng 2 2 = X(t)\n", 4),
    ("chart t x\ng 1 1 = 2 + X\nfunc X(t) abstract\ng 2 2 = X(t)\n", 3),
    ("chart t x\nconst X\nfunc X(t) abstract\ng 1 1 = 1\ng 2 2 = X(t)\n", 3),
    ("chart t x\nfunc F(t) = c*t\nfunc c(t) abstract\ng 1 1 = F(t)\ng 2 2 = c(t)\n", 3),
], ids=["func-named-like-a-coordinate", "abstract-func-named-like-a-coordinate",
        "func-declared-twice", "func-named-like-a-constant-read-earlier",
        "func-named-like-a-declared-constant", "func-named-like-a-constant-of-a-body"])
def test_func_that_rereads_a_declared_name_is_usage_error(tmp_path, capsys, text, line):
    # a func line may not change what a coordinate, a constant or an earlier
    # func line means to the g lines around it
    p = tmp_path / "reread.metric"
    p.write_text(text)
    code, out, err = run(capsys, "christoffel", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}:") and "Traceback" not in err


def test_func_declared_twice_alike_is_read_once(tmp_path, capsys):
    p = tmp_path / "twice.metric"
    p.write_text("chart t x\nfunc X(t) = t^2\nfunc X(t) = t^2\ng 1 1 = X(t)\ng 2 2 = 1\n")
    code, out, _ = run(capsys, "christoffel", str(p))
    assert code == 0
    assert "Gamma^1_1,1 = 1/t" in out


def test_readme_lists_every_scenario():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = re.search(r"paper-check \[--scenario ([^\]]*)\]", readme).group(1)
    assert usage.replace("\n", " ").replace(" ", "").split("|") == [*SCENARIO_NAMES, "all"]


SCENARIO_CHOICES = ("{gamma-matrices,inverse,traces,example1,curvature-table,sasaki,"
                    "horizontal,complete,complete-table,theorem-equivalence,all}")
PAPER_CHECK_USAGE = f"""\
usage: liftgeo paper-check [-h] [--format {{text,json}}] [--seed SEED]
                           [--probes PROBES] [--tol TOL]
                           [--scenario {SCENARIO_CHOICES}]
"""


def test_scenario_choices_read_as_the_scenario_names(capsys, monkeypatch):
    # the cli offers the names without loading gks; usage, error and help
    # text are what argparse printed when it read them from gks
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "paper-check", "--scenario", "nope")
    assert (code, out) == (2, "")
    assert err == PAPER_CHECK_USAGE + (
        "liftgeo paper-check: error: argument --scenario: invalid choice: 'nope' "
        "(choose from 'gamma-matrices', 'inverse', 'traces', 'example1', "
        "'curvature-table', 'sasaki', 'horizontal', 'complete', 'complete-table', "
        "'theorem-equivalence', 'all')\n"
    )
    code, out, err = run(capsys, "paper-check", "--help")
    assert (code, err) == (0, "")
    assert out == PAPER_CHECK_USAGE + f"""
options:
  -h, --help            show this help message and exit
  --format {{text,json}}  report format (env LIFTGEO_FORMAT)
  --seed SEED           probe RNG seed (env LIFTGEO_SEED)
  --probes PROBES       probe count per zero test
  --tol TOL             numeric zero tolerance
  --scenario {SCENARIO_CHOICES}
"""


def test_verify_plans_each_value_without_expanding_stand_ins(capsys, monkeypatch):
    # a count, not a wall time: the finite-difference stage lays out each
    # value and its derivative in their own atoms; with each abstract
    # function expanded into its polynomial stand-in they held 2788 terms
    from liftgeo import cli, expr, oracle

    def size(laid_out):
        # the terms of a plan and of the plans of its factors' arguments
        terms, rest = laid_out
        return sum(1 + sum(size(arg) for _, _, arg in factors if arg is not None)
                   for _, factors in terms + (rest or ()))

    sizes, nested = [], []
    plan, check = expr._plan, oracle.finite_difference_check

    def counting(fr):
        nested.append(None)
        try:
            laid_out = plan(fr)
        finally:
            nested.pop()
        if not nested:
            sizes.append(size(laid_out))
        return laid_out

    def counted(*args):
        monkeypatch.setattr(expr, "_plan", counting)
        try:
            return check(*args)
        finally:
            monkeypatch.setattr(expr, "_plan", plan)

    monkeypatch.setattr(cli, "finite_difference_check", counted)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    code, out, _ = run(capsys, "verify", "metrics/gks.metric", "--seed", "5")
    assert code == 0 and out.count("[PASS]") == 4
    assert sum(sizes) == 309


def test_verify_checks_a_derivative_only_along_the_coordinates_a_value_reads(capsys,
                                                                             monkeypatch):
    # a count, not a wall time: along a coordinate a value does not read,
    # its derivative and every central difference are exactly 0, so the
    # 80 checks of all Gamma and R components along all four coordinates
    # come down to the 25 that can tell something
    from liftgeo import cli, expr

    checked = []
    check = cli.finite_difference_check

    def counted(value, coord, cfg):
        checked.append(coord in expr._free_coords(value))
        return check(value, coord, cfg)

    monkeypatch.setattr(cli, "finite_difference_check", counted)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    code, out, _ = run(capsys, "verify", "metrics/gks.metric")
    assert code == 0 and out.count("[PASS]") == 4
    assert len(checked) == 25 and all(checked)


def test_fiber_name_in_base_chart_fails_curvature(tmp_path, capsys):
    p = tmp_path / "clash.metric"
    p.write_text("chart t u2\ng 1 1 = 1\ng 2 2 = u2^2*sin(t)^2\n")
    code, out, err = run(capsys, "curvature", str(p), "--fiber-contract")
    assert code == 1
    assert out == ""
    assert "coordinate, constant or function name(s) ['u2'] are reserved" in err
    assert "Traceback" not in err


def test_constant_named_like_a_fiber_coordinate_fails_lifts(tmp_path, capsys):
    p = tmp_path / "clash.metric"
    for text in ("chart t r\ng 1 1 = t*u1\ng 2 2 = 1\n",
                 # a function named like a fiber coordinate: its complete lift
                 # would print as u1*u1'(t), and share the probe label u1
                 "chart t x\nfunc u1(t) abstract\ng 1 1 = u1(t)\ng 2 2 = 1\n"):
        p.write_text(text)
        for argv in (["lift", str(p), "--kind", "complete"],
                     ["harmonic", str(p), str(p), "--lift", "sasaki"]):
            code, out, err = run(capsys, *argv)
            assert code == 1, (text, argv)
            assert out == ""
            assert "'u1'" in err and "Traceback" not in err
        code, _, _ = run(capsys, "christoffel", str(p))
        assert code == 0, text


@pytest.mark.parametrize("text, code", [
    # every probe of x^99999999 overflows or underflows a double
    ("chart x y\ng 1 1 = x^99999999\ng 2 2 = 1\n", 1),
    # exp(1000*t) overflows on most of the t interval, not all of it
    ("chart t x\ng 1 1 = exp(1000*t)\ng 2 2 = 1\n", 0),
    # a constant beyond the double range overflows at every probe
    ("chart t x\ng 1 1 = 10^400\ng 2 2 = 1\n", 1),
    # a product of two finite values overflows to inf where t > 709/801
    ("chart t x\ng 1 1 = exp(400*t)*exp(401*t)\ng 2 2 = 1\n", 0),
    # ... and sin(inf) would raise a domain error
    ("chart t x\ng 1 1 = 2 + sin(exp(400*t)*exp(401*t))\ng 2 2 = 1\n", 0),
], ids=["power", "exp", "constant", "product", "product-in-sin"])
def test_overflow_at_a_probe_point_is_a_singular_point(tmp_path, capsys, text, code):
    p = tmp_path / "overflow.metric"
    p.write_text(text)
    got, out, err = run(capsys, "christoffel", str(p))
    assert got == code
    assert "Traceback" not in err
    if code:
        assert out == "" and "cannot certify nondegeneracy" in err


def test_uncertified_determinant_past_the_digit_limit_is_named_not_printed(tmp_path, capsys):
    # 10^5000 has more digits than the interpreter turns into text
    p = tmp_path / "huge.metric"
    p.write_text("chart t x\ng 1 1 = t*10^5000\ng 2 2 = 1\n")
    code, out, err = run(capsys, "christoffel", str(p))
    assert code == 1
    assert out == ""
    assert err == ("error: cannot certify nondegeneracy: determinant zero-test is "
                   "inconclusive for a determinant with a coefficient too long to print\n")


@pytest.mark.parametrize("text, argv", [
    ("g 1 1 = t*10^5000", ["lift", "--kind", "sasaki"]),
    ("g 1 1 = 1 + t/10^5000", ["christoffel"]),
    ("g 1 1 = 1 + t/10^5000", ["lift", "--kind", "complete", "--connection"]),
    ("g 1 1 = 1 + t/10^5000", ["verify"]),
])
def test_a_coefficient_past_the_digit_limit_is_never_printed(tmp_path, capsys, text, argv):
    p = tmp_path / "huge.metric"
    p.write_text(f"chart t x\n{text}\ng 2 2 = 1\n")
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 1
    assert "Exceeds the limit" not in out + err and "Traceback" not in err
    if argv[0] == "verify":
        # the coefficient 10^5000 overflows a double at every probe; the
        # value reads no x, so it is checked along t alone
        assert err == ""
        assert "inconclusive: ['Gamma^1_1,1 d/dt']" in out
    else:
        assert out == "" and err == "error: a coefficient is too long to print\n"


def test_verify_names_each_failing_bianchi_triple_once(files, capsys, monkeypatch):
    from liftgeo import cli
    from liftgeo.connection import Riemann, riemann
    from liftgeo.expr import Coord

    def perturbed(conn):
        # R^1_1,2,3 moves, so the cyclic sum over (1, 2, 3) at h = 1 is t
        real = riemann(conn)
        comps = dict(real.components)
        comps[(0, 0, 1, 2)] = real.get(0, 0, 1, 2) + Coord("t")
        return Riemann(real.chart, comps)

    monkeypatch.setattr(cli, "riemann", perturbed)
    code, out, _ = run(capsys, "verify", files["gks"], "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    bianchi = checks["first Bianchi identity is symbolically zero"]
    assert not bianchi["passed"]
    assert bianchi["detail"] == "nonzero at [(1, 1, 2, 3)]"
