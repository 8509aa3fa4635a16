"""The package imports nothing outside the standard library and itself, and
importing its CLI loads neither dataclasses, inspect nor OpenSSL."""

import ast
import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "liftgeo"
# the interpreter's own SHA-256 module is _sha2 from Python 3.12 and _sha256
# before; the CLI tries both, while sys.stdlib_module_names lists only the
# name of the running version
OWN_SHA256 = ("_sha2", "_sha256")


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [
        f"{path.name}:{lineno}: {name}"
        for path in files
        for lineno, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in sys.stdlib_module_names | {"liftgeo", *OWN_SHA256}
    ]
    assert foreign == []


def test_a_cli_import_loads_no_dataclasses_inspect_or_openssl():
    # every record a request builds is a plain class with __slots__, and a
    # digest takes the interpreter's own SHA-256 where it has one; only
    # paper-check builds table entries (liftgeo._recon.ReconEntry), which
    # stay dataclasses for the dataclasses.asdict of its report and of the
    # benchmark's digests
    code = """
import sys
import liftgeo.cli
loaded = [m for m in ("dataclasses", "inspect", "_hashlib") if m in sys.modules]
import dataclasses, importlib.util, json
own_sha256 = any(importlib.util.find_spec(m) is not None for m in %r)
from liftgeo.gks import run_scenario
(result,) = run_scenario("traces")
print(json.dumps([loaded, own_sha256, [dataclasses.is_dataclass(e) for e in result.entries]]))
""" % (OWN_SHA256,)
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, own_sha256, entries_are_dataclasses = json.loads(done.stdout)
    # hashlib, and with it OpenSSL, only where the interpreter has neither
    # _sha2 nor _sha256
    assert [m for m in loaded if own_sha256 or m != "_hashlib"] == []
    assert entries_are_dataclasses and all(entries_are_dataclasses)
