"""The package imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "liftgeo"


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
        if name.split(".")[0] not in sys.stdlib_module_names | {"liftgeo"}
    ]
    assert foreign == []


def test_only_oracle_and_cli_import_dataclasses():
    # every other record is a plain class with __slots__, so a CLI request
    # builds no dataclass; oracle's ReconEntry stays one for the
    # dataclasses.asdict of cli's paper-check report and of the benchmark's
    # digests, and FdResult beside it
    importers = sorted(
        path.stem
        for path in SRC.glob("*.py")
        for _, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] == "dataclasses"
    )
    assert importers == ["cli", "oracle"]
