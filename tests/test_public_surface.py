"""Every public name and every module-level function and class of the
package has a reader.

A name in a module's __all__, and a function or class defined at the top
level of a module, must be read somewhere other than its own definition and
the package __init__: elsewhere in its module, in another package module, in
bench/, or in README.md. A name that only the tests read is not part of the
package; a test that needs it as a reference keeps its own copy.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liftgeo"


def _public_names(tree: ast.Module) -> list:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return list(ast.literal_eval(stmt.value))
    return []


def _defines(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return any((a.asname or a.name) == name for a in stmt.names)
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _reads(nodes) -> set:
    """Names read as a bare name or as an attribute in the given statements."""
    found = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def _definitions(tree: ast.Module) -> list:
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _unread(names_of) -> list:
    """module.name for each name of names_of(module tree) that no reader reads."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    bench = set().union(*(_reads(ast.parse(p.read_text()).body)
                          for p in sorted((ROOT / "bench").glob("*.py"))))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unread = []
    for module, tree in modules.items():
        others = set().union(*(_reads(t.body) for m, t in modules.items() if m != module))
        for name in names_of(tree):
            own = _reads(stmt for stmt in tree.body
                         if not _defines(stmt, name) and not _defines(stmt, "__all__"))
            if name not in own | others | bench | readme:
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    assert _unread(_public_names) == []


def test_every_module_level_function_and_class_has_a_reader():
    assert _unread(_definitions) == []
