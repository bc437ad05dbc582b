"""Layering: no module of the package reaches another module's `_private`
names, by `from .m import _name` or by `m._name` on an imported module."""

import ast
from pathlib import Path

import leakward

PACKAGE = Path(leakward.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reaches(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    found = []
    modules = set()  # names bound to a module of the package: `from . import syntax as sx`
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").startswith("leakward")):
            continue
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}")
            elif node.module is None or node.module == "leakward":
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _is_private(node.attr):
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [reach for path in modules for reach in _private_reaches(path)] == []


def test_the_guard_sees_both_kinds_of_reach(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from . import syntax as sx\nfrom .checker import _meet, Warning\nx = sx._find\ny = sx.anchors\n")
    assert _private_reaches(bad) == ["bad.py:2 imports _meet from checker", "bad.py:3 reads sx._find"]
