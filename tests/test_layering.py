"""Layering: no module of the package reaches another module's `_private`
names, by `from .m import _name` or by `m._name` on an imported module; the
memo is the one caller of `cfg.lower`, `checker.method_run` the one
builder of a `_MethodChecker`, and `Cfg.taint_of` the one solver of taint,
over the start set it keeps; `run_file_pipeline` builds each file's shift
map and `run_pipeline` makes the one `score` of a batch; no field of a CFG
or of an instruction is typed with an AST type; `Cfg.copies` is the one way
from an AST node to the CFG nodes lowered from it; patch validation reads
the analysis only for its final-write gate."""

import ast
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import leakward
from leakward import cfg as C
from leakward import syntax as sx

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


def _ast_nid_tests(path: Path) -> list[str]:
    """Where `path` compares an `ast_nid` (`==`, `!=`, `in`, `not in`), each
    named by file and line."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, ast.Attribute) and op.attr == "ast_nid" for op in (node.left, *node.comparators))
    ]


def test_only_the_cfg_finds_the_nodes_lowered_from_an_ast_node():
    """A `new` in a finally block has one CFG node per way out of the try;
    a caller that scans for the first or the last of them reads one path
    only, so each reads them all through `Cfg.copies`."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "cfg.py"]
    assert len(modules) > 10
    assert [hit for path in modules for hit in _ast_nid_tests(path)] == []


def test_the_ast_nid_guard_sees_each_kind_of_test(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("a = i.ast_nid == n\nb = n != i.ast_nid\nc = i.ast_nid in seen\nd = f(i.ast_nid) == 1\n")
    assert _ast_nid_tests(bad) == ["bad.py:1", "bad.py:2", "bad.py:3"]


def _callers(path: Path, module: str, name: str) -> list[str]:
    """Where `path` calls `name` of the package's module `module`: by `m.name`
    on the module bound as `m`, or by a bare name bound to it (in `module`
    itself, or by `from .module import name`). Each call is named by its
    module and its enclosing classes and functions."""
    tree = ast.parse(path.read_text(), str(path))
    modules, bare = set(), {name} if path.stem == module else set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").startswith("leakward")):
            continue
        for alias in node.names:
            if node.module in (None, "leakward") and alias.name == module:
                modules.add(alias.asname or alias.name)
            elif (node.module or "").rpartition(".")[2] == module and alias.name == name:
                bare.add(alias.asname or alias.name)
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            by_module = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules
            if (by_module and f.attr == name) or (isinstance(f, ast.Name) and f.id in bare):
                found.append(".".join((path.stem, *scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_memo_lowers_and_only_method_run_builds_a_method_checker():
    modules = sorted(PACKAGE.glob("*.py"))
    assert [c for path in modules for c in _callers(path, "cfg", "lower")] == ["memo.ProgramVersion.cfg"]
    checkers = [c for path in modules for c in _callers(path, "checker", "_MethodChecker")]
    assert checkers == ["checker.method_run.run"]


def test_only_the_cfg_cache_solves_taint():
    """`Cfg.taint_of` solves `taint_starts` once per lowering and keeps it;
    a solve anywhere else would be a second, unkept one."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert [c for path in modules for c in _callers(path, "cfg", "taint_starts")] == ["cfg.Cfg.taint_of"]
    assert {c for path in modules for c in _callers(path, "cfg", "taint")} == {"cfg.Cfg.taint_of"}


def test_one_shift_map_per_file_and_one_score_per_batch():
    """Warnings are grouped by root in `score` alone, over the roots each
    file's run maps while its version is current."""
    modules = sorted(PACKAGE.glob("*.py"))
    shift_maps = [c for path in modules for c in _callers(path, "pipeline", "build_shift_map")]
    assert shift_maps == ["pipeline.run_file_pipeline"]
    assert [c for path in modules for c in _callers(path, "pipeline", "score")] == ["pipeline.run_pipeline"]


def test_the_caller_guard_sees_each_kind_of_call(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import cfg as C\nfrom .cfg import lower as low\n"
        "def f(s):\n    C.lower(1)\n    s.lower()\n    class K:\n        x = low(2)\n"
    )
    assert _callers(bad, "cfg", "lower") == ["bad.f", "bad.f.K"]


def _imports_from(path: Path, module: str) -> set[str]:
    """The names `path` imports from the package's module `module`
    (`from .module import name`), and `module` itself when it imports the
    module (`from . import module`, `import leakward.module`), at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("leakward")):
            if (node.module or "").rpartition(".")[2] == module:
                found |= {alias.name for alias in node.names}
            elif node.module in (None, "leakward"):
                found |= {module for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            found |= {module for alias in node.names if alias.name == f"leakward.{module}"}
    return found


def test_validation_reads_the_analysis_only_for_its_final_write_gate():
    """`validate_patch` judges the fix loop's re-check of a patch and
    analyses nothing again: the oracle module infers no specs and runs no
    checker."""
    interp = PACKAGE / "interp.py"
    assert _imports_from(interp, "inference") == set()
    assert _imports_from(interp, "checker") == {"reject_final_writes"}


def test_the_import_guard_sees_each_kind_of_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .checker import check_program, reject_final_writes\nfrom . import inference as inf\n"
        "def f():\n    import leakward.inference\n    from leakward.checker import Warning\n"
    )
    assert _imports_from(bad, "checker") == {"check_program", "reject_final_writes", "Warning"}
    assert _imports_from(bad, "inference") == {"inference"}


def _syntax_types(hint) -> list[type]:
    """The classes of `syntax` that a type hint names, at any depth."""
    if get_origin(hint) is None:
        return [hint] if isinstance(hint, type) and hint.__module__ == sx.__name__ else []
    return [t for arg in get_args(hint) for t in _syntax_types(arg)]


def test_no_cfg_or_instruction_field_is_typed_with_a_syntax_type():
    """A CFG holds no AST: the memo hands a stored lowering to every version
    of its family, so a field that held a node would hold one program's."""
    classes = [C.Cfg, C.Instr, *C.Instr.__subclasses__()]
    assert len(classes) > 10
    typed = {
        f"{cls.__name__}.{name}": hint
        for cls in classes
        for name, hint in get_type_hints(cls).items()
        if _syntax_types(hint)
    }
    assert typed == {}
    assert _syntax_types(list[sx.New]) == [sx.New] and _syntax_types(dict[str, int]) == []
