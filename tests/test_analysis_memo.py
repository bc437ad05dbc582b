"""The per-file memo of CFGs and checker runs changes no result: a scoped
pipeline run equals an unscoped one, an in-place edit is seen, file names
stay apart, and a CFG served from the memo is bound to the caller's AST.
Every lowering goes through it: no version of a method is lowered twice in
one file's scope, and liveness is solved at most once per lowering."""

import copy
from collections import Counter
from contextlib import contextmanager, nullcontext

import pytest

from leakward import cfg as C
from leakward import memo
from leakward import syntax as sx
from leakward.checker import check_program
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.parser import parse
from leakward.pipeline import FixOutcome, PipelineConfig, run_file_pipeline, run_pipeline
from leakward.printer import pretty_print
from leakward.specs import SpecSet

LEAKY = "class A {\n  static void main() {\n    FileInputStream s = new FileInputStream(\"p\");\n    s.read();\n  }\n}\n"

WRAPPER = """class W {
  private FileInputStream s;

  W() {
    s = new FileInputStream("p");
  }
  void close() {
  }
}
"""


def _file_json(fr) -> dict:
    """Everything a FileResult reports, as JSON-able values."""
    return {
        "warningsOriginal": [w.to_json() for w in fr.w_orig],
        "warningsTransformed": [w.to_json() for w in fr.w_xform],
        "editLog": fr.edit_log.to_json(),
        "specs": fr.specs.to_json(),
        "transformed": pretty_print(fr.transformed),
        "patched": pretty_print(fr.patched),
        "diff": fr.diff,
        **FixOutcome.to_json(fr),
    }


def _sources(corpus_sources, libspec):
    fuzz = [(f"fuzz{seed}.mj", generate_source(seed)) for seed in range(50)]
    return [(name, text, libspec) for name, text in corpus_sources] + [(n, t, fuzz_libspec()) for n, t in fuzz]


def test_scoped_pipeline_equals_unscoped(corpus_sources, libspec, monkeypatch):
    lowerings = {"scoped": 0, "unscoped": 0}
    original_lower = C.lower
    for name, text, lib in _sources(corpus_sources, libspec):
        for kind in lowerings:

            def counting(*args, kind=kind):
                lowerings[kind] += 1
                return original_lower(*args)

            monkeypatch.setattr(C, "lower", counting)
            if kind == "scoped":
                scoped = run_pipeline([(name, text)], lib).files[name]
            else:
                unscoped = run_file_pipeline(parse(text, name), lib, PipelineConfig())
        assert _file_json(scoped) == _file_json(unscoped), name
        assert (scoped.w_orig, scoped.w_xform) == (unscoped.w_orig, unscoped.w_xform)
    # the memo was in use: the scoped runs lowered less
    assert lowerings["scoped"] < lowerings["unscoped"]


def test_no_method_version_is_lowered_twice_in_a_file_scope(corpus_sources, libspec, monkeypatch):
    scopes: list[Counter] = []  # lowerings per (program digest, class, member), one per file scope
    open_scopes: list[Counter] = []
    original_scope, original_lower = memo.file_scope, C.lower

    @contextmanager
    def recording_scope():
        with original_scope():
            open_scopes.append(Counter())
            try:
                yield
            finally:
                scopes.append(open_scopes.pop())

    def recording(program, cls, meth, *rest):
        if open_scopes:
            open_scopes[-1][(memo.digest(program), cls.name, sx.member_key(meth))] += 1
        return original_lower(program, cls, meth, *rest)

    monkeypatch.setattr(memo, "file_scope", recording_scope)
    monkeypatch.setattr(C, "lower", recording)
    for name, text, lib in _sources(corpus_sources, libspec):
        run_pipeline([(name, text)], lib)
    assert len(scopes) == len(corpus_sources) + 50
    twice = [(cls, member) for lowered in scopes for (_d, cls, member), n in lowered.items() if n > 1]
    assert twice == []


def test_liveness_is_solved_at_most_once_per_lowered_method_version(corpus_sources, libspec, monkeypatch):
    lowered: dict[int, tuple] = {}  # id of a lowered CFG's node list -> (digest, class, member)
    kept: list = []  # the node lists, so that no id is reused
    solved: Counter = Counter()
    original_lower, original_liveness = C.lower, C.liveness

    def recording_lower(program, cls, meth, *rest):
        g = original_lower(program, cls, meth, *rest)
        lowered[id(g.nodes)] = (memo.digest(program), cls.name, sx.member_key(meth))
        kept.append(g.nodes)
        return g

    def recording_liveness(g):
        solved[lowered[id(g.nodes)]] += 1  # memo hits share the stored CFG's node list
        return original_liveness(g)

    monkeypatch.setattr(C, "lower", recording_lower)
    monkeypatch.setattr(C, "liveness", recording_liveness)
    for name, text in corpus_sources:
        run_pipeline([(name, text)], libspec)
    assert set(solved.values()) == {1}


def test_an_in_place_edit_between_two_checks_is_seen(libspec):
    prog = parse(LEAKY, "leaky.mj")
    specs = SpecSet.from_declared(prog)
    main = prog.classes[0].methods[0]
    close = sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name="s"), method="close", args=[]))
    with memo.file_scope():
        assert len(check_program(prog, specs, libspec)) == 1
        main.body.stmts.append(close)
        prog.adopt(close, main.body.stmts[-2])
        assert check_program(prog, specs, libspec) == []


def test_an_in_place_edit_between_two_inferences_is_seen(libspec):
    prog = parse(WRAPPER, "w.mj")
    close_body = prog.classes[0].method_named("close").body
    with memo.file_scope():
        assert infer_specs(prog, libspec).to_json()["classes"] == {}
        close_body.stmts.append(sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name="s"), method="close", args=[])))
        assert infer_specs(prog, libspec).to_json()["classes"] == {"W": {"mustCall": ["close"]}}


def test_a_checker_run_is_keyed_on_the_specs(libspec):
    # W disposes of its stream in close(), which main never calls
    closing = WRAPPER.replace("  void close() {\n", "  void close() {\n    s.close();\n")
    prog = parse(closing + "class M {\n  static void main() {\n    W w = new W();\n  }\n}\n", "w.mj")
    spec_sets = [SpecSet.from_declared(prog), infer_specs(prog, libspec)]
    expected = [check_program(prog, specs, libspec) for specs in spec_sets]
    assert [[w.class_name for w in ws] for ws in expected] == [["W"], ["W", "M"]]  # `new W()` leaks in M
    with memo.file_scope():
        assert [check_program(prog, specs, libspec) for specs in spec_sets] == expected


def test_the_same_text_under_two_names_keeps_its_own_file_and_ids(libspec):
    first = parse(LEAKY, "a.mj")
    second = copy.deepcopy(first)
    second.source_name = "b.mj"  # the same nids and positions, another file
    with memo.file_scope():
        (wa,) = check_program(first, SpecSet.from_declared(first), libspec)
        (wb,) = check_program(second, SpecSet.from_declared(second), libspec)
    assert (wa.file, wb.file) == ("a.mj", "b.mj") and wa.id != wb.id
    report = run_pipeline([("a.mj", LEAKY), ("b.mj", LEAKY)], libspec)
    assert [[w.file for w in report.files[n].w_orig] for n in ("a.mj", "b.mj")] == [["a.mj"], ["b.mj"]]


@pytest.mark.parametrize("scoped", [True, False])
def test_a_cfg_is_bound_to_the_callers_program(libspec, scoped):
    prog = parse(WRAPPER, "w.mj")
    dup = copy.deepcopy(prog)
    with memo.file_scope() if scoped else nullcontext():
        g1 = memo.ProgramVersion(prog, libspec).cfg(prog.classes[0], prog.classes[0].constructors[0])
        cls, ctor = dup.classes[0], dup.classes[0].constructors[0]
        g2 = memo.ProgramVersion(dup, libspec).cfg(cls, ctor)
    assert g2.program is dup and g2.class_ast is cls and g2.method_ast is ctor
    assert g1.program is prog
    # a hit shares the lowered graph; outside a scope each call lowers afresh
    assert (g2.nodes is g1.nodes) == scoped
