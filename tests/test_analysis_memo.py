"""The memo of CFGs and checker runs changes no result: a memoised pipeline
run equals a memo-free one, an in-place edit is seen, file names and library
specs stay apart, and a CFG served from the memo is bound to the caller's AST.
Every lowering goes through it, and it needs no scope: no version of a method
is lowered twice in one pipeline run, a read-only check lowers each member
once, a second parse replaces the first one's entries, and liveness is solved
at most once per lowering. The pipeline hands versions from stage to stage:
no version is read after an edit to its program, and a run hashes each
program state once."""

import copy
from collections import Counter
from contextlib import nullcontext

import pytest

from helpers import corpus_mutants, memo_bypassed
from leakward import cfg as C
from leakward import memo
from leakward import syntax as sx
from leakward.checker import check_program
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.libspec import LibrarySpec
from leakward.parser import parse
from leakward.pipeline import FixOutcome, PipelineConfig, run_file_pipeline, run_pipeline
from leakward.printer import pretty_print
from leakward.specs import SpecSet

LOWER = C.lower

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


def test_memoised_pipeline_equals_memo_free(corpus_sources, libspec, monkeypatch):
    lowerings = {"memoised": 0, "memo-free": 0}
    original_lower = C.lower
    for name, text, lib in _sources(corpus_sources, libspec):
        for kind in lowerings:

            def counting(*args, kind=kind):
                lowerings[kind] += 1
                return original_lower(*args)

            monkeypatch.setattr(C, "lower", counting)
            if kind == "memoised":
                memoised = run_pipeline([(name, text)], lib).files[name]
            else:
                with memo_bypassed():
                    memo_free = run_file_pipeline(parse(text, name), lib, PipelineConfig())
        assert _file_json(memoised) == _file_json(memo_free), name
        assert (memoised.w_orig, memoised.w_xform) == (memo_free.w_orig, memo_free.w_xform)
    # the memo was in use: the memoised runs lowered less
    assert lowerings["memoised"] < lowerings["memo-free"]


def _lowerings_by_member(monkeypatch) -> Counter:
    """Counts of `cfg.lower` calls per (program digest, class, member) from
    now on, until the next call starts a new count."""
    lowered: Counter = Counter()

    def recording(program, cls, meth, *rest):
        lowered[(memo.digest(program), cls.name, sx.member_key(meth))] += 1
        return LOWER(program, cls, meth, *rest)

    monkeypatch.setattr(C, "lower", recording)
    return lowered


def test_no_method_version_is_lowered_twice_in_a_pipeline_run(corpus_sources, libspec, monkeypatch):
    runs: list[Counter] = []  # lowerings per (program digest, class, member), one per run_pipeline call
    for name, text, lib in _sources(corpus_sources, libspec):
        lowered = _lowerings_by_member(monkeypatch)
        run_pipeline([(name, text)], lib)
        runs.append(lowered)
    assert len(runs) == len(corpus_sources) + 50 and all(runs)
    twice = [(cls, member) for lowered in runs for (_d, cls, member), n in lowered.items() if n > 1]
    assert twice == []


def test_a_read_only_check_lowers_each_member_once(corpus_sources, libspec, monkeypatch):
    for name, text, lib in _sources(corpus_sources, libspec):
        program = parse(text, name)
        lowered = _lowerings_by_member(monkeypatch)
        check_program(program, infer_specs(program, lib), lib)
        check_program(program, SpecSet.from_declared(program), lib)
        members = {(cls.name, sx.member_key(meth)) for cls in program.classes for meth in cls.all_methods()}
        assert {(cls, member) for _d, cls, member in lowered} == members, name
        assert set(lowered.values()) == {1}, name


def test_a_second_parse_replaces_the_first_ones_entries(libspec, monkeypatch):
    first, second = parse(LEAKY, "a.mj"), parse(WRAPPER, "w.mj")
    lowered = _lowerings_by_member(monkeypatch)
    expected = []
    for program in (first, second, first, second):
        specs = SpecSet.from_declared(program)
        expected.append(check_program(program, specs, libspec))
        assert check_program(program, specs, libspec) == expected[-1]  # a hit while the family is current
    assert expected[:2] == expected[2:]
    assert set(lowered.values()) == {2}  # each family lowered again after the other replaced it


def test_one_program_under_two_library_specs_gets_each_ones_result(libspec):
    prog = parse(LEAKY, "leaky.mj")
    specs = SpecSet.from_declared(prog)
    libspecs = [libspec, LibrarySpec(), copy.deepcopy(libspec)]  # FileInputStream is no resource in the empty one
    with memo_bypassed():
        expected = [check_program(prog, specs, lib) for lib in libspecs]
    assert [len(ws) for ws in expected] == [1, 0, 1]
    for order in ([0, 1, 2], [1, 0, 2, 1], [2, 1, 0]):
        assert [check_program(prog, specs, libspecs[i]) for i in order] == [expected[i] for i in order]


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
    assert len(check_program(prog, specs, libspec)) == 1
    main.body.stmts.append(close)
    prog.adopt(close, main.body.stmts[-2])
    assert check_program(prog, specs, libspec) == []


def test_an_in_place_edit_between_two_inferences_is_seen(libspec):
    prog = parse(WRAPPER, "w.mj")
    close_body = prog.classes[0].method_named("close").body
    assert infer_specs(prog, libspec).to_json()["classes"] == {}
    close_body.stmts.append(sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name="s"), method="close", args=[])))
    assert infer_specs(prog, libspec).to_json()["classes"] == {"W": {"mustCall": ["close"]}}


def test_a_checker_run_is_keyed_on_the_specs(libspec):
    # W disposes of its stream in close(), which main never calls
    closing = WRAPPER.replace("  void close() {\n", "  void close() {\n    s.close();\n")
    prog = parse(closing + "class M {\n  static void main() {\n    W w = new W();\n  }\n}\n", "w.mj")
    with memo_bypassed():
        spec_sets = [SpecSet.from_declared(prog), infer_specs(prog, libspec)]
        expected = [check_program(prog, specs, libspec) for specs in spec_sets]
    assert [[w.class_name for w in ws] for ws in expected] == [["W"], ["W", "M"]]  # `new W()` leaks in M
    assert [check_program(prog, specs, libspec) for specs in spec_sets] == expected


def test_the_same_text_under_two_names_keeps_its_own_file_and_ids(libspec):
    first = parse(LEAKY, "a.mj")
    second = copy.deepcopy(first)
    second.source_name = "b.mj"  # the same nids and positions, another file
    (wa,) = check_program(first, SpecSet.from_declared(first), libspec)
    (wb,) = check_program(second, SpecSet.from_declared(second), libspec)
    assert (wa.file, wb.file) == ("a.mj", "b.mj") and wa.id != wb.id
    report = run_pipeline([("a.mj", LEAKY), ("b.mj", LEAKY)], libspec)
    assert [[w.file for w in report.files[n].w_orig] for n in ("a.mj", "b.mj")] == [["a.mj"], ["b.mj"]]


@pytest.mark.parametrize("memoised", [True, False])
def test_a_cfg_is_bound_to_the_callers_program(libspec, memoised):
    prog = parse(WRAPPER, "w.mj")
    dup = copy.deepcopy(prog)
    with nullcontext() if memoised else memo_bypassed():
        g1 = memo.ProgramVersion(prog, libspec).cfg(prog.classes[0], prog.classes[0].constructors[0])
        cls, ctor = dup.classes[0], dup.classes[0].constructors[0]
        g2 = memo.ProgramVersion(dup, libspec).cfg(cls, ctor)
    assert g2.program is dup and g2.class_ast is cls and g2.method_ast is ctor
    assert g1.program is prog
    # a hit shares the lowered graph; with the memo bypassed each call lowers afresh
    assert (g2.nodes is g1.nodes) == memoised


CONFIGS = [
    PipelineConfig(),
    PipelineConfig(enable_transforms=False),
    PipelineConfig(enable_fixer_enhancements=False),
    PipelineConfig(enable_overwrite_handling=False),
]


def _handoff_runs(corpus_sources, libspec):
    """(sources, libspec, config) of pipeline runs: the corpus as one batch
    under each configuration, and each of generate_source(0..99) and the
    corpus mutants alone."""
    runs = [(corpus_sources, libspec, config) for config in CONFIGS]
    runs += [([(f"fuzz{seed}.mj", generate_source(seed))], fuzz_libspec(), CONFIGS[0]) for seed in range(100)]
    runs += [([mutant], libspec, CONFIGS[0]) for mutant in corpus_mutants()]
    return runs


def test_no_version_is_read_after_an_edit_to_its_program(corpus_sources, libspec, monkeypatch):
    lookups = 0
    for name in ("cfg", "remember"):
        real = getattr(memo.ProgramVersion, name)

        def rehashed(self, *args, _real=real):
            nonlocal lookups
            lookups += 1
            assert memo.digest(self.program) == self._key, "a version outlived an edit to its program"
            return _real(self, *args)

        monkeypatch.setattr(memo.ProgramVersion, name, rehashed)
    for sources, lib, config in _handoff_runs(corpus_sources, libspec):
        run_pipeline(sources, lib, config)
    assert lookups > 0


def test_a_pipeline_run_hashes_each_program_state_once(corpus_sources, libspec, monkeypatch):
    hashed: list[bytes] = []
    real = memo.digest

    def recorded(program):
        hashed.append(real(program))
        return hashed[-1]

    monkeypatch.setattr(memo, "digest", recorded)
    total = 0
    for sources, lib, config in _handoff_runs(corpus_sources, libspec):
        hashed.clear()
        run_pipeline(sources, lib, config)
        assert len(set(hashed)) == len(hashed), [name for name, _text in sources]
        total += len(hashed)
    assert total > 0
