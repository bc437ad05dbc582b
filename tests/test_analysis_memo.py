"""The memo of CFGs and checker runs changes no result: a memoised pipeline
run equals a memo-free one, an in-place edit is seen, file names and library
specs stay apart, and a CFG served from the memo is the stored lowering,
which a checker run reads with the caller's AST; no stored CFG or run
result reaches an AST node. Every lowering goes through
it, and it needs no scope: no version of a method is lowered twice in one
pipeline run, a read-only check lowers each member once, a second parse
replaces the first one's entries, and liveness, like the taint of the
values the escape analysis asks about, is solved at most once per
lowering. The pipeline hands versions from stage to stage: no version is
read after an edit to its program, a run takes each program state's keys
once, and no two of its key passes give the same keys. An entry is keyed on what it reads: an edit to
one method, an annotation from `write_specs`, a spec change to a class a
member never reads, a moved position, an injected `close()` and a shape
part lowering does not read (`final`, `private`, `implements`, another
member's parameter types) each leave the other entries hits,
while a run reads a callee's ownership annotations and a field's `final`
as it reads its specs. A corpus run stays within its count of lowerings
and checker runs."""

import copy
import hashlib
import io
import json
import pickle
from collections import Counter
from contextlib import nullcontext
from typing import Callable, Iterator, Optional

import pytest

from helpers import corpus_mutants, keys_taken, memo_bypassed
from leakward import cfg as C
from leakward import checker as K
from leakward import memo
from leakward import syntax as sx
from leakward.checker import check_program
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs, write_specs
from leakward.libspec import LibrarySpec
from leakward.parser import parse
from leakward.pipeline import FixOutcome, PipelineConfig, check_stage, run_file_pipeline, run_pipeline, transform_stage
from leakward.printer import pretty_print
from leakward.specs import SpecReader, SpecSet

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


def _report_text(sources, lib) -> str:
    return json.dumps(run_pipeline(sources, lib).to_json(), sort_keys=True)


def test_memoised_reports_are_byte_equal_to_memo_free_ones(libspec):
    """`run_pipeline` alone on each of the 600 corpus mutants and of
    generate_source(0..599): the memoised report and the memo-free one are
    the same text."""
    fuzz_lib = fuzz_libspec()
    runs = [([mutant], libspec) for mutant in corpus_mutants()]
    runs += [([(f"fuzz{seed}.mj", generate_source(seed))], fuzz_lib) for seed in range(600)]
    moved = []
    for sources, lib in runs:
        memoised = _report_text(sources, lib)
        with memo_bypassed():
            if _report_text(sources, lib) != memoised:
                moved.append(sources[0][0])
    assert moved == []


def test_a_corpus_run_lowers_at_most_90_times_and_runs_the_checker_at_most_115_times(
    corpus_sources, libspec, monkeypatch
):
    """The work bound of one `run_pipeline` of the corpus, counted through
    public names: `cfg.lower` calls, and `SpecReader` constructions, one per
    checker run the memo computes."""
    counts = Counter()

    def lowering(*args):
        counts["lower"] += 1
        return LOWER(*args)

    class CountingReader(SpecReader):
        def __init__(self, *args):
            counts["run"] += 1
            super().__init__(*args)

    monkeypatch.setattr(C, "lower", lowering)
    monkeypatch.setattr(memo, "SpecReader", CountingReader)
    run_pipeline(corpus_sources, libspec)
    assert counts["lower"] <= 90 and counts["run"] <= 115, counts


def _toggle(annotations: list, kind: str) -> None:
    """Remove the annotation of `kind`, or add one when there is none."""
    held = [a for a in annotations if a.kind == kind]
    if held:
        annotations.remove(held[0])
    else:
        annotations.append(sx.Annotation(kind=kind))


# shape parts that lowering reads: the lowering digest covers them
LOWERED_PARTS = {"field type", "field static", "return type"}


def _swap(obj, attr: str, other) -> Callable[[], None]:
    """A toggle of `obj.attr` between its value now and `other`."""
    original = getattr(obj, attr)
    return lambda: setattr(obj, attr, other if getattr(obj, attr) == original else original)


def _other_type(name: str) -> str:
    return "Object" if name == "String" else "String"


def _flipped(modifiers: tuple, modifier: str) -> tuple:
    kept = tuple(m for m in modifiers if m != modifier)
    return kept if modifier in modifiers else (*kept, modifier)


def _shape_toggles(prog: sx.Program) -> Iterator[tuple[str, Optional[tuple[str, tuple]], Callable[[], None]]]:
    """(part, fact, toggle) for each shape part of `prog`: `toggle()` flips
    the part in place and a second call flips it back; `fact` is the
    (`SpecReads` field, key) a checker run reads the part as, ("own",
    member) for a part only its member's lowering reads, and None when no
    run reads it but through its lowering."""
    for cls in prog.classes:
        yield "implements", None, _swap(cls, "implements", None if cls.implements else "AutoCloseable")
        for fld in cls.fields:
            yield "field type", None, _swap(fld, "declared_type", _other_type(fld.declared_type))
            for modifier in ("static", "final", "private"):
                fact = ("final", (cls.name, fld.name)) if modifier == "final" else None
                yield f"field {modifier}", fact, _swap(fld, "modifiers", _flipped(fld.modifiers, modifier))
        for meth in cls.all_methods():
            member = (cls.name, sx.member_key(meth))
            for p in meth.params:
                yield "param type", ("own", member), _swap(p, "type_name", _other_type(p.type_name))
                yield "param @Owning", ("params", member), lambda p=p: _toggle(p.annotations, sx.OWNING)
            yield "method private", None, _swap(meth, "modifiers", _flipped(meth.modifiers, "private"))
            if not meth.is_constructor:
                yield "return type", None, _swap(meth, "return_type", "String" if meth.return_type == "void" else "void")
                yield "method @NotOwning", ("returns", member), lambda m=meth: _toggle(m.annotations, sx.NOT_OWNING)


def test_memoised_checks_equal_memo_free_ones_as_class_shapes_change(corpus_sources, libspec, monkeypatch):
    """Each shape part toggled in place, one at a time. A part every
    lowering may read (a field's type or `static`, a return type, each
    toggle of which adds or removes a method that returns a value) makes
    every CFG and run of the file miss; a parameter type makes exactly its
    own member's CFG and run miss. Any other part (`final`, `private`,
    `implements`, a parameter's `@Owning`, a method's `@NotOwning`) leaves
    every CFG a hit, and a member's run misses exactly when its reads before
    the toggle hold the toggled fact. Each check equals a memo-free one."""
    lowered: set = set()
    ran: set = set()

    def lowering(program, cls, meth, *rest):
        lowered.add((cls.name, sx.member_key(meth)))
        return LOWER(program, cls, meth, *rest)

    real_remember = memo.ProgramVersion.remember

    def remember(self, cls, meth, specs, compute):
        def computing(reader):
            ran.add((cls.name, sx.member_key(meth)))
            return compute(reader)

        return real_remember(self, cls, meth, specs, computing)

    monkeypatch.setattr(C, "lower", lowering)
    monkeypatch.setattr(memo.ProgramVersion, "remember", remember)
    fuzz = [(f"fuzz{seed}.mj", generate_source(seed), fuzz_libspec()) for seed in range(100)]
    toggled: Counter = Counter()
    for name, text, lib in [(n, t, libspec) for n, t in corpus_sources] + fuzz:
        prog = parse(text, name)
        specs = infer_specs(prog, lib)
        members = {(cls.name, sx.member_key(meth)) for cls in prog.classes for meth in cls.all_methods()}
        check_program(prog, specs, lib)
        with memo_bypassed() as reads:
            check_program(prog, specs, lib)
        for part, fact, toggle in _shape_toggles(prog):
            toggle()
            lowered.clear(), ran.clear()
            warnings = check_program(prog, specs, lib)
            missed = (set(lowered), set(ran))
            with memo_bypassed():
                assert warnings == check_program(prog, specs, lib), (name, part)
            if part in LOWERED_PARTS:
                assert missed == (members, members), (name, part)
            elif part == "param type":
                assert missed == ({fact[1]}, {fact[1]}), (name, part)
            else:
                read = {m for m, r in reads.items() if fact is not None and fact[1] in getattr(r, fact[0])}
                assert missed == (set(), read), (name, part)
            toggle()
            toggled[part] += 1
    assert min(toggled.values()) > 20 and len(toggled) == 10, toggled


def _member_key(program, cls, meth) -> tuple:
    """The memo's key of a member of `program` as it is now: (lowering
    digest, class, member, body)."""
    keys = memo.member_keys(program)
    member = (cls.name, sx.member_key(meth))
    return (keys.lowering, *member, keys.bodies[member])


def _lowerings_by_member(monkeypatch) -> Counter:
    """Counts of `cfg.lower` calls per member key from now on, until the
    next call starts a new count."""
    lowered: Counter = Counter()

    def recording(program, cls, meth, *rest):
        lowered[_member_key(program, cls, meth)] += 1
        return LOWER(program, cls, meth, *rest)

    monkeypatch.setattr(C, "lower", recording)
    return lowered


def test_no_method_version_is_lowered_twice_in_a_pipeline_run(corpus_sources, libspec, monkeypatch):
    runs: list[Counter] = []  # lowerings per member key, one per run_pipeline call
    for name, text, lib in _sources(corpus_sources, libspec):
        lowered = _lowerings_by_member(monkeypatch)
        run_pipeline([(name, text)], lib)
        runs.append(lowered)
    assert len(runs) == len(corpus_sources) + 50 and all(runs)
    twice = [(cls, member) for lowered in runs for (_s, cls, member, _b), n in lowered.items() if n > 1]
    assert twice == []


def test_a_read_only_check_lowers_each_member_once(corpus_sources, libspec, monkeypatch):
    for name, text, lib in _sources(corpus_sources, libspec):
        program = parse(text, name)
        lowered = _lowerings_by_member(monkeypatch)
        check_program(program, infer_specs(program, lib), lib)
        check_program(program, SpecSet.from_declared(program), lib)
        members = {(cls.name, sx.member_key(meth)) for cls in program.classes for meth in cls.all_methods()}
        assert {(cls, member) for _s, cls, member, _b in lowered} == members, name
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
    lowered: dict[int, tuple] = {}  # id of a lowered CFG's node list -> member key
    kept: list = []  # the node lists, so that no id is reused
    solved: Counter = Counter()
    original_lower, original_liveness = C.lower, C.liveness

    def recording_lower(program, cls, meth, *rest):
        g = original_lower(program, cls, meth, *rest)
        lowered[id(g.nodes)] = _member_key(program, cls, meth)
        kept.append(g.nodes)
        return g

    def recording_liveness(g):
        solved[lowered[id(g.nodes)]] += 1  # a memo hit is the stored CFG, node list and all
        return original_liveness(g)

    monkeypatch.setattr(C, "lower", recording_lower)
    monkeypatch.setattr(C, "liveness", recording_liveness)
    for name, text in corpus_sources:
        run_pipeline([(name, text)], libspec)
    assert set(solved.values()) == {1}


def test_taint_is_solved_at_most_once_per_lowered_method_version(corpus_sources, libspec, monkeypatch):
    """Over its start set: a value outside it is solved alone, unkept."""
    lowered: dict[int, tuple] = {}  # id of a lowered CFG's node list -> member key
    kept: list = []  # the node lists, so that no id is reused
    solved: Counter = Counter()
    original_lower, original_taint = C.lower, C.taint

    def recording_lower(program, cls, meth, *rest):
        g = original_lower(program, cls, meth, *rest)
        lowered[id(g.nodes)] = _member_key(program, cls, meth)
        kept.append(g.nodes)
        return g

    def recording_taint(g, starts):
        if starts == C.taint_starts(g):
            solved[lowered[id(g.nodes)]] += 1
        return original_taint(g, starts)

    monkeypatch.setattr(C, "lower", recording_lower)
    monkeypatch.setattr(C, "taint", recording_taint)
    for name, text in corpus_sources:
        run_pipeline([(name, text)], libspec)
    assert set(solved.values()) == {1} and len(solved) > 20


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
def test_a_hit_is_the_stored_lowering(libspec, memoised):
    """A copy of a program whose every node sits two lines lower finds the
    original's lowering and gets it as stored: a CFG holds no program, class
    or member. A checker run reads the caller's, so its warning names the
    caller's file and lines."""
    prog = parse(LEAKY, "leaky.mj")
    dup = copy.deepcopy(prog)
    dup.line_index = {nid: (line + 2, col) for nid, (line, col) in dup.line_index.items()}
    specs = SpecSet.from_declared(prog)
    cfgs, warned = [], []
    with nullcontext() if memoised else memo_bypassed():
        for program in (prog, dup):
            version, cls = memo.ProgramVersion(program, libspec), program.classes[0]
            cfgs.append(version.cfg(cls, cls.methods[0]))
            warned.append([(w.file, w.line) for w in K.method_run(version, cls, cls.methods[0], specs)[0]])
    # a hit is the stored CFG itself; with the memo bypassed each call lowers afresh
    assert (cfgs[1] is cfgs[0]) == memoised
    assert not any(isinstance(v, (sx.Program, sx.ClassDecl, sx.MethodDecl)) for v in vars(cfgs[0]).values())
    assert warned == [[("leaky.mj", 3)], [("leaky.mj", 5)]]


def _ast_nodes_reached(value) -> int:
    """How many AST nodes a pickle of `value` reaches: a `persistent_id` hook
    counts each one it meets instead of pickling it."""
    reached = 0

    class Counting(pickle.Pickler):
        def persistent_id(self, obj):
            nonlocal reached
            if isinstance(obj, sx.Node):
                reached += 1
                return reached
            return None

    Counting(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(value)
    return reached


def test_no_stored_cfg_or_run_reaches_an_ast_node(corpus_sources, libspec, monkeypatch):
    """Every entry the memo stores, each lowering and each checker run's
    result, over `run_pipeline` of the corpus and of each of
    generate_source(0..99), pickles without meeting an `sx.Node`."""
    stored: list = []

    def lowering(*args):
        stored.append(cfg := LOWER(*args))
        return cfg

    real_remember = memo.ProgramVersion.remember

    def remember(self, cls, meth, specs, compute):
        def computing(reader):
            stored.append(result := compute(reader))
            return result

        return real_remember(self, cls, meth, specs, computing)

    monkeypatch.setattr(C, "lower", lowering)
    monkeypatch.setattr(memo.ProgramVersion, "remember", remember)
    run_pipeline(corpus_sources, libspec)
    for seed in range(100):
        run_pipeline([(f"fuzz{seed}.mj", generate_source(seed))], fuzz_libspec())
    assert sum(isinstance(entry, C.Cfg) for entry in stored) > 500 and len(stored) > 1000
    reaching = [entry for entry in stored if _ast_nodes_reached(entry)]
    assert reaching == [], f"{len(reaching)} entries reach the AST, the first a {type(reaching[0]).__name__}"


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
            assert memo.member_keys(self.program) == self.keys, "a version outlived an edit to its program"
            return _real(self, *args)

        monkeypatch.setattr(memo.ProgramVersion, name, rehashed)
    for sources, lib, config in _handoff_runs(corpus_sources, libspec):
        run_pipeline(sources, lib, config)
    assert lookups > 0


def _state(program: sx.Program) -> bytes:
    """A digest of everything a program holds: one per program state."""
    return hashlib.blake2b(pickle.dumps(program, pickle.HIGHEST_PROTOCOL)).digest()


def test_a_pipeline_run_hashes_each_program_state_once(corpus_sources, libspec, monkeypatch):
    keyed: list[bytes] = []  # the state of each program whose keys were taken
    real = memo.member_keys

    def recorded(program):
        keyed.append(_state(program))
        return real(program)

    monkeypatch.setattr(memo, "member_keys", recorded)
    total = 0
    for sources, lib, config in _handoff_runs(corpus_sources, libspec):
        keyed.clear()
        run_pipeline(sources, lib, config)
        assert len(set(keyed)) == len(keyed), [name for name, _text in sources]
        total += len(keyed)
    assert total > 0


def test_no_two_key_passes_of_a_pipeline_run_give_equal_keys(corpus_sources, libspec, monkeypatch):
    """A version is taken again only after an edit to something its keys
    read: a `final` that `finalize_fields` adds keeps the version."""
    taken = keys_taken(monkeypatch)
    repeated = []
    total = 0
    for sources, lib, config in _handoff_runs(corpus_sources, libspec):
        taken.clear()
        run_pipeline(sources, lib, config)
        if len(set(taken)) != len(taken):
            repeated.append(([name for name, _text in sources], config))
        total += len(taken)
    assert repeated == [] and total > 0


# --- what an entry reads: member keys and spec reads --------------------------

TWO_CLASSES = """class W {
  private FileInputStream s;

  W() {
    s = new FileInputStream("p");
  }
  void close() {
    s.close();
  }
  void read() {
    s.read();
  }
}
class M {
  static void main() {
    W w = new W();
    w.read();
    w.close();
  }
  static void other() {
    FileInputStream f = new FileInputStream("q");
  }
}
"""


def _work_by_member(monkeypatch) -> tuple[Counter, Counter]:
    """Counts of lowerings and of checker runs per (class, member) from now on."""
    lowered: Counter = Counter()
    ran: Counter = Counter()
    real_run = K._MethodChecker.run

    def lowering(program, cls, meth, *rest):
        lowered[(cls.name, sx.member_key(meth))] += 1
        return LOWER(program, cls, meth, *rest)

    def running(self):
        ran[(self.cfg.class_name, self.cfg.method_name)] += 1
        return real_run(self)

    monkeypatch.setattr(C, "lower", lowering)
    monkeypatch.setattr(K._MethodChecker, "run", running)
    return lowered, ran


def _memo_free_check(prog, specs, libspec):
    with memo_bypassed():
        return check_program(prog, specs, libspec)


def _call(receiver: str, method: str) -> sx.ExprStmt:
    return sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name=receiver), method=method, args=[]))


def test_editing_one_method_leaves_every_other_members_cfg_and_run_a_hit(libspec, monkeypatch):
    prog = parse(TWO_CLASSES, "two.mj")
    specs = infer_specs(prog, libspec)
    before = check_program(prog, specs, libspec)
    assert [w.method_name for w in before] == ["<init>#0", "other"]  # an unfiltered first write, and `f`
    other = prog.class_named("M").method_named("other")
    other.body.stmts.append(close := _call("f", "close"))
    prog.adopt(close, other.body.stmts[0])
    lowered, ran = _work_by_member(monkeypatch)
    after = check_program(prog, specs, libspec)
    assert (lowered, ran) == (Counter({("M", "other"): 1}), Counter({("M", "other"): 1}))
    assert after == _memo_free_check(prog, specs, libspec) == before[:1]


def test_write_specs_alone_leaves_every_cfg_a_hit(libspec, monkeypatch):
    prog = parse(TWO_CLASSES, "two.mj")
    specs = infer_specs(prog, libspec)
    warnings = check_program(prog, specs, libspec)
    lowered, ran = _work_by_member(monkeypatch)
    text = pretty_print(prog)
    write_specs(prog, specs)
    assert pretty_print(prog) != text  # @MustCall, @Owning and @EnsuresCalledMethods were written
    assert infer_specs(prog, libspec).to_json() == specs.to_json()
    assert check_program(prog, specs, libspec) == warnings
    assert (lowered, ran) == (Counter(), Counter())


def test_transform_stage_finds_every_cfg_and_run_it_reads_after_a_field_is_made_final(
    corpus_sources, libspec, monkeypatch
):
    """tempfile_writer.mj less `resetStream`: `finalize_fields` makes
    `TempFileWriter.stream` final, and then `inject_finalizers` reads the
    constructor's CFG and the methods' runs to inject a close(). No key
    reads `final`, and no run of the file reads the field's, so every
    lookup hits: `transform_stage` lowers nothing and runs nothing."""
    reset = "  void resetStream(String path) {\n    stream = new PrintStream(path);\n  }\n"
    text = dict(corpus_sources)["tempfile_writer.mj"]
    assert reset in text
    prog = parse(text.replace(reset, ""), "tempfile_writer.mj")
    version = memo.ProgramVersion(prog, libspec)
    specs = infer_specs(version, libspec)
    warnings = check_stage(version, specs, libspec, PipelineConfig())
    lowered, ran = _work_by_member(monkeypatch)
    _, log = transform_stage(version, warnings, specs, libspec)
    assert [(e.transform, e.member) for e in log.entries] == [("finalize_field", "stream"), ("inject_finalizer", "close")]
    assert (lowered, ran) == (Counter(), Counter())


def test_an_injected_close_re_lowers_no_member_of_its_file(corpus_sources, libspec, monkeypatch):
    """One `run_pipeline` of tempfile_writer.mj: `inject_finalizers` adds
    `TempFileWriter.close()`, a `void` method, whose name no lowering reads.
    So the members that no transform and no fix edits are lowered once each."""
    lowered: Counter = Counter()

    def lowering(program, cls, meth, *rest):
        lowered[(cls.name, sx.member_key(meth))] += 1
        return LOWER(program, cls, meth, *rest)

    monkeypatch.setattr(C, "lower", lowering)
    name = "tempfile_writer.mj"
    fr = run_pipeline([(name, dict(corpus_sources)[name])], libspec).files[name]
    assert ("inject_finalizer", "close") in [(e.transform, e.member) for e in fr.edit_log.entries]
    unedited = [("Client", "main"), ("TempFileWriter", "<init>#1"), ("TempFileWriter", "printSomething")]
    assert [lowered[member] for member in unedited] == [1, 1, 1], lowered


OWNERSHIP_CALLS = """class Sink {
  void take(FileInputStream f) {
  }
}
class Maker {
  FileInputStream open() {
    return new FileInputStream("x");
  }
}
class M {
  static void main() {
    Sink k = new Sink();
    FileInputStream a = new FileInputStream("a");
    k.take(a);
    Maker m = new Maker();
    FileInputStream b = m.open();
  }
}
"""


@pytest.mark.parametrize("toggled", ["param @Owning", "method @NotOwning"])
def test_toggling_a_callees_ownership_makes_its_callers_runs_miss(libspec, monkeypatch, toggled):
    prog = parse(OWNERSHIP_CALLS, "own.mj")
    specs = SpecSet.from_declared(prog)
    if toggled == "param @Owning":
        annotations, callee = prog.class_named("Sink").method_named("take").params[0].annotations, "a"
    else:
        annotations, callee = prog.class_named("Maker").method_named("open").annotations, "b"
    seen = []
    for _ in range(4):  # off, on, off, on: the last two are hits on the first two states' runs
        lowered, ran = _work_by_member(monkeypatch)
        warnings = check_program(prog, specs, libspec)
        assert warnings == _memo_free_check(prog, specs, libspec)
        seen.append(({(w.method_name, w.line) for w in warnings}, ran[("M", "main")]))
        _toggle(annotations, sx.OWNING if toggled == "param @Owning" else sx.NOT_OWNING)
    line = {"a": 13, "b": 16}[callee]
    assert ("main", line) in seen[0][0] and ("main", line) not in seen[1][0]
    # each check runs `main` once memo-free, and once more when the memo misses
    assert [main_runs for _warned, main_runs in seen] == [2, 2, 1, 1]


def test_a_spec_change_to_a_class_a_member_never_reads_leaves_its_run_a_hit(libspec, monkeypatch):
    prog = parse(TWO_CLASSES, "two.mj")
    declared = SpecSet.from_declared(prog)
    check_program(prog, declared, libspec)
    w_is_resource = SpecSet.from_declared(prog)
    w_is_resource.class_mustcall["W"] = frozenset({"close"})
    lowered, ran = _work_by_member(monkeypatch)
    assert check_program(prog, w_is_resource, libspec) == check_program(prog, declared, libspec)
    # only `main` allocates a W; `W.<init>` reads W.s's ownership, which is unchanged
    assert (lowered, ran) == (Counter(), Counter({("M", "main"): 1}))


def test_a_moved_position_moves_the_warnings_line(libspec, monkeypatch):
    src = "class A {\n  static void main() {\n    FileInputStream s = new FileInputStream(\"p\");\n"
    src += "    FileInputStream t = new FileInputStream(\"q\");\n  }\n}\n"
    prog = parse(src, "two_leaks.mj")
    specs = SpecSet.from_declared(prog)
    assert [w.line for w in check_program(prog, specs, libspec)] == [3, 4]
    # the two allocations trade lines, and every other node moves down by 2
    news = [e for s in prog.classes[0].methods[0].body.stmts for e in sx.walk_exprs(s) if isinstance(e, sx.New)]
    first, second = (prog.pos_of(n.nid) for n in news)
    prog.line_index = {nid: (line + 2, col) for nid, (line, col) in prog.line_index.items()}
    prog.line_index[news[0].nid], prog.line_index[news[1].nid] = second, first
    lowered, ran = _work_by_member(monkeypatch)
    version = memo.ProgramVersion(prog, libspec)
    warnings, _fact = K.method_run(version, prog.classes[0], prog.classes[0].methods[0], specs)
    assert (lowered, ran) == (Counter(), Counter())
    assert [(w.line, w.ast_nid) for w in warnings] == [(3, news[1].nid), (4, news[0].nid)]
    assert warnings == _memo_free_check(prog, specs, libspec)
