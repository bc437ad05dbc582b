"""The checker's fixpoint computes what it always computed, whatever order
the solver visits nodes in, never mutates a fact once it is built, and
builds only facts on which the meet is idempotent. A run does no fixed work
that cannot change a fact: it never visits entry, and it solves liveness
only for a lowering that starts a value.

A SHA-256 pins every `method_run` result: its warnings and its normal-exit
fact, over the corpus and `generate_source(0..599)`, under declared and under
inferred specs; a second pins them over nested handler shapes, corpus
mutants and wide methods (`KERNEL_SHA256`), and a third pins the warnings of
the nested shapes alone (`NESTING_SHA256`). The round-robin reference in
test_cfg.py calls the same transfer function, so only a recorded result can
catch a change there, such as a copy-on-write transfer that writes into a
map an out-edge shares. The ranks only schedule the solve: checking each
method again under random rank orders gives the answer of its own order.
"""

import hashlib
import random
from itertools import chain, islice
from pathlib import Path

from helpers import NESTING_LIBSPEC, corpus_and_fuzz_programs, corpus_mutants, nesting_source, wide_method_source
from leakward import cfg as C
from leakward import checker as K
from leakward import syntax as sx
from leakward.checker import CheckFact, SiteState, check_program, method_run
from leakward.errors import FILE_ERRORS
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.libspec import load_library_spec
from leakward.memo import ProgramVersion
from leakward.parser import parse
from leakward.specs import SpecReader, SpecSet

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# an owned call result on the normal edge only: the transfer copies the
# receiver's credited origins before the call, packs the exceptional fact,
# then adds the result's origin for the normal edge
CALL_RESULT_IN_TRY = """@MustCall("close")
class R {
  void close() {
  }
  R make() {
    return new R();
  }
  static void main() {
    R q = new R();
    R r = null;
    try {
      r = q.make();
    } catch (Exception e) {
      q.close();
      return;
    }
    q.close();
    r.close();
  }
}
"""

# recorded on the checker that copied every map of the in-fact per transfer
PINNED_SHA256 = "1f37a8f31eaeedc452ff2600d3b0fb0fd56739d15ea384efe0e0e2cd549702a6"


def _canon(value, nids: dict[int, int]) -> str:
    """A repr that does not depend on set or dict order (string hashing is
    randomised per process), nor on the process-wide nid counter: a call
    origin names its node by its rank among the program's nids."""
    if isinstance(value, dict):
        return "{" + ", ".join(sorted(f"{_canon(k, nids)}: {_canon(v, nids)}" for k, v in value.items())) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(v, nids) for v in value)) + "}"
    if isinstance(value, SiteState):
        return f"SiteState({_canon(value.called, nids)}, {value.resolved})"
    if isinstance(value, CheckFact):
        return "CheckFact(" + ", ".join(_canon(getattr(value, f), nids) for f in CheckFact._fields) + ")"
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == "call":
            return f"('call', {nids[value[1]]})"
        return "(" + ", ".join(_canon(v, nids) for v in value) + ")"
    return repr(value)


def _programs():
    corpus_lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    for path in sorted(CORPUS.glob("*.mj")):
        yield parse(path.read_text(), path.name), corpus_lib
    fuzz_lib = fuzz_libspec()
    for seed in range(600):
        yield parse(generate_source(seed), f"fuzz{seed}.mj"), fuzz_lib


def test_method_runs_match_the_pinned_hash():
    digest = hashlib.sha256()
    for program, libspec in _programs():
        ranked = sorted(node.nid for cls in program.classes for node in sx.walk_nodes(cls))
        nids = {nid: rank for rank, nid in enumerate(ranked)}
        for specs in (SpecSet.from_declared(program), infer_specs(program, libspec)):
            version = ProgramVersion(program, libspec)
            for cls in program.classes:
                for meth in cls.all_methods():
                    warnings, exit_fact = method_run(version, cls, meth, specs)
                    runs = [(w.id, w.site, nids[w.ast_nid], w.line) for w in warnings]
                    key = f"{program.source_name}|{cls.name}|{sx.member_key(meth)}"
                    digest.update(f"{key}|{runs!r}|{_canon(exit_fact, nids)}\n".encode())
    assert digest.hexdigest() == PINNED_SHA256


# warnings and whether exit is reached: recorded on the checker whose meet
# reads a local absent from one side's maps as holding a value of unknown
# nullness there
NESTING_SHA256 = "a4032ebb43913e460b6ccae88e80c8f79cc1120a2276a0c4afe100def0618d2e"


def test_nesting_shapes_match_the_pinned_hash():
    """Over `nesting_source(0..1999)`, where handler and branch blocks are
    empty, return, or begin at a call inside a finally (shapes the corpus and
    generated programs rarely reach): each method's warnings and whether a
    normal path reaches exit, as a death at an empty block's end shows in
    warnings. The pin holds across lowerings that emit other nodes for the
    same program."""
    libspec = load_library_spec(NESTING_LIBSPEC)
    digest = hashlib.sha256()
    for seed in range(2000):
        program = parse(nesting_source(seed), f"nest{seed}.mj")
        version = ProgramVersion(program, libspec)
        (cls,) = program.classes
        (meth,) = cls.all_methods()
        warnings, exit_fact = method_run(version, cls, meth, SpecSet.from_declared(program))
        digest.update(f"{seed}|{[(w.id, w.kind, w.site) for w in warnings]}|{exit_fact is None}\n".encode())
    assert digest.hexdigest() == NESTING_SHA256


def _ranked_run(program, cls, cfg, reader, ranks=None):
    """A fresh checker run of `cfg` (no memo), `solve` visiting by `ranks`
    when given: what `inference` and the pipeline read of it, which are the
    warnings, whether exit is reached and the fields satisfied there."""
    if ranks is not None:
        cfg._ranks = {False: ranks, True: ranks}
    checker = K._MethodChecker(program, cls, cfg, reader)
    warnings = [(w.id, w.kind, w.site) for w in checker.run()]
    exit_fact = checker.exit_fact
    return warnings, exit_fact is None, None if exit_fact is None else exit_fact.field_sat


def test_the_checker_gives_one_answer_whatever_the_visit_order():
    """Kildall's and Kam & Ullman's point: a monotone framework has one
    fixpoint, whatever order the solver visits nodes in. Each method of the
    corpus, `generate_source(0..299)` and `nesting_source(0..1999)` is
    lowered afresh and checked under declared and inferred specs, by its
    own ranks and by three seeded random ones."""
    nesting_lib = load_library_spec(NESTING_LIBSPEC)
    nesting = ((parse(nesting_source(seed), f"nest{seed}.mj"), nesting_lib) for seed in range(2000))
    programs = chain(islice(_programs(), len(list(CORPUS.glob("*.mj"))) + 300), nesting)
    rng = random.Random(0)
    runs = 0
    for program, libspec in programs:
        for specs in (SpecSet.from_declared(program), infer_specs(program, libspec)):
            reader = SpecReader(specs, libspec, program)
            for cls in program.classes:
                for meth in cls.all_methods():
                    cfg = C.lower(program, cls, meth, libspec)
                    expected = _ranked_run(program, cls, cfg, reader)
                    for _ in range(3):
                        ranks = list(range(len(cfg.nodes)))
                        rng.shuffle(ranks)
                        got = _ranked_run(program, cls, cfg, reader, ranks)
                        assert got == expected, (program.source_name, cls.name, sx.member_key(meth), ranks)
                    runs += 1
    assert runs > 5000


# recorded on the checker whose meet reads a local absent from one side's
# maps as holding a value of unknown nullness there
KERNEL_SHA256 = "5c4c084743ffcb16769248548a74dc41c1de056b22cfbae5fe14d8b981f6fbab"


def _kernel_sources():
    """(name, text, libspec) of the shapes the kernel's visits differ most
    on: nested handler and branch blocks, one-line mutants of the corpus, and
    one method with many allocations."""
    nesting_lib = load_library_spec(NESTING_LIBSPEC)
    corpus_lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    for seed in range(2000):
        yield f"nest{seed}.mj", nesting_source(seed), nesting_lib
    for name, text in corpus_mutants(600):
        yield name, text, corpus_lib
    for n in (20, 40, 80, 160):
        yield f"wide{n}.mj", wide_method_source(n), corpus_lib


def test_kernel_runs_match_the_pinned_hash():
    """Each method's warnings (id, kind, site, line) and its canonical exit
    fact, under declared and inferred specs, over `_kernel_sources`; a file
    or method that does not parse, infer or lower pins its error's type."""
    digest = hashlib.sha256()
    for name, text, libspec in _kernel_sources():
        try:
            program = parse(text, name)
        except FILE_ERRORS as e:
            digest.update(f"{name}|{type(e).__name__}\n".encode())
            continue
        ranked = sorted(node.nid for cls in program.classes for node in sx.walk_nodes(cls))
        nids = {nid: rank for rank, nid in enumerate(ranked)}
        try:
            inferred = infer_specs(program, libspec)
        except FILE_ERRORS as e:
            inferred = None
            digest.update(f"{name}|infer|{type(e).__name__}\n".encode())
        for specs in (SpecSet.from_declared(program), inferred):
            if specs is None:
                continue
            version = ProgramVersion(program, libspec)
            for cls in program.classes:
                for meth in cls.all_methods():
                    key = f"{name}|{cls.name}|{sx.member_key(meth)}"
                    try:
                        warnings, exit_fact = method_run(version, cls, meth, specs)
                    except FILE_ERRORS as e:
                        digest.update(f"{key}|{type(e).__name__}\n".encode())
                        continue
                    runs = [(w.id, w.kind, w.site, w.line) for w in warnings]
                    digest.update(f"{key}|{runs!r}|{_canon(exit_fact, nids)}\n".encode())
    assert digest.hexdigest() == KERNEL_SHA256


def _snapshot(fact: CheckFact) -> tuple:
    """The fact's maps, copied; what they hold (frozensets, tuples, SiteStates) is immutable."""
    maps = (getattr(fact, name) for name in CheckFact._fields)
    return tuple(dict(m) if isinstance(m, dict) else m for m in maps)


def _meet_is_idempotent_on(fact: CheckFact) -> bool:
    """What `_meet` relies on to return a fact met with itself, and a map both
    sides share, unchanged: no local is both bound and null, and no bound
    local or field content has an empty origin set."""
    return (
        fact.refs.keys().isdisjoint(fact.nulls)
        and all(origins for origins, _nn in fact.refs.values())
        and all(fact.field_origins.values())
    )


def test_no_fact_is_mutated_after_it_is_built(monkeypatch):
    # id -> (fact, its contents when first seen): when the checker builds it,
    # or else when it enters or leaves transfer, _prune or _meet
    seen: dict[int, tuple[CheckFact, tuple]] = {}
    checked = 0

    def record(*facts: CheckFact) -> None:
        for fact in facts:
            if id(fact) not in seen:
                assert _meet_is_idempotent_on(fact), fact
                seen[id(fact)] = (fact, _snapshot(fact))

    transfer, prune, meet, run = K._MethodChecker.transfer, K._MethodChecker._prune, K._meet, K._MethodChecker.run

    def recording_fact(*args, **kwargs):
        fact = CheckFact(*args, **kwargs)
        record(fact)
        return fact

    def recording_transfer(self, node, fact):
        record(fact)
        outs = transfer(self, node, fact)
        record(*outs.values())
        return outs

    def recording_prune(self, fact, succ, lost):
        record(fact)
        out = prune(self, fact, succ, lost)
        record(out)
        return out

    def recording_meet(f1, f2, dropped):
        record(f1, f2)
        out = meet(f1, f2, dropped)
        record(out)
        return out

    def checking_run(self):
        nonlocal checked
        warnings = run(self)
        for fact, before in seen.values():
            assert _snapshot(fact) == before, f"{self.cfg.class_name}.{self.cfg.method_name}"
        checked += len(seen)
        seen.clear()
        return warnings

    monkeypatch.setattr(K._MethodChecker, "transfer", recording_transfer)
    monkeypatch.setattr(K._MethodChecker, "_prune", recording_prune)
    monkeypatch.setattr(K, "_meet", recording_meet)
    monkeypatch.setattr(K._MethodChecker, "run", checking_run)
    monkeypatch.setattr(K, "CheckFact", recording_fact)
    corpus_lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    programs = [(parse(CALL_RESULT_IN_TRY, "try.mj"), corpus_lib)]
    programs += islice(_programs(), len(list(CORPUS.glob("*.mj"))) + 200)
    for program, libspec in programs:
        check_program(program, infer_specs(program, libspec), libspec)
    assert checked > 0



def test_an_unresolved_origin_is_short_of_its_must_call_set(monkeypatch):
    """What lets the checker read `not resolved` as "may leak": crediting
    resolves an origin once its called-set covers the must-call set, and
    the meet intersects the called-sets and ands the flags. Checked on every
    fact that enters or leaves a transfer or `_prune`."""
    transfer, prune = K._MethodChecker.transfer, K._MethodChecker._prune
    checked = 0

    def check(checker, *facts):
        nonlocal checked
        for fact in facts:
            for origin, st in fact.origins.items():
                if not st.resolved:
                    need = checker.must_call_for(checker.origin_class(origin))
                    assert not st.called >= need, (checker.cfg.class_name, checker.cfg.method_name, origin)
                    checked += 1

    def checking_transfer(self, node, fact):
        outs = transfer(self, node, fact)
        check(self, fact, *outs.values())
        return outs

    def checking_prune(self, fact, succ, lost):
        out = prune(self, fact, succ, lost)
        check(self, fact, out)
        return out

    monkeypatch.setattr(K._MethodChecker, "transfer", checking_transfer)
    monkeypatch.setattr(K._MethodChecker, "_prune", checking_prune)
    for program, libspec in corpus_and_fuzz_programs():
        for specs in (SpecSet.from_declared(program), infer_specs(program, libspec)):
            check_program(ProgramVersion(program, libspec), specs, libspec)
    assert checked > 1000


# exit is reached only on exceptional edges: the loop test is null == null,
# so its exit edge is infeasible
NO_NORMAL_EXIT = """class A {
  static void main() {
    String x = null;
    while (x == null) {
      FileInputStream f = new FileInputStream("a");
      f.close();
    }
  }
}
"""


def test_a_method_with_no_normal_path_to_exit_has_no_exit_fact(monkeypatch):
    program = parse(NO_NORMAL_EXIT, "loop.mj")
    libspec = load_library_spec((CORPUS / "minij.libspec").read_text())
    version = ProgramVersion(program, libspec)
    cls = program.class_named("A")
    meth = cls.member("main")
    cfg = version.cfg(cls, meth)
    assert {k for (_f, t, k) in cfg.edges if t == cfg.exit} == {C.NORMAL, C.EXCEPTIONAL}
    visited = []
    transfer = K._MethodChecker.transfer

    def recording_transfer(self, node, fact):
        visited.append(node)
        return transfer(self, node, fact)

    monkeypatch.setattr(K._MethodChecker, "transfer", recording_transfer)
    warnings, exit_fact = method_run(version, cls, meth, SpecSet.from_declared(program))
    assert warnings == [] and exit_fact is None
    assert visited and cfg.exit not in visited


def _starts_a_value(cfg: C.Cfg) -> bool:
    return any(isinstance(ins, C.Alloc) or (isinstance(ins, C.Invoke) and ins.dst) for ins in cfg.nodes)


def _checked_corpus_and_fuzz():
    """Check the corpus and `generate_source(0..299)` under declared and
    inferred specs, each file on a fresh parse, so no memo entry is reused."""
    for program, libspec in islice(_programs(), len(list(CORPUS.glob("*.mj"))) + 300):
        for specs in (SpecSet.from_declared(program), infer_specs(program, libspec)):
            check_program(ProgramVersion(program, libspec), specs, libspec)


def test_no_checker_run_visits_entry(monkeypatch):
    """Entry is a `Nop` with no in-edge, so a run seeds its successors with
    the empty fact instead of visiting it."""
    transfer = K._MethodChecker.transfer
    visits = 0

    def recording_transfer(self, node, fact):
        nonlocal visits
        assert node != self.cfg.entry, (self.cfg.class_name, self.cfg.method_name)
        visits += 1
        return transfer(self, node, fact)

    monkeypatch.setattr(K._MethodChecker, "transfer", recording_transfer)
    _checked_corpus_and_fuzz()
    assert visits > 1000


def test_liveness_is_solved_exactly_for_the_lowerings_that_start_a_value(monkeypatch):
    """Only an `Alloc` or an `Invoke` with a `dst` makes an origin, so a
    lowering with neither has nothing that can die, and its runs solve no
    liveness; every other lowering a run checks has it solved once."""
    liveness, run = C.liveness, K._MethodChecker.run
    solved: list[C.Cfg] = []
    checked: dict[int, C.Cfg] = {}

    def recording_liveness(cfg):
        solved.append(cfg)
        return liveness(cfg)

    def recording_run(self):
        checked[id(self.cfg)] = self.cfg
        return run(self)

    monkeypatch.setattr(C, "liveness", recording_liveness)
    monkeypatch.setattr(K._MethodChecker, "run", recording_run)
    _checked_corpus_and_fuzz()
    starting = sorted(key for key, cfg in checked.items() if _starts_a_value(cfg))
    assert sorted(map(id, solved)) == starting
    assert 0 < len(starting) < len(checked)
    assert all(cfg.starts_values == _starts_a_value(cfg) for cfg in checked.values())


# no allocation and no call result: the store's warning reads no liveness
VALUE_FREE_STORE = """class Holder {
  @Owning private PrintStream kept;

  void fill(PrintStream p) {
    if (p != null) {
      kept = p;
    }
  }
}
"""


def test_a_value_free_overwrite_warns_without_liveness(monkeypatch):
    def no_liveness(cfg):
        raise AssertionError(f"liveness solved for {cfg.class_name}.{cfg.method_name}")

    monkeypatch.setattr(C, "liveness", no_liveness)
    program = parse(VALUE_FREE_STORE, "holder.mj")
    libspec = load_library_spec((CORPUS / "minij.libspec").read_text())
    warnings = check_program(ProgramVersion(program, libspec), SpecSet.from_declared(program), libspec)
    assert [(w.kind, w.method_name) for w in warnings] == [(K.OWNING_FIELD_OVERWRITE, "fill")]
