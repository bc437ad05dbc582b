"""The checker's fixpoint computes what it always computed, never mutates
a fact once it is built, and builds only facts on which the meet is
idempotent.

A SHA-256 pins every `method_run` result: its warnings and its normal-exit
fact, over the corpus and `generate_source(0..599)`, under declared and under
inferred specs. The round-robin reference in test_cfg.py calls the same
transfer function, so only a recorded result can catch a change there, such
as a copy-on-write transfer that writes into a map an out-edge shares.
"""

import hashlib
from itertools import islice
from pathlib import Path

from helpers import NESTING_LIBSPEC, corpus_and_fuzz_programs, nesting_source
from leakward import cfg as C
from leakward import checker as K
from leakward import syntax as sx
from leakward.checker import CheckFact, SiteState, check_program, method_run
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.libspec import load_library_spec
from leakward.memo import ProgramVersion
from leakward.parser import parse
from leakward.specs import SpecSet

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
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == "call":
            return f"('call', {nids[value[1]]})"
        return "(" + ", ".join(_canon(v, nids) for v in value) + ")"
    if isinstance(value, SiteState):
        return f"SiteState({_canon(value.called, nids)}, {value.resolved})"
    if isinstance(value, CheckFact):
        return "CheckFact(" + ", ".join(_canon(getattr(value, f), nids) for f in CheckFact.__dataclass_fields__) + ")"
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


# warnings and whether exit is reached: recorded on the lowering that copied
# each value into its local through a temporary and tested a null temporary
NESTING_SHA256 = "4ba6ea5ab979826ab16d6eaa4b1f7659260f0ae76b986d83c0a766dcb5a2de3b"
# the rank order: recorded on the lowering that defines a named local in the
# node of its value and tests `null` as a Branch operand
NESTING_ORDER_SHA256 = "6b7191d299b19cc0ffa061daf6c513353a812c9d917b57084668f750bfd641c2"


def test_nesting_shapes_match_the_pinned_hash():
    """Over `nesting_source(0..1999)`, where handler and branch blocks are
    empty, return, or begin at a call inside a finally (shapes the corpus and
    generated programs rarely reach): each method's warnings and whether a
    normal path reaches exit, and, pinned apart, the rank order `solve`
    visits its non-Nop nodes in, as a death at an empty block's end and the
    visiting order (an infeasible branch side keeps an earlier visit's fact)
    both show in warnings. The first pin holds across lowerings that emit
    other nodes for the same program; the second moves with the nodes a
    lowering emits."""
    libspec = load_library_spec(NESTING_LIBSPEC)
    digest, order_digest = hashlib.sha256(), hashlib.sha256()
    for seed in range(2000):
        program = parse(nesting_source(seed), f"nest{seed}.mj")
        version = ProgramVersion(program, libspec)
        (cls,) = program.classes
        (meth,) = cls.all_methods()
        warnings, exit_fact = method_run(version, cls, meth, SpecSet.from_declared(program))
        g = version.cfg(cls, meth)
        index = {n: i for i, n in enumerate(n for n, ins in enumerate(g.nodes) if not isinstance(ins, C.Nop))}
        order = [index[n] for n in g.rpo() if n in index]
        digest.update(f"{seed}|{[(w.id, w.kind, w.site) for w in warnings]}|{exit_fact is None}\n".encode())
        order_digest.update(f"{seed}|{order}\n".encode())
    assert (digest.hexdigest(), order_digest.hexdigest()) == (NESTING_SHA256, NESTING_ORDER_SHA256)


def _snapshot(fact: CheckFact) -> tuple:
    """The fact's maps, copied; what they hold (frozensets, tuples, SiteStates) is immutable."""
    maps = (getattr(fact, name) for name in CheckFact.__dataclass_fields__)
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

    def recording_meet(f1, f2):
        record(f1, f2)
        out = meet(f1, f2)
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
    assert cfg.preds(cfg.exit, C.EXCEPTIONAL) and cfg.preds(cfg.exit, C.NORMAL)
    visited = []
    transfer = K._MethodChecker.transfer

    def recording_transfer(self, node, fact):
        visited.append(node)
        return transfer(self, node, fact)

    monkeypatch.setattr(K._MethodChecker, "transfer", recording_transfer)
    warnings, exit_fact = method_run(version, cls, meth, SpecSet.from_declared(program))
    assert warnings == [] and exit_fact is None
    assert visited and cfg.exit not in visited
