"""The fix stage analyses each program version once.

A fix round screens its warnings with one `EscapeAnalyzer`, built on
`patched` before the round's first edit. Validation infers and checks
nothing again: it judges the warnings the last round's re-check of `patched`
reported, and runs its final-write gate on `patched`, not on the reparse.
Both are sound only if the results do not depend on the version they were
read from:

  (1) for every warning a round plans, the screen's decision on the round's
      version equals the one on the program as patched just before that plan
      (`escapes_at` for an obligation, `pre_close_check` for an overwrite,
      and `screen_fix` as a whole);
  (2) on every patched program the warning ids and the final-write errors
      equal those on its reparse, and the printer is a fixpoint.

Both are checked over the corpus and `generate_source(0..599)`, whose
reports, and those of `wide_method` at N = 20 and 40, are held to pinned
digests.

A round's plans find their nodes in one `AstIndex`, which each application
keeps equal to an index built afresh; so planning a warning goes over no
tree, and, with one taint solve per lowering, `wide_method`'s solves do
not grow with its warnings.
"""

from collections import Counter

import pytest

from helpers import corpus_mutants, moved_reports, report_digest, wide_method_source
from leakward import cfg as C
from leakward import pipeline, repair
from leakward import syntax as sx
from leakward.checker import OWNING_FIELD_OVERWRITE, check_program, filter_constructor_first_writes, reject_final_writes
from leakward.escape import EscapeAnalyzer
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.parser import parse
from leakward.printer import pretty_print
from leakward.repair import pre_close_check

FUZZ_SEEDS = 600


def _escape_decision(w, analyzer):
    if w.kind == OWNING_FIELD_OVERWRITE:
        owner, _, field = w.anchor_token.partition(".")
        return pre_close_check(owner, field, analyzer)
    return analyzer.escapes_at(w.class_name, w.method_name, w.ast_nid)


class _RoundSpy:
    """Wraps the fix stage's `screen_fix`, `plan_fix` and `apply_plan_in_place`:
    records each warning's decisions at its round's screen and compares them,
    at each plan, with the decisions on the program as it is then."""

    def __init__(self):
        self.at_screen = {}  # (file, warning id) -> (round analyzer, decision, screen result)
        self.screen, self.plan, self.apply = pipeline.screen_fix, pipeline.plan_fix, pipeline.apply_plan_in_place
        self.round = None
        self.edits_in_round = 0
        self.compared = 0
        self.compared_after_an_edit = 0
        self.mismatches = []

    def screening(self, w, analyzer):
        if analyzer is not self.round:
            self.round, self.edits_in_round = analyzer, 0
        result = self.screen(w, analyzer)
        self.at_screen[w.file, w.id] = (analyzer, _escape_decision(w, analyzer), result)
        return result

    def planning(self, w, program, screened, index):
        plan = self.plan(w, program, screened, index)  # a stale anchor raises: the warning is not planned
        analyzer, decision, result = self.at_screen[w.file, w.id]
        now = EscapeAnalyzer(program, analyzer.specs, analyzer.libspec, enhancements=analyzer.enhancements)
        if (_escape_decision(w, now), self.screen(w, now)) != (decision, result):
            self.mismatches.append((w.file, w.id))
        self.compared += 1
        self.compared_after_an_edit += self.edits_in_round > 0
        return plan

    def applying(self, program, plan):
        edits = self.apply(program, plan)
        self.edits_in_round += 1
        return edits


@pytest.fixture(scope="module")
def fix_runs(corpus_sources, libspec):
    """Every input run through the pipeline under a `_RoundSpy`: the spy,
    each file's result with its library spec, and each report's digest."""
    spy = _RoundSpy()
    inputs = [(name, text, libspec) for name, text in corpus_sources]
    inputs += [(f"fuzz{seed}.mj", generate_source(seed), fuzz_libspec()) for seed in range(FUZZ_SEEDS)]
    results = []
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "screen_fix", spy.screening)
        mp.setattr(pipeline, "plan_fix", spy.planning)
        mp.setattr(pipeline, "apply_plan_in_place", spy.applying)
        for name, text, lib in inputs:
            report = pipeline.run_pipeline([(name, text)], lib)
            results += [(fr, lib) for fr in report.files.values()]
            digests[name] = report_digest(report)
    return spy, results, digests


def test_the_reports_are_pinned(fix_runs):
    _spy, _results, digests = fix_runs
    assert len(digests) == 22 + FUZZ_SEEDS
    assert moved_reports("fix_runs", digests) == []


def test_a_rounds_screen_holds_at_each_of_its_plans(fix_runs):
    spy, _results, _digests = fix_runs
    assert spy.mismatches == []
    # not vacuous: many plans follow an earlier edit of their round
    assert spy.compared > 300 and spy.compared_after_an_edit > 100


def test_validation_reads_the_same_warnings_on_patched_as_on_its_reparse(fix_runs):
    _spy, results, _digests = fix_runs
    differ = []
    for fr, lib in results:
        reparsed = parse(pretty_print(fr.patched), fr.patched.source_name)
        seen = []
        for program in (fr.patched, reparsed):
            specs = infer_specs(program, lib)
            warnings = filter_constructor_first_writes(check_program(program, specs, lib), program)
            seen.append((sorted(w.id for w in warnings), len(reject_final_writes(program, lib))))
        if seen[0] != seen[1] or pretty_print(reparsed) != pretty_print(fr.patched):
            differ.append(fr.name)
    assert len(results) == 22 + FUZZ_SEEDS
    assert differ == []


def test_lowerings_of_one_method_do_not_grow_with_its_warnings(libspec, monkeypatch):
    """Planning N/2 repairs in one method reads the CFGs of each round's one
    version, so 20 and 40 allocations cost the same number of lowerings.
    Each leaked holder is wrapped over its own range, so one round makes
    exactly N/2 fixes and its re-check is clean. The two reports are
    pinned."""
    lowered = Counter()
    original = C.lower

    def counting(program, *rest):
        lowered[program.source_name] += 1
        return original(program, *rest)

    monkeypatch.setattr(C, "lower", counting)
    digests = {}
    for n in (20, 40):
        report = pipeline.run_pipeline([(f"wide{n}.mj", wide_method_source(n))], libspec)
        fr = report.files[f"wide{n}.mj"]
        assert report.errors == [] and fr.iterations_used == 1 and fr.verdict.label == "Pass"
        assert list(fr.fix_status.values()) == [("fixed", repair.TRY_FINALLY_WRAP)] * (n // 2)
        digests[f"wide{n}.mj"] = report_digest(report)
    assert lowered["wide20.mj"] == lowered["wide40.mj"]
    assert moved_reports("wide_method", digests) == []


def _index_view(index):
    """What an `AstIndex` says, as comparable values: the node and the
    parent of each id, and the references and assignments to each name."""
    return (
        {nid: id(node) for nid, node in index.nodes.items()},
        {nid: id(parent) for nid, parent in index.parents.items()},
        {name: sorted(map(id, refs)) for name, refs in index.refs.items() if refs},
        {name: sorted(map(id, assigns)) for name, assigns in index.assigns.items() if assigns},
    )


# wraps the corpus has few of: a nested allocation extracted into a fresh
# local before its statement, a holder already declared, and a finally
# that is there already
EDGE_WRAPS = """class A {
  static void main() {
    new FileInputStream("a").read();
    int k = 1;
  }
  static void second() {
    FileInputStream s = null;
    s = new FileInputStream("b");
    s.read();
  }
  static void third() {
    try {
      FileInputStream t = new FileInputStream("d");
      t.read();
    } finally {
      int x = 2;
    }
  }
}
"""


def test_a_rounds_index_stays_the_index_of_patched(corpus_sources, libspec, monkeypatch):
    """The round's `AstIndex`, which each application keeps current, equals
    one built afresh on the patched program after every applied plan: over
    the corpus, its 600 mutants, wide_method at N = 20, 40, 80 and 160, and
    the rarer wraps of `EDGE_WRAPS`."""
    applied, differ = Counter(), []
    apply = pipeline.apply_plan_in_place

    def applying(program, plan):
        apply(program, plan)
        applied[plan.template] += 1
        if _index_view(plan.index) != _index_view(sx.AstIndex(program)):
            differ.append((program.source_name, plan.template))

    monkeypatch.setattr(pipeline, "apply_plan_in_place", applying)
    inputs = corpus_sources + corpus_mutants() + [(f"wide{n}.mj", wide_method_source(n)) for n in (20, 40, 80, 160)]
    for name, text in inputs + [("edge_wraps.mj", EDGE_WRAPS)]:
        pipeline.run_pipeline([(name, text)], libspec)
    assert differ == []
    assert len(applied) == 3 and min(applied.values()) > 10 and sum(applied.values()) > 250, applied


def test_repair_work_per_warning_does_not_grow_with_the_method(libspec, monkeypatch):
    """Taint is solved once per lowering, not once per warning, so wide_method
    makes as many `cfg.solve` calls at N = 20 as at N = 40; `find_anchor`
    and `_holder_reassigned` read the round's index and go over no tree:
    they start no `syntax` walk and index nothing."""
    solves = Counter()
    state = {"n": 0, "in": None}
    walks_in = Counter()
    solve = C.solve

    def counting_solve(*args, **kwargs):
        solves[state["n"]] += 1
        return solve(*args, **kwargs)

    def counting(name, function):
        def counted(*args, **kwargs):
            if state["in"]:
                walks_in[state["in"], name] += 1
            return function(*args, **kwargs)

        return counted

    def inside(name, function):
        def watched(*args, **kwargs):
            outer, state["in"] = state["in"], name
            try:
                return function(*args, **kwargs)
            finally:
                state["in"] = outer

        return watched

    monkeypatch.setattr(C, "solve", counting_solve)
    monkeypatch.setattr(sx, "_walk", counting("_walk", sx._walk))
    monkeypatch.setattr(sx.AstIndex, "add", counting("AstIndex.add", sx.AstIndex.add))
    for name in ("find_anchor", "_holder_reassigned"):
        monkeypatch.setattr(repair, name, inside(name, getattr(repair, name)))
    for n in (20, 40):
        state["n"] = n
        report = pipeline.run_pipeline([(f"wide{n}.mj", wide_method_source(n))], libspec)
        assert len(report.files[f"wide{n}.mj"].fix_status) >= n // 2
    assert solves[20] == solves[40] < 20
    assert walks_in == Counter()
