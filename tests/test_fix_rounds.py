"""The fix stage analyses each program version once.

A fix round screens its warnings with one `EscapeAnalyzer`, built on
`patched` before the round's first edit, and `validate_patch` runs its static
checks on `patched` rather than on the reparse. Both are sound only if the
results do not depend on the version they were read from:

  (1) for every warning a round plans, the screen's decision on the round's
      version equals the one on the program as patched just before that plan
      (`escapes_at` for an obligation, `pre_close_check` for an overwrite,
      and `screen_fix` as a whole);
  (2) on every patched program the warning ids and the final-write errors
      equal those on its reparse, and the printer is a fixpoint.

Both are checked over the corpus and `generate_source(0..599)`, whose
reports, and those of `wide_method` at N = 20 and 40, are held to pinned
digests.
"""

from collections import Counter

import pytest

from helpers import moved_reports, report_digest
from leakward import cfg as C
from leakward import pipeline
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

    def planning(self, w, program, screened):
        plan = self.plan(w, program, screened)  # a stale anchor raises: the warning is not planned
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


def _wide_method(n: int) -> str:
    """One `main` with n FileInputStream allocations; every even-numbered one
    is read and closed under a null guard, so n/2 of them leak."""
    lines = ["class Main {", "  static void main() {"]
    for k in range(n):
        lines.append(f'    FileInputStream s{k} = new FileInputStream("f{k}");')
        if k % 2 == 0:
            lines.append(f"    if (s{k} != null) {{ s{k}.read(); s{k}.close(); }}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def test_lowerings_of_one_method_do_not_grow_with_its_warnings(libspec, monkeypatch):
    """Planning N/2 repairs in one method reads the CFGs of each round's one
    version, so 20 and 40 allocations cost the same number of lowerings.
    The two reports are pinned."""
    lowered = Counter()
    original = C.lower

    def counting(program, *rest):
        lowered[program.source_name] += 1
        return original(program, *rest)

    monkeypatch.setattr(C, "lower", counting)
    digests = {}
    for n in (20, 40):
        report = pipeline.run_pipeline([(f"wide{n}.mj", _wide_method(n))], libspec)
        assert report.errors == [] and len(report.files[f"wide{n}.mj"].fix_status) >= n // 2
        digests[f"wide{n}.mj"] = report_digest(report)
    assert lowered["wide20.mj"] == lowered["wide40.mj"]
    assert moved_reports("wide_method", digests) == []
