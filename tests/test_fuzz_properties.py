"""Fuzzer-driven properties: checker soundness against the interpreter oracle
and repair safety across generated programs."""

import pytest

from helpers import build_coverage
from leakward.checker import check_program, filter_constructor_first_writes
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.interp import run
from leakward.parser import parse
from leakward.pipeline import PipelineConfig, run_file_pipeline
from leakward.specs import SpecSet

LIB = fuzz_libspec()
CONFIG = PipelineConfig()

SEED_COUNT = 260  # yields well over 200 programs that complete normally


@pytest.fixture(scope="module")
def fuzz_sources():
    """(seed, source) pairs; each test parses its own programs, since the
    pipeline edits the parse it is given."""
    return [(seed, generate_source(seed)) for seed in range(SEED_COUNT)]


def _parse(seed, src):
    return parse(src, f"fuzz{seed}.mj")


def test_fuzz_soundness_vs_oracle(fuzz_sources):
    """Every interpreter-leaked allocation site is covered by a spec-free
    checker warning (acceptance criterion 3 core property)."""
    completed = 0
    violations = []
    for seed, src in fuzz_sources:
        prog = _parse(seed, src)
        report = run(prog, LIB)
        if report.status != "Completed":
            continue
        completed += 1
        warnings = check_program(prog, SpecSet.from_declared(prog), LIB)
        covered = build_coverage(prog, LIB, warnings)
        for site in set(report.leaked_sites):
            if not covered(site):
                violations.append((seed, site))
    assert completed >= 200, f"only {completed} programs completed"
    assert violations == []


def test_fuzz_soundness_after_inference(fuzz_sources):
    """Inference never loses oracle coverage: leaked sites stay attributable
    to post-inference warnings."""
    violations = []
    for seed, src in fuzz_sources[:120]:
        prog = _parse(seed, src)
        report = run(prog, LIB)
        if report.status != "Completed":
            continue
        specs = infer_specs(prog, LIB)
        warnings = filter_constructor_first_writes(check_program(prog, specs, LIB), prog)
        covered = build_coverage(prog, LIB, warnings, specs)
        for site in set(report.leaked_sites):
            if not covered(site):
                violations.append((seed, site))
    assert violations == []


def test_fuzz_repair_safety(fuzz_sources):
    """Full pipeline per program: every file-level patch validates, and no
    fix is relabelled validation-failed (acceptance criterion 4 core property)."""
    attempted = 0
    failures = []
    unexplained = []
    for seed, src in fuzz_sources[:210]:
        fr = run_file_pipeline(_parse(seed, src), LIB, CONFIG)
        if not any(st == "fixed" for st, _ in fr.fix_status.values()):
            continue
        attempted += 1
        if fr.verdict is not None and not fr.verdict.ok:
            failures.append((seed, fr.verdict.label))
        for wid, (st, detail) in fr.fix_status.items():
            if st == "validation-failed":
                unexplained.append((seed, wid, detail))
    assert attempted >= 50
    pass_rate = (attempted - len(failures)) / attempted
    assert pass_rate >= 0.99, (pass_rate, failures[:5])
    assert not unexplained, unexplained[:5]


def test_fuzz_pipeline_determinism_sample(fuzz_sources):
    for seed, src in fuzz_sources[:12]:
        a = run_file_pipeline(_parse(seed, src), LIB, CONFIG)
        b = run_file_pipeline(_parse(seed, src), LIB, CONFIG)
        assert {k: v for k, v in a.fix_status.items()} == {k: v for k, v in b.fix_status.items()}
        from leakward.printer import pretty_print

        assert pretty_print(a.patched) == pretty_print(b.patched)


def test_fuzz_patched_programs_never_regress(fuzz_sources):
    """Leaked sites never increase and no use-after-close appears post-repair."""
    for seed, src in fuzz_sources[:100]:
        prog = _parse(seed, src)
        before = run(prog, LIB)
        if before.status != "Completed":
            continue
        fr = run_file_pipeline(prog, LIB, CONFIG)
        after = run(fr.patched, LIB)
        assert after.use_after_close == (), seed
        from collections import Counter

        cb, ca = Counter(before.leaked_sites), Counter(after.leaked_sites)
        assert all(ca[k] <= cb[k] for k in ca), seed
