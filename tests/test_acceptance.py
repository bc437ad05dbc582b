"""Acceptance criteria, one test per criterion.

Each test prints a `ACCEPTANCE <n> PASS` line on success (run with `pytest -s`
to see them); a failed assertion is the corresponding FAIL.
"""

import copy
import json
import time
from fractions import Fraction

import pytest

from helpers import build_coverage, structurally_equal_modulo_locals
from leakward.checker import check_program, reject_final_writes
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.interp import has_main, run
from leakward.parser import parse
from leakward.pipeline import MetricsReport, PipelineConfig, run_file_pipeline, run_pipeline
from leakward.printer import pretty_print
from leakward.specs import SpecSet
from leakward.transforms import field_to_local, finalize_fields


def ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def corpus_report(corpus_sources, libspec):
    return run_pipeline(corpus_sources, libspec, PipelineConfig())


def test_acceptance_1_showcase_corpus(corpus_sources, libspec, golden_dir, corpus_report):
    started = time.monotonic()
    report = corpus_report

    # writer_wrapper: pre-inference leak at line 5, post-inference at line 13
    fr1 = report.files["writer_wrapper.mj"]
    assert [(w.line, w.resource_class) for w in fr1.w_orig] == [(5, "PrintWriter")]
    assert [(w.line, w.resource_class) for w in fr1.w_xform] == [(13, "MyWriter")]

    # tempfile_writer: injected finalizer + client wrap match the golden structurally
    fr2 = report.files["tempfile_writer.mj"]
    golden2 = parse((golden_dir / "tempfile_writer_fixed.mj").read_text(), "tempfile_writer.mj")
    assert structurally_equal_modulo_locals(fr2.patched, golden2)
    patched_text = pretty_print(fr2.patched)
    assert "class TempFileWriter implements AutoCloseable {" in patched_text
    assert "@Owning private PrintStream stream;" in patched_text
    assert "} finally {" in patched_text

    # the guarded pre-close block, verbatim
    pre_close_block = (
        "    if (stream != null) {\n"
        "      try {\n"
        "        stream.close();\n"
        "      } catch (Exception e) {\n"
        "        e.printStackTrace();\n"
        "      }\n"
        "    }\n"
        "    stream = new PrintStream(path);"
    )
    assert pre_close_block in patched_text

    # the remaining showcase programs reproduce their golden outputs
    for src_name, golden_name in [
        ("event_proxy.mj", "event_proxy_fixed.mj"),
        ("puppeteer_task.mj", "puppeteer_task_fixed.mj"),
        ("parser_tables.mj", "parser_tables_fixed.mj"),
        ("holder_trycatch.mj", "holder_trycatch_fixed.mj"),
        ("writer_wrapper.mj", "writer_wrapper_fixed.mj"),
    ]:
        golden = parse((golden_dir / golden_name).read_text(), src_name)
        assert structurally_equal_modulo_locals(report.files[src_name].patched, golden), src_name

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"showcase checks took {elapsed:.2f}s"
    ok(1, f"showcase corpus reproduced (writer lines 5->13, tempfile structural match) in {elapsed:.2f}s")


def test_acceptance_2_metric_arithmetic():
    full = MetricsReport.from_counts(cl=1446, xe=243, xr=447, f_cl=952, f_xe=62)
    assert full.resolution_rate == Fraction(1461, 2136)
    assert full.percent == 68
    baseline = MetricsReport.from_counts(cl=1909, xe=0, xr=0, f_cl=783, f_xe=0)
    assert baseline.resolution_rate == Fraction(783, 1909)
    assert baseline.percent == 41
    inference_only = MetricsReport.from_counts(cl=1537, xe=320, xr=356, f_cl=755, f_xe=5)
    assert inference_only.resolution_rate == Fraction(1116, 2213)
    assert inference_only.percent == 50
    ok(2, "reference rows give R=1461/2136 (68%), 783/1909 (41%), 1116/2213 (50%) exactly")


def test_acceptance_3_checker_soundness_vs_oracle(corpus_sources, libspec):
    fuzz_lib = fuzz_libspec()
    completed = 0
    violations = []

    def check_one(prog, lib):
        report = run(prog, lib)
        if report.status != "Completed":
            return None
        warnings = check_program(prog, SpecSet.from_declared(prog), lib)
        covered = build_coverage(prog, lib, warnings)
        return [site for site in set(report.leaked_sites) if not covered(site)]

    for name, text in corpus_sources:
        prog = parse(text, name)
        if not has_main(prog):
            continue
        uncovered = check_one(prog, libspec)
        if uncovered is None:
            continue
        completed += 1
        violations += [(name, s) for s in uncovered]

    fuzz_completed = 0
    seed = 0
    while fuzz_completed < 200 and seed < 400:
        prog = parse(generate_source(seed), f"fuzz{seed}.mj")
        uncovered = check_one(prog, fuzz_lib)
        seed += 1
        if uncovered is None:
            continue
        fuzz_completed += 1
        violations += [(f"fuzz{seed}", s) for s in uncovered]

    assert fuzz_completed >= 200
    assert violations == [], violations[:5]
    ok(3, f"zero soundness violations over {completed} corpus + {fuzz_completed} fuzzer programs")


def test_acceptance_4_repair_safety(corpus_sources, libspec, corpus_report):
    # corpus: every file-level patch validates (100%)
    for name, fr in corpus_report.files.items():
        if any(st == "fixed" for st, _ in fr.fix_status.values()):
            assert fr.verdict is not None and fr.verdict.ok, (name, fr.verdict)
        for wid, (st, detail) in fr.fix_status.items():
            assert st in ("fixed", "unfixable"), (name, wid, st, detail)

    # fuzzer: >= 99% of patched programs validate; failures carry reasons.
    # A file counts when it has a patch: a failed one has no "fixed" entry
    # left, as fix_stage labels each of its fixes "validation-failed"
    fuzz_lib = fuzz_libspec()
    attempted = 0
    failed = []
    seed = 0
    while attempted < 60 and seed < 240:
        prog = parse(generate_source(seed), f"fuzz{seed}.mj")
        seed += 1
        fr = run_file_pipeline(prog, fuzz_lib, PipelineConfig())
        if not fr.diff:
            continue
        attempted += 1
        if fr.verdict is not None and not fr.verdict.ok:
            failed.append((seed - 1, fr.verdict.label))
    rate = (attempted - len(failed)) / attempted
    assert rate >= 0.99, (rate, failed[:5])
    ok(4, f"corpus patches validate 100%; fuzzer pass rate {rate:.1%} over {attempted} patched programs")


def test_acceptance_5_transform_semantic_preservation(corpus_sources, libspec):
    checked = 0
    for name, text in corpus_sources:
        prog = parse(text, name)
        if not has_main(prog):
            continue
        baseline = run(prog, libspec)
        finalize_fields(prog, libspec)
        finalized = copy.deepcopy(prog)  # the finalize-only state, kept from field_to_local's edits
        field_to_local(prog)
        assert run(finalized, libspec) == baseline, name
        assert run(prog, libspec) == baseline, name
        assert reject_final_writes(finalized, libspec) == [], name
        assert reject_final_writes(prog, libspec) == [], name
        checked += 1
    assert checked == len(corpus_sources)  # every corpus program has a main
    ok(5, f"interpreter reports identical pre/post transforms for all {checked} corpus programs")


def test_acceptance_6_six_condition_filter():
    from test_checker import TRUTH_TABLE, _overwrite_case

    assert len(TRUTH_TABLE) == 12
    for label, kwargs, expect_kept in TRUTH_TABLE:
        assert _overwrite_case(**kwargs) is expect_kept, label
    ok(6, "12-case constructor-first-write truth table matches exactly")


def test_acceptance_7_pre_close_eligibility():
    from test_repair import PRECLOSE_CASES, _eligibility

    assert len(PRECLOSE_CASES) == 6
    for label, kwargs, expected, which in PRECLOSE_CASES:
        got, failing = _eligibility(**kwargs)
        assert got is expected, label
        if not expected:
            assert failing == which, label
    ok(7, "6-case pre-close eligibility table matches exactly")


def test_acceptance_8_determinism_and_idempotence(corpus_sources, libspec):
    first = run_pipeline(corpus_sources, libspec, PipelineConfig())
    second = run_pipeline(corpus_sources, libspec, PipelineConfig())
    bytes_a = json.dumps(first.to_json(), sort_keys=True)
    bytes_b = json.dumps(second.to_json(), sort_keys=True)
    assert bytes_a == bytes_b
    for name in first.files:
        assert pretty_print(first.files[name].patched) == pretty_print(second.files[name].patched)
        assert first.files[name].diff == second.files[name].diff

    patched_sources = [(name, pretty_print(fr.patched)) for name, fr in sorted(first.files.items())]
    third = run_pipeline(patched_sources, libspec, PipelineConfig())
    new_patches = [
        (name, wid)
        for name, fr in third.files.items()
        for wid, (st, _d) in fr.fix_status.items()
        if st == "fixed"
    ]
    assert new_patches == []
    for name, fr in third.files.items():
        assert fr.diff == "", name
    ok(8, "two runs byte-identical; third run on the patched corpus produced zero new patches")


EXPECTED_FIXED = {
    "branch_leak.mj": {"TryFinallyWrap"},
    "close_in_existing_try.mj": {"CloseInFinally"},
    "demote_field.mj": {"TryFinallyWrap"},
    "escape_return.mj": {"TryFinallyWrap"},
    "event_proxy.mj": {"TryFinallyWrap"},
    "parser_tables.mj": {"PreCloseInsertion"},
    "puppeteer_task.mj": {"TryFinallyWrap"},
    "tempfile_writer.mj": {"TryFinallyWrap", "PreCloseInsertion"},
    "writer_wrapper.mj": {"TryFinallyWrap"},
    "finalize_two_ctors.mj": {"TryFinallyWrap"},
    "multi_mustcall.mj": {"TryFinallyWrap"},
    "shutdown_wrapper.mj": {"TryFinallyWrap"},
    "wrapper_chain.mj": {"TryFinallyWrap"},
}

EXPECTED_UNFIXABLE = {
    "accessor_escaping.mj": {"EscapesToField"},
    "escape_arg.mj": {"EscapesArg"},
    "escape_collection.mj": {"EscapesToField"},
    "escape_field.mj": {"EscapesToField"},
    "escape_return.mj": {"EscapesReturn"},
    "loop_alloc.mj": {"NoIrMatch"},
}

EXPECTED_QUIET = {"clean_close.mj", "use_alias.mj", "already_clean_wrapper.mj", "holder_trycatch.mj"}


def test_acceptance_9_end_to_end_dispositions(corpus_sources, libspec, golden_dir, corpus_report):
    started = time.monotonic()
    report = run_pipeline(corpus_sources, libspec, PipelineConfig())
    elapsed = time.monotonic() - started

    golden = json.loads((golden_dir / "dispositions.json").read_text())
    for name, fr in report.files.items():
        expected = golden["files"][name]
        got_orig = [{"id": w.id, "kind": w.kind, "line": w.line, "resourceClass": w.resource_class} for w in fr.w_orig]
        assert got_orig == expected["warningsOriginal"], name
        got_xform = [
            {
                "id": w.id,
                "kind": w.kind,
                "line": w.line,
                "resourceClass": w.resource_class,
                "state": fr.fix_status[w.id][0],
                "detail": fr.fix_status[w.id][1],
            }
            for w in fr.w_xform
        ]
        assert got_xform == expected["warningsTransformed"], name
        assert (fr.verdict.label if fr.verdict else None) == expected["verdict"], name

    # every fixable pattern received a validated patch
    for name, templates in EXPECTED_FIXED.items():
        fr = report.files[name]
        fixed = {d for st, d in fr.fix_status.values() if st == "fixed"}
        assert templates <= fixed, (name, fr.fix_status)
        assert fr.verdict.ok, name
    # authored-unfixable cases carry exactly the designed reasons
    for name, reasons in EXPECTED_UNFIXABLE.items():
        fr = report.files[name]
        unfixable = {d for st, d in fr.fix_status.values() if st == "unfixable"}
        assert reasons <= unfixable, (name, fr.fix_status)
    for name in EXPECTED_QUIET:
        assert not report.files[name].w_xform, name

    assert report.metrics.to_json() == golden["metrics"]
    assert report.exit_code == golden["exitCode"] == 2
    assert elapsed < 30.0, f"full pipeline took {elapsed:.2f}s"
    ok(9, f"all {len(report.files)} corpus dispositions match the golden file; pipeline ran in {elapsed:.2f}s")
