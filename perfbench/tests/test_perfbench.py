"""Tests for the benchmark itself: inputs, timing arithmetic and tracing.

    python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import pytest

from perfbench import inputs, measure, tracing, workloads
from perfbench.run import END_TO_END, FileRun, Outcome, Pass, failures, timing

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_gives_same_sources():
    from leakward.fuzz import generate_source

    batch = inputs.fuzz_batch(7, 5)
    assert batch == inputs.fuzz_batch(7, 5)
    assert batch != inputs.fuzz_batch(1007, 5)
    # the middle program of each fifth of the 50 candidates, sorted by size
    pool = inputs.FUZZ_POOL_FACTOR * 5
    assert len(batch) == 5 and all(text == generate_source(int(name[4:-3])) for name, text in batch)
    assert all(7 <= int(name[4:-3]) < 7 + pool for name, _ in batch)
    sizes = sorted(inputs.size_key(generate_source(7 + i)) for i in range(pool))
    kept = sorted(inputs.size_key(text) for _, text in batch)
    assert kept == sizes[inputs.FUZZ_POOL_FACTOR // 2 :: inputs.FUZZ_POOL_FACTOR]
    a = workloads.load("fuzz_check", ROOT, 3).files
    b = workloads.load("fuzz_check", ROOT, 3).files
    assert a == b and len(a) == inputs.FUZZ_CHECK_FILES


def test_wide_method_source():
    src = inputs.wide_method_source(20)
    assert src == inputs.wide_method_source(20)
    assert src.count("new FileInputStream") == 20
    assert src.count(".close();") == 10
    assert "if (s18 != null) { s18.read(); s18.close(); }" in src
    assert "s19.close()" not in src


def test_self_time_on_hand_built_tree():
    # root [0,10] -> a [1,4] -> b [2,3]; root -> a [5,9]
    spans = [["root", -1, 0.0, 10.0], ["a", 0, 1.0, 4.0], ["b", 1, 2.0, 3.0], ["a", 0, 5.0, 9.0]]
    got = tracing.self_times(spans)
    assert got["root"] == (1, pytest.approx(3.0))
    assert got["a"] == (2, pytest.approx(2.0 + 4.0))
    assert got["b"] == (1, pytest.approx(1.0))


def test_calibration_ratio():
    # each file run over the calibration around it, then each file's median
    # over the passes; a pass is the sum of those medians
    passes = [
        Pass(False, [FileRun("f", 1.0, "", cal=0.1), FileRun("g", 1.0, "", cal=0.1)]),
        Pass(False, [FileRun("f", 3.0, "", cal=0.1), FileRun("g", 2.0, "", cal=0.2)]),
        Pass(False, [FileRun("f", 4.0, "", cal=0.2), FileRun("g", 0.5, "", cal=0.1)]),
    ]
    t = timing(passes, [0.2, 0.1, 0.1])
    assert t["pass_s"] == pytest.approx(3.0 + 1.0)
    assert t["pass_norm"] == pytest.approx(20.0 + 10.0)  # f: 10, 30, 20; g: 10, 10, 5
    assert t["file_p50_norm"] == pytest.approx(15.0)  # median of 20 and 10
    assert t["cal_s"] == pytest.approx(0.1)
    assert measure.snapshot() > 0 and measure.calibrate() > 0


def test_failures_count_files_not_passes():
    out = Outcome(
        passes=[
            Pass(False, [FileRun("f", 1.0, "a"), FileRun("g", 1.0, "b"), FileRun("h", 1.0, "c")]),
            Pass(False, [FileRun("f", 1.0, "a"), FileRun("g", 1.0, "x"), FileRun("h", 1.0, "c")]),
            Pass(False, [FileRun("f", 1.0, "a"), FileRun("g", 1.0, "x"), FileRun("h", 1.0, "c")]),
        ],
        reference={"f": "a", "g": "b", "h": "c"},
        failed_first={"h": "validation WarningSurvives"},
    )
    attempted, failed, reasons = failures(out)
    assert (attempted, failed) == (3, 2)
    assert reasons == {"h": "validation WarningSurvives", "g": "output of pass 1 differs from pass 0"}


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = measure.tail(range(1, 22))  # 21 samples
    assert (value, beyond) == (11, 10)
    assert pct == pytest.approx(100 * 11 / 21)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _pipeline_modules():
    import leakward.interp
    import leakward.pipeline

    return leakward.pipeline, leakward.interp


def test_tracing_restores_code_and_counts_repeat():
    pipeline, interp = _pipeline_modules()
    work = workloads.load("wide_method", ROOT, 0)
    small = [("w.mj", inputs.wide_method_source(4))]
    originals = (pipeline.check_program, interp.run, pipeline.copy)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            assert pipeline.check_program is not originals[0]
            work.run_file(*small[0])
        finally:
            tracing.uninstall(tracer)
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert (pipeline.check_program, interp.run, pipeline.copy) == originals
    assert counts[0] == counts[1]
    assert counts[0]["checker.check_program.calls"] > 0
    assert counts[0]["cfg.lower.calls"] > 0
    assert counts[0]["pipeline.deepcopy.calls"] > 0
    assert counts[0]["interp.validate_patch.calls"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
