#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

One process, one caller, no threads: the workload's files are handed to the
program one after another, a pass over all of them at a time, until
--seconds have gone (at least MIN_PASSES passes). The calibration loop
(perfbench/measure.py) runs before every file and after the last: each
file run is divided by the geometric mean of the calibrations on either
side of it. The first pass's outputs go through the workload's
reference checks; every later pass must reproduce them byte for byte.

--trace 0 reports the end-to-end metrics, among them `setup_s`: the median
over SETUP_PROBES fresh processes of the time from process start until the
workload is set up (import, library spec, inputs), host-normalised like the
other times but expressed in seconds (SETUP_REFERENCE_CAL_S).

--trace 1 alternates untraced passes with passes traced by
perfbench/tracing.py and reports the per-layer metrics of the traced passes:
counts from the first (every traced pass must repeat them exactly), self
times as medians. The spans are written to perfbench/out/.

The line before the last records raw seconds, calibration time, the tail
percentile and the failed files; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # the second pass checks that the first's outputs repeat
MIN_TRACED_PASSES = 2  # one untraced, one traced
SETUP_PROBES = 7
# setup_s is in seconds on a host where one calibration takes this long (the
# median on the shared 2-vCPU host the benchmark was tuned on): each probe is
# divided by the calibration taken just before it. Raw seconds moved by a
# quarter between two sets of ten runs; normalised, by less than half that.
SETUP_REFERENCE_CAL_S = 0.012
PROBE_TIMEOUT_S = 60
# String hashing is randomised per process and the analysis's sets and dicts
# follow it: the same pass, normalised, varied by several percent from one
# process to the next. Every run and set-up probe uses this hash seed.
HASH_SEED = "0"
CAL_SHARE = 0.1  # calibration time after a file, as a share of the file's time

END_TO_END = (
    ("setup_s", "s"),
    ("pass_norm", "cal"),
    ("file_p50_norm", "cal"),
    ("file_tail_norm", "cal"),
    ("ok_ratio", "ratio"),
    ("resolution_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class FileRun:
    name: str
    seconds: float
    output: str
    cal: float = 1.0  # calibration around this file run: geometric mean of the one before and after


@dataclass
class Pass:
    traced: bool
    files: list[FileRun]
    tracer: object = None

    @property
    def seconds(self) -> float:
        return sum(f.seconds for f in self.files)


@dataclass
class Outcome:
    passes: list[Pass] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    reference: dict[str, str] = field(default_factory=dict)  # file -> first-pass output
    failed_first: dict[str, str] = field(default_factory=dict)  # file -> reason
    problems: list[str] = field(default_factory=list)
    resolution_rate: float = 0.0


def run_pass(workload, tracer, keep: bool, calibrations: list[float]):
    """Hand every file to the program once, with a calibration before the
    first file and after each: the median of as many runs of the reference
    work as take about CAL_SHARE of the file's time (at least one), so that
    a long file is not divided by one noisy snapshot. Every snapshot is
    appended to `calibrations`. Returns the pass and, if `keep`, the (name,
    text, output object) triples of the files that did not raise, with the
    reasons of those that did."""
    from perfbench import measure, tracing

    files, kept, errors = [], [], {}

    def calibration(runs: int) -> float:
        snapshots = [measure.snapshot() for _ in range(runs)]
        calibrations.extend(snapshots)
        return measure.median(snapshots)

    def run_files():
        before = calibration(measure.CAL_SAMPLES)
        for name, text in workload.files:
            start = time.perf_counter()
            try:
                payload = workload.run_file(name, text)
            except Exception as e:  # noqa: BLE001 - a file that raises is a failed file
                seconds = time.perf_counter() - start
                errors[name] = f"raised {type(e).__name__}: {e}"
                output = errors[name]
            else:
                seconds = time.perf_counter() - start
                output = workload.fingerprint(payload)
                if keep:
                    kept.append((name, text, payload))
            after = calibration(max(1, round(CAL_SHARE * seconds / before)))
            files.append(FileRun(name, seconds, output, math.sqrt(before * after)))
            before = after

    if tracer is None:
        run_files()
    else:
        tracing.install(tracer)
        try:
            tracer.wrap(run_files, "bench.pass")()
        finally:
            tracing.uninstall(tracer)
    return Pass(tracer is not None, files, tracer=tracer), kept, errors


def run_passes(workload, seconds: float, trace: bool) -> Outcome:
    from perfbench import tracing

    out = Outcome()
    least = MIN_TRACED_PASSES if trace else MIN_PASSES
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(out.passes) % 2 == 1
        first = not out.passes
        p, kept, errors = run_pass(workload, tracing.Tracer() if traced else None, first, out.calibrations)
        out.passes.append(p)
        if first:
            verdicts = workload.check(kept)
            del kept
            out.reference = {f.name: f.output for f in p.files}
            out.failed_first = {**verdicts.failed, **errors}
            out.problems = verdicts.problems
            out.resolution_rate = float(verdicts.resolution_rate)
        if len(out.passes) >= least and time.perf_counter() + p.seconds > deadline:
            return out


def failures(out: Outcome) -> tuple[int, int, dict[str, str]]:
    """(attempted, failed, reasons) over the workload's files: a file fails
    when it failed a reference check or raised on the first pass, or the
    output of a later pass differs from the first pass's. Files, not file
    runs, are counted, so the counts do not depend on how many passes fit
    into the run."""
    reasons = dict(out.failed_first)
    for i, p in enumerate(out.passes):
        for f in p.files:
            if f.name not in reasons and f.output != out.reference[f.name]:
                reasons[f.name] = f"output of pass {i} differs from pass 0"
    return len(out.reference), len(reasons), reasons


def file_medians(passes: list[Pass], normalised: bool = False) -> list[float]:
    """Each file's median time over the passes: in seconds, or in
    calibration units (each run over the calibration around it)."""
    from perfbench import measure as m

    per_file: dict[str, list[float]] = {}
    for p in passes:
        for f in p.files:
            per_file.setdefault(f.name, []).append(f.seconds / f.cal if normalised else f.seconds)
    return [m.median(times) for times in per_file.values()]


def timing(passes: list[Pass], calibrations: list[float]) -> dict:
    """Pass and per-file times, raw and normalised. A file's normalised time
    is the median over the passes of its time over the calibration around
    it; a pass is the sum over files of those medians, which keeps a
    slowdown of the host during one pass out of it; p50 and tail are taken
    over files."""
    from perfbench import measure as m

    raw = file_medians(passes)
    norm = file_medians(passes, normalised=True)
    tail_norm, tail_pct, beyond = m.tail(norm)
    return {
        "pass_norm": sum(norm),
        "pass_s": sum(raw),
        "file_p50_norm": m.median(norm),
        "file_p50_s": m.median(raw),
        "file_tail_norm": tail_norm,
        "file_tail_s": m.tail(raw)[0],
        "file_tail_pct": tail_pct,
        "file_tail_beyond": beyond,
        "files": len(norm),
        "passes": len(passes),
        "cal_s": m.median(calibrations),
        "calibrations": len(calibrations),
    }


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """For each of SETUP_PROBES fresh interpreters, the seconds from starting
    it until it has set up the workload, and a calibration taken just before."""
    from perfbench import measure

    times, calibrations = [], []
    for _ in range(SETUP_PROBES):
        calibrations.append(measure.calibrate())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        times.append(ready - start)
    return times, calibrations


def end_to_end(args, out: Outcome) -> tuple[dict, dict]:
    from perfbench import measure as m

    setup, setup_cal = probe_setup(args.workload, args.seed)
    t = timing(out.passes, out.calibrations)
    attempted, failed, reasons = failures(out)
    values = {
        "setup_s": m.median([s / c for s, c in zip(setup, setup_cal)]) * SETUP_REFERENCE_CAL_S,
        "pass_norm": t["pass_norm"],
        "file_p50_norm": t["file_p50_norm"],
        "file_tail_norm": t["file_tail_norm"],
        "ok_ratio": 1 - failed / attempted,
        "resolution_rate": out.resolution_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        **t,
        "setup_samples_s": setup,
        "setup_cal_s": setup_cal,
        "failed_ratio": failed / attempted,
        "failed_files": reasons,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, detail


def per_layer(args, out: Outcome) -> tuple[dict, dict]:
    from perfbench import measure as m
    from perfbench import tracing

    plain = [p for p in out.passes if not p.traced]
    traced = [p for p in out.passes if p.traced]
    layers = [tracing.layer_metrics(p.tracer) for p in traced]
    counts = {k: v for k, v in layers[0].items() if not k.endswith("_s")}
    for other in layers[1:]:
        if {k: other[k] for k in counts} != counts:
            out.problems.append("per-layer counts differ between traced passes")
    values = dict(counts)
    for k in layers[0]:
        if k.endswith("_s"):
            values[k] = m.median([layer[k] for layer in layers])
    # same process, same host: the calibration cancels out of this ratio
    values["bench.trace_overhead"] = sum(file_medians(traced)) / sum(file_medians(plain))

    spans_path = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.spans.json"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "span_fields": ["name", "parent", "start_s", "end_s"],
                "passes": [{"spans": p.tracer.spans, "counts": dict(p.tracer.counts)} for p in traced],
            }
        )
    )
    attempted, failed, reasons = failures(out)
    detail = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "pass_s": sum(file_medians(plain)),
        "traced_pass_s": sum(file_medians(traced)),
        "cal_s": m.median(out.calibrations),
        "failed_files": reasons,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "leakward").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no leakward sources under {ROOT}", file=sys.stderr)
        return 2
    # helpers.build_coverage, the soundness oracle the acceptance tests use
    sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    workload = workloads.load(args.workload, ROOT, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    out = run_passes(workload, args.seconds, bool(args.trace))
    report = per_layer if args.trace else end_to_end
    metrics, detail = report(args, out)
    attempted, failed, _reasons = failures(out)
    detail["problems"] = out.problems
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}, sort_keys=True))
    print(
        json.dumps(
            {"correct": not out.problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    raise SystemExit(main())
