"""The four workloads: their inputs, the per-file operation that is timed, the
output compared across passes, and the reference checks on the first pass.

Each reference check marks files as failed (with a reason) or reports a
workload-level problem, which makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import inputs

# The paper's corpus table; dispositions.json holds the same numbers.
CORPUS_TABLE = {"CL": 18, "XE": 2, "XR": 5, "F_CL": "12", "F_XE": "2", "R": "19/25"}


@dataclass
class Verdicts:
    failed: dict[str, str]  # file name -> why it failed
    problems: list[str]  # workload-level checks that did not hold
    resolution_rate: Fraction


@dataclass
class Workload:
    name: str
    files: list[tuple[str, str]]
    run_file: Callable[[str, str], object]  # the timed operation
    fingerprint: Callable[[object], str]  # output that must repeat across passes
    check: Callable[[list[tuple[str, str, object]]], Verdicts]  # on the first pass


NAMES = ("corpus", "wide_method", "fuzz_repair", "fuzz_check")


def load(name: str, root: Path, seed: int) -> Workload:
    """Import leakward, load the library spec and build the inputs."""
    import leakward  # noqa: F401 - every layer module, so tracing can patch them
    from leakward.fuzz import fuzz_libspec
    from leakward.libspec import load_library_spec

    if name == "corpus":
        libspec = load_library_spec(inputs.corpus_libspec_text(root))
        files = inputs.corpus_files(root)
        return Workload(name, files, _repair_runner(libspec), _report_json, _corpus_check(inputs.corpus_golden(root)))
    if name == "wide_method":
        libspec = load_library_spec(inputs.corpus_libspec_text(root))
        files = [("wide_method.mj", inputs.wide_method_source(inputs.WIDE_METHOD_ALLOCATIONS))]
        return Workload(name, files, _repair_runner(libspec), _report_json, _wide_check(libspec))
    if name == "fuzz_repair":
        files = inputs.fuzz_batch(seed, inputs.FUZZ_REPAIR_FILES)
        return Workload(name, files, _repair_runner(fuzz_libspec()), _report_json, _repair_check)
    if name == "fuzz_check":
        libspec = fuzz_libspec()
        files = inputs.fuzz_batch(seed, inputs.FUZZ_CHECK_FILES)
        return Workload(name, files, _check_runner(libspec), _check_json, _oracle_check(libspec))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# --- repair workloads: the full pipeline, one file at a time -----------------


def _repair_runner(libspec):
    from leakward import pipeline

    def run_file(name: str, text: str):
        return pipeline.run_pipeline([(name, text)], libspec)

    return run_file


def _report_json(report) -> str:
    """The report.json bytes `leakward pipeline` writes for this file."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def _verdict_failures(runs) -> dict[str, str]:
    return {
        name: f"validation {report.files[name].verdict.label}"
        for name, _text, report in runs
        if not report.files[name].verdict.ok
    }


def _merged_metrics(reports):
    """Roots never cross files, so the batch table is the sum of the per-file tables."""
    from leakward.pipeline import MetricsReport

    ms = [r.metrics for r in reports]
    return MetricsReport.from_counts(
        sum(m.cl for m in ms),
        sum(m.xe for m in ms),
        sum(m.xr for m in ms),
        sum((m.f_cl for m in ms), Fraction(0)),
        sum((m.f_xe for m in ms), Fraction(0)),
    )


def _repair_check(runs) -> Verdicts:
    return Verdicts(_verdict_failures(runs), [], _merged_metrics([r for _n, _t, r in runs]).resolution_rate)


def _golden_entry(fr) -> dict:
    """A file's entry in the layout of corpus/golden/dispositions.json."""

    def state(w):
        return fr.fix_status.get(w.id, ("unfixable", "unplanned"))

    return {
        "warningsOriginal": [
            {"id": w.id, "kind": w.kind, "line": w.line, "resourceClass": w.resource_class} for w in fr.w_orig
        ],
        "warningsTransformed": [
            {
                "id": w.id,
                "kind": w.kind,
                "line": w.line,
                "resourceClass": w.resource_class,
                "state": state(w)[0],
                "detail": state(w)[1],
            }
            for w in fr.w_xform
        ],
        "verdict": fr.verdict.label if fr.verdict else None,
    }


def _corpus_check(golden: dict):
    def check(runs) -> Verdicts:
        failed = _verdict_failures(runs)
        for name, _text, report in runs:
            if _golden_entry(report.files[name]) != golden["files"].get(name):
                failed[name] = "differs from golden dispositions"
        reports = [r for _n, _t, r in runs]
        metrics = _merged_metrics(reports).to_json()
        problems = []
        if {k: metrics[k] for k in CORPUS_TABLE} != CORPUS_TABLE or metrics != golden["metrics"]:
            problems.append(f"corpus table {metrics} is not CL 18 / XE 2 / XR 5, F_CL 12, F_XE 2, R 19/25")
        dispositions = {}
        shift_pairs = {}
        for r in reports:
            dispositions.update({w: {"state": s, "detail": d} for w, (s, d) in r.dispositions_orig.items()})
            shift_pairs.update({s: t for s, t in r.shift_map.pairs.items() if s != t})
        if dispositions != golden["dispositionsOriginal"]:
            problems.append("original-warning dispositions differ from golden")
        if shift_pairs != golden["shiftPairs"]:
            problems.append("shift pairs differ from golden")
        if max(r.exit_code for r in reports) != golden["exitCode"]:
            problems.append("exit code differs from golden")
        return Verdicts(failed, problems, _merged_metrics(reports).resolution_rate)

    return check


def _uncovered_sites(program, libspec, warnings, runtime) -> list[int]:
    """Interpreter-leaked sites no warning covers (the acceptance-3 oracle)."""
    from helpers import build_coverage

    covered = build_coverage(program, libspec, warnings)
    return sorted(site for site in set(runtime.leaked_sites) if not covered(site))


def _wide_check(libspec):
    def check(runs) -> Verdicts:
        from leakward.interp import run
        from leakward.parser import parse

        verdicts = _repair_check(runs)
        for name, text, report in runs:
            program = parse(text, name)
            runtime = run(program, libspec)
            if runtime.status != "Completed":
                verdicts.failed[name] = f"oracle run {runtime.status}"
                continue
            uncovered = _uncovered_sites(program, libspec, report.files[name].w_orig, runtime)
            if uncovered:
                verdicts.failed[name] = f"leaked sites {uncovered} not covered by a warning"
        return verdicts

    return check


# --- fuzz_check: the read-only path, as scripts/fuzz_check.py ----------------


@dataclass
class CheckOutcome:
    program: object
    warnings: list  # inferred specs, constructor first writes filtered
    spec_free: list  # declared specs only
    runtime: object  # interpreter report


def _check_runner(libspec):
    from leakward import checker, inference, interp, parser
    from leakward.specs import SpecSet

    def run_file(name: str, text: str) -> CheckOutcome:
        program = parser.parse(text, name)
        specs = inference.infer_specs(program, libspec)
        warnings = checker.filter_constructor_first_writes(checker.check_program(program, specs, libspec), program)
        spec_free = checker.check_program(program, SpecSet.from_declared(program), libspec)
        return CheckOutcome(program, warnings, spec_free, interp.run(program, libspec))

    return run_file


def _check_json(outcome: CheckOutcome) -> str:
    return json.dumps(
        {
            "warnings": [w.to_json() for w in outcome.warnings],
            "specFree": [w.to_json() for w in outcome.spec_free],
            "runtime": outcome.runtime.to_json(),
        },
        sort_keys=True,
    )


def _oracle_check(libspec):
    def check(runs) -> Verdicts:
        from leakward.pipeline import MetricsReport

        failed = {}
        for name, _text, outcome in runs:
            if outcome.runtime.status != "Completed":
                continue  # no ground truth for a run that did not finish
            uncovered = _uncovered_sites(outcome.program, libspec, outcome.spec_free, outcome.runtime)
            if uncovered:
                failed[name] = f"leaked sites {uncovered} not covered by a warning"
        # nothing is repaired on this path: R of the empty table, 1 by definition
        return Verdicts(failed, [], MetricsReport.from_counts(0, 0, 0, 0, 0).resolution_rate)

    return check
