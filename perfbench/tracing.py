"""Per-layer tracing from outside the program.

`install` wraps each layer's public functions at every name a leakward module
binds them to (`pipeline` imports `check_program` by name, `interp` imports
checker and inference at call time, so the defining module and every importer
are patched), records one span per call with the span that was open when it
began, and bumps counters at the same boundaries. `uninstall` puts the
original objects back, so untraced passes run the unmodified code. Spans stay
in memory; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import copy
import sys
import time
from collections import Counter

# (defining module, attribute, span name)
SPANS = (
    ("leakward.cfg", "lower", "cfg.lower"),
    ("leakward.cfg", "must_alias", "cfg.must_alias"),
    ("leakward.cfg", "liveness", "cfg.liveness"),
    ("leakward.checker", "check_program", "checker.check_program"),
    ("leakward.checker", "reject_final_writes", "checker.reject_final_writes"),
    ("leakward.inference", "infer_specs", "inference.infer_specs"),
    ("leakward.inference", "disposes", "inference.disposes"),
    ("leakward.transforms", "finalize_fields", "transforms"),
    ("leakward.transforms", "field_to_local", "transforms"),
    ("leakward.transforms", "inject_finalizers", "transforms"),
    ("leakward.escape", "taint_fixpoint", "escape.taint_fixpoint"),
    ("leakward.repair", "plan_fix", "repair.plan_fix"),
    ("leakward.repair", "apply_plan_in_place", "repair.apply_plan_in_place"),
    ("leakward.interp", "run", "interp.run"),
    ("leakward.interp", "validate_patch", "interp.validate_patch"),
    ("leakward.parser", "parse", "parser.parse"),
    ("leakward.printer", "pretty_print", "printer.pretty_print"),
    ("leakward.pipeline", "run_file_pipeline", "pipeline.run_file_pipeline"),
    ("leakward.pipeline", "build_shift_map", "pipeline.build_shift_map"),
)

# counters bumped from a span's result: span name -> (counter, amount(result))
RESULT_COUNTS = {
    "cfg.lower": (("cfg.nodes", lambda r: len(r.nodes)),),
    "checker.check_program": (("checker.warnings", len),),
    "transforms": (("transforms.edits", lambda r: len(r[1].entries)),),
    "repair.apply_plan_in_place": (("repair.applied", lambda r: 1),),
    "interp.validate_patch": (("interp.validations_ok", lambda r: int(r.ok)),),
    "pipeline.run_file_pipeline": (
        ("pipeline.fix_iterations", lambda r: r.iterations_used),
        ("pipeline.xform_warnings", lambda r: len(r.w_xform)),
    ),
}

# (metric, unit); `.calls` and `.self_s` metrics are read off the spans of
# the name before the suffix, the rest are counters or ratios of counters
PER_LAYER = (
    ("cfg.lower.calls", "count"),
    ("cfg.lower.self_s", "s"),
    ("cfg.nodes", "count"),
    ("cfg.must_alias.calls", "count"),
    ("cfg.must_alias.self_s", "s"),
    ("cfg.liveness.calls", "count"),
    ("cfg.liveness.self_s", "s"),
    ("cfg.edge_scan_steps", "count"),
    ("checker.check_program.calls", "count"),
    ("checker.check_program.self_s", "s"),
    ("checker.warnings", "count"),
    ("checker.reject_final_writes.self_s", "s"),
    ("inference.infer_specs.calls", "count"),
    ("inference.infer_specs.self_s", "s"),
    ("inference.disposes.calls", "count"),
    ("inference.disposes.self_s", "s"),
    ("transforms.self_s", "s"),
    ("transforms.edits", "count"),
    ("escape.analyzers", "count"),
    ("escape.escapes_from.calls", "count"),
    ("escape.escapes_from.self_s", "s"),
    ("escape.taint_fixpoint.calls", "count"),
    ("escape.taint_fixpoint.self_s", "s"),
    ("repair.plan_fix.calls", "count"),
    ("repair.plan_fix.self_s", "s"),
    ("repair.apply_plan_in_place.calls", "count"),
    ("repair.applied_ratio", "ratio"),
    ("interp.run.calls", "count"),
    ("interp.run.self_s", "s"),
    ("interp.validate_patch.calls", "count"),
    ("interp.validate_patch.self_s", "s"),
    ("interp.validation_pass_ratio", "ratio"),
    ("parser.parse.calls", "count"),
    ("parser.parse.self_s", "s"),
    ("parser.tokens", "count"),
    ("printer.pretty_print.calls", "count"),
    ("printer.pretty_print.self_s", "s"),
    ("pipeline.run_file_pipeline.self_s", "s"),
    ("pipeline.deepcopy.calls", "count"),
    ("pipeline.deepcopy.self_s", "s"),
    ("pipeline.build_shift_map.self_s", "s"),
    ("pipeline.fix_iterations", "count"),
    ("pipeline.fixes_per_warning", "ratio"),
    ("bench.trace_overhead", "ratio"),
)


class Tracer:
    """Spans ([name, parent index, start, end]) and counters of one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, result_counts=()):
        """`fn` recording a span `name` per call and adding amount(result)
        to each (counter, amount) of `result_counts`."""
        spans, open_ = self.spans, self._open
        counts = self.counts

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()
            for key, amount in result_counts:
                counts[key] += amount(result)
            return result

        return traced

    def counter(self, fn, key: str, amount):
        """`fn` adding amount(args, result) to counter `key` on each call, no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += amount(args, result)
            return result

        return counted

    def patch(self, owner, attr: str, value) -> None:
        """Set owner.attr to value until `uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self time): each span's duration minus the
    durations of the spans whose parent it is."""
    children = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, _parent, start, end) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - children[i])
    return out


def _leakward_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "leakward" or name.startswith("leakward.")]


class _CopyModule:
    """Stands in for `copy` inside leakward modules so that deepcopy calls
    made by the program are traced and its own recursion is not."""

    def __init__(self, deepcopy) -> None:
        self.deepcopy = deepcopy

    def __getattr__(self, name: str):
        return getattr(copy, name)


def install(tracer: Tracer) -> None:
    """Patch every leakward binding of the traced functions; import leakward first."""
    modules = _leakward_modules()
    for module_name, attr, span_name in SPANS:
        original = getattr(sys.modules[module_name], attr)
        traced = tracer.wrap(original, span_name, RESULT_COUNTS.get(span_name, ()))
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, name, traced)

    from leakward import parser
    from leakward.cfg import Cfg
    from leakward.escape import EscapeAnalyzer

    def edges_scanned(args, _result):
        return len(args[0].edges)

    tracer.patch(Cfg, "succs", tracer.counter(Cfg.succs, "cfg.edge_scan_steps", edges_scanned))
    tracer.patch(Cfg, "preds", tracer.counter(Cfg.preds, "cfg.edge_scan_steps", edges_scanned))
    tracer.patch(EscapeAnalyzer, "__init__", tracer.counter(EscapeAnalyzer.__init__, "escape.analyzers", lambda a, r: 1))
    tracer.patch(EscapeAnalyzer, "escapes_from", tracer.wrap(EscapeAnalyzer.escapes_from, "escape.escapes_from"))
    tracer.patch(parser, "tokenize", tracer.counter(parser.tokenize, "parser.tokens", lambda a, tokens: len(tokens)))

    copy_proxy = _CopyModule(tracer.wrap(copy.deepcopy, "pipeline.deepcopy"))
    for module in modules:
        if vars(module).get("copy") is copy:
            tracer.patch(module, "copy", copy_proxy)


def uninstall(tracer: Tracer) -> None:
    """Put back everything `install` patched."""
    while tracer._undo:
        owner, attr, original = tracer._undo.pop()
        setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except bench.trace_overhead, for one pass. A
    ratio whose base is zero (no plans, no validations) reads 0."""
    spans = self_times(tracer.spans)
    counts = tracer.counts
    derived = {
        "repair.applied_ratio": _ratio(counts["repair.applied"], spans.get("repair.plan_fix", (0, 0.0))[0]),
        "interp.validation_pass_ratio": _ratio(
            counts["interp.validations_ok"], spans.get("interp.validate_patch", (0, 0.0))[0]
        ),
        "pipeline.fixes_per_warning": _ratio(counts["repair.applied"], counts["pipeline.xform_warnings"]),
    }
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric == "bench.trace_overhead":
            continue
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".calls"):
            out[metric] = spans.get(metric[: -len(".calls")], (0, 0.0))[0]
        elif metric.endswith(".self_s"):
            out[metric] = spans.get(metric[: -len(".self_s")], (0, 0.0))[1]
        else:
            out[metric] = counts[metric]
    return out
