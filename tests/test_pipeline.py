"""Pipeline orchestration, shift mapping, and metric arithmetic."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakward
from helpers import corpus_mutants, moved_reports, report_digest
from leakward import checker, inference, interp, memo, pipeline
from leakward import syntax as sx
from leakward.checker import Warning
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.parser import parse
from leakward.pipeline import (
    MetricsReport,
    PipelineConfig,
    build_shift_map,
    run_file_pipeline,
    run_pipeline,
    score,
)
from leakward.printer import pretty_print


def _w(wid: str) -> Warning:
    return Warning(id=wid, kind="UnsatisfiedObligation", file="f.mj", line=1, resource_class="S", message="")


# --- reference-row arithmetic (acceptance criterion 2) ---


def test_metrics_reference_full_row():
    m = MetricsReport.from_counts(cl=1446, xe=243, xr=447, f_cl=952, f_xe=62)
    assert m.total == 2136
    assert m.resolution_rate == Fraction(1461, 2136)
    assert m.percent == 68


def test_metrics_reference_baseline_row():
    m = MetricsReport.from_counts(cl=1909, xe=0, xr=0, f_cl=783, f_xe=0)
    assert m.total == 1909
    assert m.resolution_rate == Fraction(783, 1909)
    assert m.percent == 41


def test_metrics_reference_inference_only_row():
    m = MetricsReport.from_counts(cl=1537, xe=320, xr=356, f_cl=755, f_xe=5)
    assert m.total == 2213
    assert m.resolution_rate == Fraction(1116, 2213)
    assert m.percent == 50


def test_metrics_identities_hold_exactly():
    m = MetricsReport.from_counts(cl=1446, xe=243, xr=447, f_cl=952, f_xe=62)
    assert m.total == m.cl + m.xe + m.xr
    assert m.resolution_rate * m.total == m.f_cl + m.f_xe + m.xr


@settings(max_examples=200, deadline=None)
@given(
    cl=st.integers(0, 3000),
    xe=st.integers(0, 3000),
    xr=st.integers(0, 3000),
    f_cl_num=st.integers(0, 3000),
    f_xe_num=st.integers(0, 3000),
    den=st.integers(1, 12),
)
def test_metric_identities_property(cl, xe, xr, f_cl_num, f_xe_num, den):
    m = MetricsReport.from_counts(cl=cl, xe=xe, xr=xr, f_cl=Fraction(f_cl_num, den), f_xe=Fraction(f_xe_num, den))
    assert m.total == cl + xe + xr
    if m.total == 0:
        assert m.resolution_rate == 1
    else:
        assert m.resolution_rate * m.total == m.f_cl + m.f_xe + m.xr
    assert 0 <= m.percent  # rationals stay exact until display


def test_empty_warning_universe_is_success():
    m = MetricsReport.from_counts(cl=0, xe=0, xr=0, f_cl=0, f_xe=0)
    assert m.resolution_rate == 1 and m.percent == 100


def test_weighted_fix_count_one_root_n4_k1():
    # one root with four shifted warnings (one fixed) plus one untouched
    # library warning in both sets: F_CL = 0.25, CL = 2, R = 0.125
    roots = {"s1": "root", "s2": "root", "s3": "root", "s4": "root", "plain": "plain"}
    fix_status = {
        "s1": ("fixed", "TryFinallyWrap"),
        "s2": ("unfixable", "EscapesToField"),
        "s3": ("unfixable", "NoIrMatch"),
        "s4": ("unfixable", "EscapesToField"),
        "plain": ("unfixable", "EscapesToField"),
    }
    shift, m, dispositions = score(
        [_w("root"), _w("plain")], [_w("s1"), _w("s2"), _w("s3"), _w("s4"), _w("plain")], roots, fix_status
    )
    assert (m.cl, m.xe, m.xr) == (2, 0, 0)
    assert m.f_cl == Fraction(1, 4)
    assert m.resolution_rate == Fraction(1, 8)
    assert shift.pairs == roots
    assert shift.multiplicity == {"root": 4, "plain": 1}
    assert shift.fixed_counts == {"root": 1, "plain": 0}
    # the least detail of a shifted warning not fixed
    assert dispositions == {"root": ("unfixable", "EscapesToField"), "plain": ("unfixable", "EscapesToField")}


def test_half_credit_example():
    # a wrapper root with ten shifted warnings, five fixed: credit 0.5
    shifted = [f"s{i}" for i in range(10)]
    fix_status = {s: ("fixed", "t") if i < 5 else ("unfixable", "r") for i, s in enumerate(shifted)}
    shift, m, dispositions = score([_w("root")], [_w(s) for s in shifted], {s: "root" for s in shifted}, fix_status)
    assert m.f_cl == Fraction(1, 2) and m.cl == 1
    assert shift.multiplicity == {"root": 10} and shift.fixed_counts == {"root": 5}
    assert dispositions == {"root": ("unfixable", "r")}


def test_score_credits_fixed_exposed_and_resolved_roots():
    # "root": both shifted warnings fixed; "new": a root only w_xform has
    # (XE), its one warning failed validation; "gone": an original no
    # w_xform warning maps to (XR)
    roots = {"a": "root", "b": "root", "new": "new"}
    fix_status = {
        "a": ("fixed", "TryFinallyWrap"),
        "b": ("fixed", "CloseInFinally"),
        "new": ("validation-failed", "WarningSurvives"),
        "fresh": ("unfixable", "IterationsExhausted"),  # a later round's warning, not in w_xform
    }
    shift, m, dispositions = score([_w("root"), _w("gone")], [_w("a"), _w("b"), _w("new")], roots, fix_status)
    assert shift.multiplicity == {"root": 2, "new": 1}
    assert shift.fixed_counts == {"root": 2, "new": 0}
    assert (m.cl, m.xe, m.xr, m.f_cl, m.f_xe) == (1, 1, 1, 1, 0)
    assert m.resolution_rate == Fraction(2, 3)
    assert dispositions == {"root": ("fixed", "2/2"), "gone": ("resolved-by-transform", "")}


def test_summary_table_layout():
    m = MetricsReport.from_counts(cl=1446, xe=243, xr=447, f_cl=952, f_xe=62)
    table = m.summary_table()
    lines = table.splitlines()
    assert lines[0].startswith("Configuration")
    assert "CL" in lines[0] and "F_CL" in lines[0] and "Repair rate" in lines[0]
    assert "68%" in lines[2]


# --- end-to-end pipeline over the corpus ---


@pytest.fixture(scope="module")
def corpus_report(corpus_sources, libspec):
    return run_pipeline(corpus_sources, libspec, PipelineConfig())


def test_tempfile_file_resolves_fully(corpus_report):
    fr = corpus_report.files["tempfile_writer.mj"]
    states = sorted(st for st, _ in fr.fix_status.values())
    assert states == ["fixed", "fixed"]
    assert fr.verdict.ok
    # 2 original warnings; one resolved by injection+shift, then the
    # shifted warning and the overwrite warning both fixed
    assert len(fr.w_orig) == 2
    roots = build_shift_map(fr.w_orig, fr.w_xform, fr.specs, fr.transformed, corpus_report_libspec(corpus_report))
    assert roots == fr.roots and fr.shift_error == ""
    shift, m, dispositions = score(fr.w_orig, fr.w_xform, roots, fr.fix_status)
    assert m.resolution_rate == 1
    assert shift.fixed_counts == shift.multiplicity
    assert {st for st, _d in dispositions.values()} <= {"fixed", "resolved-by-transform"}


def corpus_report_libspec(report):
    from leakward.libspec import load_library_spec
    from pathlib import Path

    return load_library_spec((Path(__file__).parent.parent / "corpus" / "minij.libspec").read_text())


def test_writer_shift_map_n1(corpus_report):
    fr = corpus_report.files["writer_wrapper.mj"]
    (orig,) = fr.w_orig
    (xform,) = fr.w_xform
    assert corpus_report.shift_map.pairs[xform.id] == orig.id
    assert corpus_report.shift_map.multiplicity[orig.id] == 1


def test_library_warning_maps_to_itself(corpus_report):
    fr = corpus_report.files["escape_field.mj"]
    (orig,) = fr.w_orig
    assert corpus_report.shift_map.pairs[orig.id] == orig.id


def test_every_original_warning_has_exactly_one_disposition(corpus_report):
    all_orig = {w.id for fr in corpus_report.files.values() for w in fr.w_orig}
    assert set(corpus_report.dispositions_orig) == all_orig
    for state, _ in corpus_report.dispositions_orig.values():
        assert state in ("fixed", "resolved-by-transform", "unfixable")


def test_unresolved_multiset_never_grows_across_iterations(corpus_source_pair=None):
    pass  # covered by the determinism/idempotence acceptance tests


def test_pipeline_reproducible(corpus_sources, libspec):
    a = run_pipeline(corpus_sources, libspec, PipelineConfig())
    b = run_pipeline(corpus_sources, libspec, PipelineConfig())
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    for name in a.files:
        assert pretty_print(a.files[name].patched) == pretty_print(b.files[name].patched)


def test_pipeline_output_is_independent_of_the_hash_seed(corpus_dir, tmp_path):
    """Checker facts are dicts and sets whose iteration order follows PYTHONHASHSEED."""
    src = Path(leakward.__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        argv = ["pipeline", str(corpus_dir), "--libspec", str(corpus_dir / "minij.libspec"), "-o", str(out)]
        done = subprocess.run([sys.executable, "-m", "leakward.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 2, done.stderr  # authored-unfixable warnings remain
        files = [out / "report.json", *sorted((out / "patched").glob("*.mj"))]
        outputs.append({f.relative_to(out).as_posix(): f.read_bytes() for f in files})
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1]


def test_exit_codes(corpus_report, libspec):
    assert corpus_report.exit_code == 2  # authored-unfixable warnings remain
    clean = run_pipeline(
        [("clean.mj", 'class A { static void main() { PrintStream s = new PrintStream("f"); s.println("x"); s.close(); } }')],
        libspec,
        PipelineConfig(),
    )
    assert clean.exit_code == 0
    fixed_all = run_pipeline(
        [("one.mj", 'class A { static void main() { PrintStream s = new PrintStream("f"); s.println("x"); } }')],
        libspec,
        PipelineConfig(),
    )
    assert fixed_all.exit_code == 0



def test_malformed_file_fails_alone(corpus_report, corpus_sources, libspec):
    broken = ("broken.mj", "class Broken {\n  void f() {\n    PrintStream s = ;\n  }\n}\n")
    report = run_pipeline(corpus_sources + [broken], libspec, PipelineConfig())
    rest = {k: v for k, v in report.to_json().items() if k not in ("errors", "exitCode")}
    assert rest == {k: v for k, v in corpus_report.to_json().items() if k not in ("errors", "exitCode")}
    assert report.errors == ["broken.mj: SyntaxError: 3:21: expected an expression, found ';'"]
    assert report.exit_code == 4


def test_an_ambiguous_shift_map_stays_in_its_own_file(corpus_report, corpus_sources, libspec):
    # `link = new Socket();` twice in `Channel()`: the Channel warning reaches two roots
    name, text = next(m for m in corpus_mutants() if m[0] == "shutdown_wrapper.duplicate4.mj")
    report = run_pipeline(corpus_sources + [(name, text)], libspec)
    assert [e.split(": ")[:2] for e in report.errors] == [["shift-map", name]]
    assert report.errors == [f"shift-map: {name}: {report.files[name].shift_error}"]
    corpus = [fr for fr in report.files.values() if fr.name != name]
    fix_status = {wid: status for fr in corpus for wid, status in fr.fix_status.items()}
    w_orig, w_xform = [w for fr in corpus for w in fr.w_orig], [w for fr in corpus for w in fr.w_xform]
    shift, m, dispositions = score(w_orig, w_xform, report.shift_map.pairs, fix_status)
    assert (m.cl, m.xe, m.xr, m.f_cl, m.f_xe) == (18, 2, 5, 12, 2)
    assert dispositions == {w.id: report.dispositions_orig[w.id] for w in w_orig}
    mutant_ids = {w.id for w in report.files[name].w_xform}
    assert {s: t for s, t in report.shift_map.pairs.items() if s not in mutant_ids} == corpus_report.shift_map.pairs
    # the mutant's own warnings are each their own root
    assert mutant_ids and all(report.shift_map.pairs[wid] == wid for wid in mutant_ids)


def test_two_mains_skip_the_interpreter_leg_of_validation(libspec):
    src = "class A {\n  static void main() {\n    Socket s = new Socket();\n  }\n}\n"
    src += "class B {\n  static void main() {\n  }\n}\n"
    report = run_pipeline([("two.mj", src)], libspec)
    fr = report.files["two.mj"]
    assert report.errors == [] and fr.verdict.ok
    assert list(fr.fix_status.values()) == [("fixed", "TryFinallyWrap")]


def test_pipeline_does_not_compute_must_alias(monkeypatch, corpus_dir, libspec):
    import leakward.cfg

    def must_alias(cfg):
        raise AssertionError("must_alias is not on the pipeline path")

    monkeypatch.setattr(leakward.cfg, "must_alias", must_alias)
    program = parse((corpus_dir / "writer_wrapper.mj").read_text(), "writer_wrapper.mj")
    fr = run_file_pipeline(program, libspec, PipelineConfig())
    assert fr.w_xform


def test_transforms_off_runs_no_first_inference_or_check(monkeypatch, corpus_dir, libspec):
    # the pipeline carries the parse through every stage: it is checked for
    # w_orig, then inferred and checked for w_xform; with transforms on, a
    # first inference and check in between feed inject_finalizers (the fix
    # stage's own inferences and checks read its copy); a stage may hand
    # them the parse's version rather than the parse
    import leakward.pipeline as pipeline

    text = (corpus_dir / "writer_wrapper.mj").read_text()
    calls: list[str] = []
    for name in ("infer_specs", "check_program"):
        real = getattr(pipeline, name)

        def recorded(prog, *args, _real=real, _name=name):
            if (prog.program if isinstance(prog, memo.ProgramVersion) else prog) is program:
                calls.append(_name)
            return _real(prog, *args)

        monkeypatch.setattr(pipeline, name, recorded)
    on_parse = {}
    for transforms in (True, False):
        program = parse(text, "writer_wrapper.mj")
        calls.clear()
        fr = run_file_pipeline(program, libspec, PipelineConfig(enable_transforms=transforms))
        assert fr.transformed is program and fr.w_xform
        on_parse[transforms] = list(calls)
    assert fr.edit_log.entries == []
    w_orig, w_xform = ["check_program"], ["infer_specs", "check_program"]
    assert on_parse == {True: w_orig + ["infer_specs", "check_program"] + w_xform, False: w_orig + w_xform}


@pytest.mark.parametrize("transforms", [True, False])
def test_a_pipeline_run_copies_each_files_program_once(monkeypatch, corpus_sources, libspec, transforms):
    """The stages edit the file's parse; only the fix stage patches a copy,
    and only of a file with a warning to repair: a clean file's patched
    program is its transformed one, with no deep copy made."""
    copied: list[str] = []
    real = sx.Program.__deepcopy__

    def counted(self, memo):
        copied.append(self.source_name)
        return real(self, memo)

    monkeypatch.setattr(sx.Program, "__deepcopy__", counted)
    config = PipelineConfig(enable_transforms=transforms)
    results = list(run_pipeline(corpus_sources, libspec, config).files.items())
    for seed in range(12):
        name = f"fuzz{seed}.mj"
        results.append((name, run_pipeline([(name, generate_source(seed))], fuzz_libspec(), config).files[name]))
    warned = [name for name, fr in results if fr.w_xform]
    assert len(results) == len(corpus_sources) + 12 and copied == warned
    clean = [fr for _name, fr in results if not fr.w_xform]
    assert clean and all(fr.patched is fr.transformed and fr.diff == "" for fr in clean)


def _bind_everywhere(monkeypatch, fn, wrapper):
    """Bind `wrapper` at every name a leakward module binds `fn` to, the
    defining module's included, so an import made at call time gets it too."""
    for name, module in list(sys.modules.items()):
        if name == "leakward" or name.startswith("leakward."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("transforms", [True, False])
def test_a_pipeline_run_analyses_each_state_once(monkeypatch, corpus_sources, libspec, transforms):
    # one inference per analysed state: the original, the transformed version
    # when the transforms edited it, and each fix round that applied a plan; one
    # check per inference, besides the spec-free check for w_orig; validation
    # judges the last round's re-check and makes neither
    calls: Counter = Counter()
    validating: list[bool] = []

    def counting(fn, kind):
        def counted(*args, **kwargs):
            calls[kind, bool(validating)] += 1
            return fn(*args, **kwargs)

        return counted

    def validated(*args, **kwargs):
        calls["validate"] += 1
        validating.append(True)
        try:
            return validate(*args, **kwargs)
        finally:
            validating.pop()

    applied = []  # each applied plan's index: one index per round

    def applying(program, plan):
        applied.append(plan.index)
        return apply(program, plan)

    validate, apply = interp.validate_patch, pipeline.apply_plan_in_place
    _bind_everywhere(monkeypatch, inference.infer_specs, counting(inference.infer_specs, "infer"))
    _bind_everywhere(monkeypatch, checker.check_program, counting(checker.check_program, "check"))
    _bind_everywhere(monkeypatch, validate, validated)
    monkeypatch.setattr(pipeline, "apply_plan_in_place", applying)
    inputs = [(name, text, libspec) for name, text in corpus_sources]
    inputs += [(f"fuzz{seed}.mj", generate_source(seed), fuzz_libspec()) for seed in range(6)]
    validations = edited = 0
    for name, text, lib in inputs:
        calls.clear()
        applied.clear()
        fr = run_file_pipeline(parse(text, name), lib, PipelineConfig(enable_transforms=transforms))
        validations += calls.pop("validate", 0)
        edited += bool(fr.edit_log.entries)
        inferences = 1 + bool(fr.edit_log.entries) + len({id(index) for index in applied})
        assert calls == {("infer", False): inferences, ("check", False): 1 + inferences}, name
    assert validations > 10
    assert (edited > 10) == transforms and len(inputs) - edited > 5  # both ways through stages 5-6


REOPEN = """class R {
  @Owning private FileInputStream f;
  R(String p) { f = new FileInputStream(p); }
  void reopen(String p) {
    if (p != null) {
      FileInputStream f = new FileInputStream(p);
      f.close();
    }
    f = new FileInputStream(p);
  }
  void close() { f.close(); }
}
"""


@pytest.mark.parametrize("transforms", [True, False])
def test_store_to_field_beside_a_shadowing_local_is_pre_closed(libspec, transforms):
    # the local `f` lives in the `if` block only: the last store writes the field
    report = run_pipeline([("reopen.mj", REOPEN)], libspec, PipelineConfig(enable_transforms=transforms))
    assert report.exit_code == 0 and report.errors == []
    fr = report.files["reopen.mj"]
    assert not fr.transformed.class_named("R").field_named("f").has("final")
    (w,) = fr.w_xform
    assert w.kind == "OwningFieldOverwrite" and w.method_name == "reopen"
    assert fr.fix_status[w.id] == ("fixed", "PreCloseInsertion")
    assert fr.verdict.ok and report.metrics.xr == 0


# A `new` in a finally block is lowered once for each way out of the try;
# these read every copy (`Cfg.copies`), not only the first or the last.
ESCAPES_FROM_A_FINALLY = """class P {
  static FileInputStream keep;
  static int pick(int c) {
    FileInputStream s = null;
    try {
      if (c == 1) {
        return 1;
      }
    } finally {
      s = new FileInputStream("a");
    }
    keep = s;
    return 0;
  }
  static void main() {
    P.pick(1);
    P.pick(0);
    keep.read();
  }
}
"""

WRAPPER_FILLED_IN_A_FINALLY = """class W {
  private FileInputStream s;

  W(FileInputStream x) {
    FileInputStream t = null;
    try {
      x.read();
    } finally {
      t = new FileInputStream("a");
    }
    s = t;
  }
  void use() {
    s.read();
  }
}
class M {
  static void main() {
    FileInputStream f = new FileInputStream("b");
    W w = new W(f);
    w.use();
    f.close();
  }
}
"""


def test_an_allocation_in_a_finally_that_escapes_on_one_path_is_unfixable(libspec):
    # the return path's copy does not reach `keep = s`; the normal path's does
    report = run_pipeline([("pick.mj", ESCAPES_FROM_A_FINALLY)], libspec)
    fr = report.files["pick.mj"]
    (w,) = fr.w_xform
    assert fr.fix_status == {w.id: ("unfixable", "EscapesToField")}
    assert fr.verdict.ok and fr.diff == "" and report.exit_code == 2


def test_a_wrapper_field_filled_in_a_finally_gets_an_injected_close(libspec):
    # the exceptional path's copy never reaches `s = t`; the normal path's does
    report = run_pipeline([("w.mj", WRAPPER_FILLED_IN_A_FINALLY)], libspec)
    fr = report.files["w.mj"]
    (inject,) = [e for e in fr.edit_log.entries if e.transform == "inject_finalizer"]
    assert inject.class_name == "W" and inject.meta["fields"] == ["s"]
    assert fr.verdict.ok and report.metrics.percent == 100


# --- ablation flags exist and change behavior ---


def test_ablation_disable_overwrite_handling(corpus_sources, libspec):
    report = run_pipeline(corpus_sources, libspec, PipelineConfig(enable_overwrite_handling=False))
    fr = report.files["tempfile_writer.mj"]
    overwrites = [w for w in fr.w_xform if w.kind == "OwningFieldOverwrite"]
    assert overwrites, "without filtering, constructor first writes also warn"
    for w in overwrites:
        state, detail = fr.fix_status[w.id]
        assert state == "unfixable" and "disabled" in detail


def test_ablation_disable_enhancements(corpus_sources, libspec):
    report = run_pipeline(corpus_sources, libspec, PipelineConfig(enable_fixer_enhancements=False))
    # the accessor-wrapped puppeteer now counts as an escape
    fr = report.files["puppeteer_task.mj"]
    states = [st for st, _ in fr.fix_status.values()]
    assert "fixed" not in states
    # and the shutdown finalizer cannot be inserted in classic close-only mode
    fr2 = report.files["shutdown_wrapper.mj"]
    assert all(st != "fixed" for st, _ in fr2.fix_status.values())


PEEK = """class Peek {
  private FileInputStream s;
  Peek(FileInputStream s) { this.s = s; }
  void look() { s.read(); }
}
class Holder {
  private FileInputStream f;
  Holder(String p) { f = new FileInputStream(p); }
  void reopen(String p) { f = new FileInputStream(p); }
  void peek() { Peek k = new Peek(f); k.look(); }
  void close() { f.close(); }
  static void main() { Holder h = new Holder("a"); h.reopen("b"); h.peek(); h.close(); }
}
"""


@pytest.mark.parametrize(
    "enhancements, status",
    [(True, ("fixed", "PreCloseInsertion")), (False, ("unfixable", "PreCloseConditionsFail(ContainmentFails)"))],
)
def test_classic_mode_pre_close_needs_containment_without_accessors(libspec, enhancements, status):
    # `f` is contained only because Peek is a resource accessor, which the
    # classic close-only repair does not know
    report = run_pipeline([("peek.mj", PEEK)], libspec, PipelineConfig(enable_fixer_enhancements=enhancements))
    fr = report.files["peek.mj"]
    (w,) = fr.w_xform
    assert w.kind == "OwningFieldOverwrite" and w.method_name == "reopen"
    assert fr.fix_status[w.id] == status


def test_ablation_disable_transforms(corpus_sources, libspec):
    report = run_pipeline(corpus_sources, libspec, PipelineConfig(enable_transforms=False))
    fr = report.files["tempfile_writer.mj"]
    # without finalizer injection the class never becomes a wrapper: the
    # client-side fix is impossible and constructor warnings stay put
    assert all(w.resource_class == "PrintStream" for w in fr.w_xform)
    assert report.metrics.resolution_rate < 1


ABLATION_TABLE = {
    "leakward": {"CL": 18, "XE": 2, "XR": 5, "F_CL": "12", "F_XE": "2", "T": 25, "R": "19/25", "percent": 76},
    "- transforms": {"CL": 19, "XE": 2, "XR": 4, "F_CL": "10", "F_XE": "2", "T": 25, "R": "16/25", "percent": 64},
    "- fixer enhancements": {"CL": 18, "XE": 2, "XR": 5, "F_CL": "9", "F_XE": "2", "T": 25, "R": "16/25", "percent": 64},
    "- overwrite handling": {"CL": 18, "XE": 3, "XR": 5, "F_CL": "12", "F_XE": "0", "T": 26, "R": "17/26", "percent": 65},
}


def test_ablation_table(corpus_dir, corpus_sources, libspec):
    # the rows scripts/run_ablation.py prints, from its own configurations
    spec = importlib.util.spec_from_file_location("run_ablation", corpus_dir.parent / "scripts" / "run_ablation.py")
    ablation = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ablation)
    table = {}
    digests = {}
    for label, config in ablation.CONFIGS:
        report = run_pipeline(corpus_sources, libspec, config)
        assert report.errors == [], label
        table[label] = report.metrics.to_json()
        digests[label] = report_digest(report)
    assert table == ABLATION_TABLE
    assert moved_reports("ablation", digests) == []


def test_pipeline_metrics_match_golden(corpus_report, golden_dir):
    golden = json.loads((golden_dir / "dispositions.json").read_text())
    assert corpus_report.metrics.to_json() == golden["metrics"]
