"""Repair planning, the pre-close eligibility conditions, and materialization."""

import copy
import gc
import sys

import pytest

from helpers import apply_unified_diff, wide_method_source
from leakward import repair as R
from leakward import syntax as sx
from leakward.checker import check_program, filter_constructor_first_writes
from leakward.errors import StaleWarning
from leakward.escape import EscapeAnalyzer
from leakward.inference import infer_specs, write_specs
from leakward.libspec import load_library_spec
from leakward.memo import ProgramVersion
from leakward.parser import MAX_NESTING, parse
from leakward.pipeline import run_pipeline
from leakward.printer import pretty_print
from leakward.repair import (
    CLOSE_IN_FINALLY,
    PRE_CLOSE_INSERTION,
    TRY_FINALLY_WRAP,
    RepairPlan,
    Unfixable,
    apply_plan_in_place,
    locate_anchor,
    plan_fix,
    pre_close_check,
    rebind_warning,
    screen_fix,
    unified_diff_text,
)
from leakward.specs import SpecSet

LIB = load_library_spec(
    """
resource Socket { must_call: [close]; method Socket() -> void; method close() -> void; method send(notowning) -> void; }
resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void; method close() -> void; method println(notowning) -> void; }
resource List { must_call: []; method List() -> void; method add(notowning) -> void; method get(notowning) -> notowning; }
"""
)


def _plan_first(src, kind=None):
    prog = parse(src, "r.mj")
    specs = infer_specs(prog, LIB)
    write_specs(prog, specs)
    warnings = filter_constructor_first_writes(check_program(prog, specs, LIB), prog)
    if kind:
        warnings = [w for w in warnings if w.kind == kind]
    w = warnings[0]
    return _plan(w, prog, specs), prog, w


def _plan(w, prog, specs, lib=LIB, enhancements=True):
    """`plan_fix` on `prog`, screened by an analyzer of `prog` itself."""
    screened = screen_fix(w, EscapeAnalyzer(prog, specs, lib, enhancements=enhancements))
    return plan_fix(w, prog, screened, sx.AstIndex(prog))


def _apply_to_copy(program, w, lib=LIB):
    """`w`'s plan, made on a deep copy of `program` and applied there: the
    copy, and its diff against `program`."""
    patched = copy.deepcopy(program)
    apply_plan_in_place(patched, _plan(w, patched, infer_specs(patched, lib), lib))
    return patched, unified_diff_text(pretty_print(program), pretty_print(patched), program.source_name)


# --- pre-close eligibility: six cases (acceptance criterion 7) ---

PRECLOSE_TEMPLATE = """class W {{
  {field_decl}

  void reset() {{
    {write}
  }}
  void close() {{
    if (f != null) {{
      f.close();
    }}
  }}
  {extra}
}}
"""


def _eligibility(field_decl="private Socket f;", write="f = new Socket();", extra=""):
    src = PRECLOSE_TEMPLATE.format(field_decl=field_decl, write=write, extra=extra)
    prog = parse(src, "p.mj")
    specs = infer_specs(prog, LIB)
    return pre_close_check("W", "f", EscapeAnalyzer(prog, specs, LIB))


PRECLOSE_CASES = [
    ("all three conditions hold", {}, True, ""),
    ("condition 1 violated: field not private", {"field_decl": "Socket f;"}, False, "FieldNotPrivate"),
    (
        "condition 2 violated: assigned from a parameter",
        {"write": "f = new Socket();", "extra": "void adopt(Socket given) {\n    f = given;\n  }"},
        False,
        "NonFreshWrite",
    ),
    (
        "condition 3 violated: containment broken by a field store",
        {"extra": "void spill(List bag) {\n    bag.add(f);\n  }"},
        False,
        "ContainmentFails",
    ),
    (
        "containment broken via getter",
        {"extra": "Socket leak() {\n    return f;\n  }"},
        False,
        "ContainmentFails",
    ),
    (
        "non-fresh assignment through a local",
        {"write": "Socket tmp = new Socket();\n    f = tmp;"},
        False,
        "NonFreshWrite",
    ),
]


@pytest.mark.parametrize("label, kwargs, expected, which", PRECLOSE_CASES, ids=[c[0] for c in PRECLOSE_CASES])
def test_pre_close_eligibility_cases(label, kwargs, expected, which):
    ok, failing = _eligibility(**kwargs)
    assert ok is expected
    if not expected:
        assert failing == which


def test_pre_close_cases_count():
    assert len(PRECLOSE_CASES) == 6


def test_pre_close_eligible_boolean_surface():
    src = PRECLOSE_TEMPLATE.format(field_decl="private Socket f;", write="f = new Socket();", extra="")
    prog = parse(src, "p.mj")
    analyzer = EscapeAnalyzer(prog, infer_specs(prog, LIB), LIB)
    assert pre_close_check("W", "f", analyzer) == (True, "")
    assert pre_close_check("W", "ghost", analyzer) == (False, "NoSuchField")


def test_null_initializer_is_benign_for_freshness():
    ok, _ = _eligibility(field_decl="private Socket f = null;")
    assert ok is True  # a null initializer cannot leak, so freshness still holds


# --- planning ---


def test_plan_try_finally_wrap_for_local_leak():
    plan, _, _ = _plan_first('class A { static void main() { Socket s = new Socket(); s.send("x"); } }')
    assert isinstance(plan, RepairPlan) and plan.template == TRY_FINALLY_WRAP
    assert plan.finalizer_methods == ("close",)


def test_plan_close_in_finally_when_try_exists():
    src = """class A {
  static void main() {
    try {
      Socket s = new Socket();
      s.send("x");
    } catch (Exception e) {
      e.printStackTrace();
    }
  }
}
"""
    plan, _, _ = _plan_first(src)
    assert isinstance(plan, RepairPlan) and plan.template == CLOSE_IN_FINALLY


def _leak_under_ifs(levels: int, in_try: bool) -> str:
    """A leaked Socket `levels` ifs deep in main, in a try body when `in_try`."""
    leak = "Socket s = new Socket();\n"
    if in_try:
        leak = f"try {{\n{leak}}} catch (Exception e) {{\n}}\n"
    opens = "if (x == null) {\n" * levels
    return f"class A {{\n static void main() {{\n Socket x = null;\n{opens}{leak}{'}' * levels}\n}}\n}}\n"


@pytest.mark.parametrize("in_try", [False, True], ids=["TryFinallyWrap", "CloseInFinally"])
def test_a_wrap_past_the_nesting_limit_is_planned_unfixable(in_try):
    # the method body is one level, each if's block one more; the guarded
    # close is four below the block that holds the try
    deepest_fixable = MAX_NESTING - 5
    for levels, expected in ((deepest_fixable, "fixed"), (deepest_fixable + 1, "unfixable")):
        src = _leak_under_ifs(levels, in_try)
        plan, _prog, _w = _plan_first(src)
        report = run_pipeline([("deep.mj", src)], LIB)
        (status,) = report.files["deep.mj"].fix_status.values()
        if expected == "fixed":
            assert isinstance(plan, RepairPlan) and plan.template == (CLOSE_IN_FINALLY if in_try else TRY_FINALLY_WRAP)
            assert status == ("fixed", plan.template) and report.exit_code == 0
        else:
            assert isinstance(plan, Unfixable) and (plan.reason, plan.detail) == ("NoIrMatch", "nesting limit")
            assert status == ("unfixable", "NoIrMatch") and report.exit_code == 2


def test_a_wrap_of_sixty_one_nested_ifs_is_unfixable_not_failed_validation():
    report = run_pipeline([("deep.mj", _leak_under_ifs(61, in_try=False))], LIB)
    fr = report.files["deep.mj"]
    assert list(fr.fix_status.values()) == [("unfixable", "NoIrMatch")]
    assert fr.verdict.ok and report.exit_code == 2


@pytest.mark.parametrize(
    "body, expected",
    [
        ('try { FileInputStream s = null; s = new FileInputStream("b"); s.read(); }', TRY_FINALLY_WRAP),
        (
            'try { FileInputStream s = null; int c = 1; if (c == 1) { s = new FileInputStream("b"); s.read(); } }',
            TRY_FINALLY_WRAP,
        ),
        ('FileInputStream s = null; try { s = new FileInputStream("b"); s.read(); }', CLOSE_IN_FINALLY),
    ],
    ids=["same-block", "enclosing-block", "before-the-try"],
)
def test_a_holder_declared_inside_the_try_is_closed_in_its_own_block(libspec, body, expected):
    # the try's finally cannot name a `s` declared inside the try, so the
    # repair wraps the assignment's range in its own block instead of closing there
    src = f"class Main {{ static void main() {{ {body} finally {{ int x = 1; }} }} }}"
    prog = parse(src, "h.mj")
    specs = infer_specs(prog, libspec)
    (w,) = check_program(prog, specs, libspec)
    plan = _plan(w, prog, specs, lib=libspec)
    assert isinstance(plan, RepairPlan) and plan.template == expected
    report = run_pipeline([("h.mj", src)], libspec)
    assert report.errors == [] and report.files["h.mj"].verdict.ok
    assert report.files["h.mj"].fix_status == {w.id: ("fixed", expected)} and report.exit_code == 0


def test_a_wrap_that_moves_a_holders_declaration_into_its_try_leaves_a_fixable_file(libspec):
    # the first wrap moves `s`'s declaration into its try body; `s`'s own
    # repair, planned after it in the same round, must not close it there
    src = (
        "class Main {\n static void main() {\n FileInputStream a = new FileInputStream(\"a\");\n"
        ' FileInputStream s = null;\n s = new FileInputStream("b");\n a.read();\n s.read();\n }\n}\n'
    )
    report = run_pipeline([("h.mj", src)], libspec)
    fr = report.files["h.mj"]
    assert report.errors == [] and fr.verdict.ok and report.exit_code == 0
    assert sorted(fr.fix_status.values()) == [("fixed", TRY_FINALLY_WRAP)] * 2


def _overwrite_under_ifs(levels, target):
    """An owning field Socket overwritten `levels` ifs deep in W.reset."""
    opens = "if (p == null) {\n" * levels
    return (
        f"class W {{\n private Socket f;\n void reset(String p) {{\n{opens}{target} = new Socket();\n{'}' * levels}\n}}\n"
        " void close() {\n if (f != null) {\n f.close();\n }\n }\n}\n"
    )


@pytest.mark.parametrize("target", ["f", "this.f"])
def test_a_pre_close_past_the_nesting_limit_is_planned_unfixable(target):
    # the guard's block and its try body's open below the store's block, then
    # `f.close()` takes two levels and `this.f.close()` three
    deepest_fixable = MAX_NESTING - 5 - target.count(".")
    for levels, expected in ((deepest_fixable, "fixed"), (deepest_fixable + 1, "unfixable")):
        src = _overwrite_under_ifs(levels, target)
        plan, _prog, _w = _plan_first(src, kind="OwningFieldOverwrite")
        report = run_pipeline([("deep.mj", src)], LIB)
        fr = report.files["deep.mj"]
        (status,) = fr.fix_status.values()
        assert fr.verdict.ok
        if expected == "fixed":
            assert isinstance(plan, RepairPlan) and plan.template == PRE_CLOSE_INSERTION
            assert status == ("fixed", PRE_CLOSE_INSERTION) and report.exit_code == 0
        else:
            assert isinstance(plan, Unfixable) and (plan.reason, plan.detail) == ("NoIrMatch", "nesting limit")
            assert status == ("unfixable", "NoIrMatch") and report.exit_code == 2


def test_a_corpus_loop_allocation_is_unfixable_for_its_loop(corpus_dir, libspec):
    prog = parse((corpus_dir / "loop_alloc.mj").read_text(), "loop_alloc.mj")
    specs = infer_specs(prog, libspec)
    (w,) = check_program(prog, specs, libspec)
    plan = _plan(w, prog, specs, lib=libspec)
    assert isinstance(plan, Unfixable)
    assert (plan.reason, plan.detail) == ("NoIrMatch", "allocation is inside a loop")


NO_SLOT = {
    "allocation is inside a loop": "Socket k = null; while (k == null) { Socket s = new Socket(); s.send(\"x\"); }",
    "allocation is in an if condition": "if (new Socket() != null) { }",
    "allocation is in a while condition": "while (new Socket() == null) { }",
}


@pytest.mark.parametrize("detail", sorted(NO_SLOT))
def test_a_wrap_without_a_statement_slot_names_the_cause(detail):
    plan, _prog, _w = _plan_first(f"class A {{ static void main() {{ {NO_SLOT[detail]} }} }}")
    assert isinstance(plan, Unfixable) and (plan.reason, plan.detail) == ("NoIrMatch", detail)


def test_plan_unfixable_on_return_escape():
    src = """class A {
  static Socket partial(String m) {
    Socket s = new Socket();
    if (m == null) {
      return s;
    }
    return null;
  }
  static void main() {
    A.partial("x");
  }
}
"""
    prog = parse(src, "r.mj")
    specs = infer_specs(prog, LIB)
    warnings = check_program(prog, specs, LIB)
    alloc_warning = next(w for w in warnings if w.anchor_kind == "new")
    plan = _plan(alloc_warning, prog, specs)
    assert isinstance(plan, Unfixable) and plan.reason == "EscapesReturn"


def test_plan_pre_close_for_overwrite():
    src = """class W {
  private Socket f;

  void reset() {
    f = new Socket();
  }
  void close() {
    if (f != null) {
      f.close();
    }
  }
}
class M {
  static void main() {
    W w = new W();
    w.reset();
    w.close();
  }
}
"""
    plan, annotated, w = _plan_first(src, kind="OwningFieldOverwrite")
    assert isinstance(plan, RepairPlan) and plan.template == PRE_CLOSE_INSERTION


def test_plan_stale_warning_raises():
    plan, annotated, w = _plan_first('class A { static void main() { Socket s = new Socket(); } }')
    stripped = parse("class A { static void main() { } }", "r.mj")
    screened = screen_fix(w, EscapeAnalyzer(annotated, SpecSet(), LIB))
    with pytest.raises(StaleWarning):
        plan_fix(w, stripped, screened, sx.AstIndex(stripped))


# --- materialization ---


def test_materialize_pre_close_block_matches_template():
    src = """class W {
  private Socket f;

  void reset() {
    f = new Socket();
  }
  void close() {
    if (f != null) {
      f.close();
    }
  }
}
class M {
  static void main() {
    W w = new W();
    w.reset();
    w.close();
  }
}
"""
    _, annotated, w = _plan_first(src, kind="OwningFieldOverwrite")
    patched = copy.deepcopy(annotated)
    plan = _plan(w, patched, infer_specs(patched, LIB))
    assert plan.template == PRE_CLOSE_INSERTION
    apply_plan_in_place(patched, plan)
    text = pretty_print(patched)
    block = (
        "    if (f != null) {\n"
        "      try {\n"
        "        f.close();\n"
        "      } catch (Exception e) {\n"
        "        e.printStackTrace();\n"
        "      }\n"
        "    }\n"
        "    f = new Socket();"
    )
    assert block in text and text.count("try {") == 1  # one pre-close, and no other edit


def test_materialize_diff_applies_to_canonical_text():
    _, annotated, w = _plan_first('class A { static void main() { Socket s = new Socket(); s.send("x"); } }')
    patched, diff = _apply_to_copy(annotated, w)
    patched_text = apply_unified_diff(pretty_print(annotated), diff)
    assert patched_text == pretty_print(patched)
    # re-check: the fixed warning id is gone
    reparsed = parse(patched_text, "r.mj")
    specs = infer_specs(reparsed, LIB)
    remaining = {x.id for x in check_program(reparsed, specs, LIB)}
    assert w.id not in remaining


def test_materialize_is_deterministic():
    _, annotated, w = _plan_first('class A { static void main() { Socket s = new Socket(); s.send("x"); } }')
    _, diff1 = _apply_to_copy(annotated, w)
    _, diff2 = _apply_to_copy(annotated, w)
    assert diff1 == diff2 and diff1


def test_fresh_temp_extraction_for_nested_allocation():
    src = """class A {
  static void main() {
    new Socket().send("fire");
  }
}
"""
    plan, annotated, w = _plan_first(src)
    assert isinstance(plan, RepairPlan)
    patched, _ = _apply_to_copy(annotated, w)
    assert "Socket __lw_tmp1 = null;" in pretty_print(patched)


def test_multi_mustcall_inserts_every_finalizer():
    lib2 = load_library_spec(
        "resource Pipe { must_call: [drain, close]; method Pipe() -> void; method close() -> void; method drain() -> void; }"
    )
    prog = parse("class A { static void main() { Pipe p = new Pipe(); } }", "r.mj")
    specs = infer_specs(prog, lib2)
    w = check_program(prog, specs, lib2)[0]
    plan = _plan(w, prog, specs, lib2)
    assert isinstance(plan, RepairPlan)
    assert plan.finalizer_methods == ("close", "drain")
    text = pretty_print(_apply_to_copy(prog, w, lib2)[0])
    assert "p.close();" in text and "p.drain();" in text


def test_classic_mode_plans_only_close():
    lib2 = load_library_spec(
        "resource Pipe { must_call: [drain]; method Pipe() -> void; method drain() -> void; }"
    )
    prog = parse("class A { static void main() { Pipe p = new Pipe(); } }", "r.mj")
    specs = infer_specs(prog, lib2)
    w = check_program(prog, specs, lib2)[0]
    assert _plan(w, prog, specs, lib2).finalizer_methods == ("drain",)
    unfixable = _plan(w, prog, specs, lib2, enhancements=False)
    assert isinstance(unfixable, Unfixable) and unfixable.reason == "NoIrMatch"


def test_rebind_warning_round_trip():
    prog = parse('class A { static void main() { Socket s = new Socket(); } }', "r.mj")
    version = ProgramVersion(prog, LIB)
    specs = SpecSet.from_declared(prog)
    w = check_program(version, specs, LIB)[0]
    back = rebind_warning(w.to_json(), version)
    assert back.id == w.id and back.ast_nid == w.ast_nid and back.site == w.site
    assert locate_anchor(back, version).ast_nid == w.ast_nid


# --- a plan holds the nodes it edits ---

CALL_AFTER_A_CLOSE = """class Maker {
  static PrintStream open(String p) {
    PrintStream s = new PrintStream(p);
    return s;
  }
}
class Main {
  static void main() {
    try {
      PrintStream out = new PrintStream("log.txt");
      out.println("begin");
    } catch (Exception e) {
      e.printStackTrace();
    }
    PrintStream b = Maker.open("b.txt");
    b.println("x");
  }
}
"""


def test_a_close_inserted_earlier_in_the_round_does_not_move_a_call_anchor(libspec):
    # the `out.close()` the first fix inserts comes before `Maker.open(...)`
    # in the method, so counting calls would anchor `b`'s wrap on it
    report = run_pipeline([("calls.mj", CALL_AFTER_A_CLOSE)], libspec)
    fr = report.files["calls.mj"]
    out, b = fr.w_xform
    assert fr.fix_status == {out.id: ("fixed", CLOSE_IN_FINALLY), b.id: ("fixed", TRY_FINALLY_WRAP)}
    assert fr.iterations_used == 1 and fr.verdict.label == "Pass"
    assert "+      b = Maker.open(\"b.txt\");" in fr.diff and "= out.close()" not in fr.diff


GUARDED_USE_BEFORE_A_STORE = """class W {
  private PrintStream f;
  void reset(String p) {
    if (f != null) {
      f.println("bye");
    }
    f = new PrintStream(p);
  }
  void close() {
    if (f != null) {
      f.close();
    }
  }
}
class M {
  static void main() {
    W w = new W();
    w.reset("a");
    w.reset("b");
    w.close();
  }
}
"""


def test_a_null_guard_of_the_users_own_before_a_store_gets_its_pre_close(libspec):
    report = run_pipeline([("guard.mj", GUARDED_USE_BEFORE_A_STORE)], libspec)
    fr = report.files["guard.mj"]
    (w,) = fr.w_xform
    assert w.kind == "OwningFieldOverwrite"
    assert fr.fix_status == {w.id: ("fixed", PRE_CLOSE_INSERTION)}
    assert fr.verdict.label == "Pass" and report.exit_code == 0


# the first PrintStream's holder is assigned the second before the finally
# that would close it runs: a wrap would close only the second
HOLDER_REASSIGNED = {
    TRY_FINALLY_WRAP: """class A {
  static void main() {
    PrintStream s = new PrintStream("a");
    s = new PrintStream("b");
    s.println("x");
  }
}
""",
    CLOSE_IN_FINALLY: """class A {
  static void main(String p) {
    PrintStream s = null;
    try {
      if (p == null) {
        s = new PrintStream("a");
      }
      s = new PrintStream("b");
      s.println("x");
    } catch (Exception e) {
      e.printStackTrace();
    }
  }
}
""",
}


@pytest.mark.parametrize("template", sorted(HOLDER_REASSIGNED))
def test_a_wrap_whose_holder_is_reassigned_before_the_finally_is_unfixable(template):
    src = HOLDER_REASSIGNED[template]
    plan, _prog, _w = _plan_first(src)
    assert isinstance(plan, Unfixable)
    assert (plan.reason, plan.detail) == ("NoIrMatch", "holder reassigned before the finally")
    report = run_pipeline([("holder.mj", src)], LIB)
    fr = report.files["holder.mj"]
    first, second = sorted(fr.w_xform, key=lambda w: w.line)
    assert fr.fix_status == {first.id: ("unfixable", "NoIrMatch"), second.id: ("fixed", template)}
    assert fr.verdict.label == "Pass"


# the holder is declared before, and used after, the block a wrap would
# close it in: the finally would run before `s.println`
HOLDER_USED_AFTER = {
    TRY_FINALLY_WRAP: """class A {
  static void main() {
    PrintStream s = null;
    int c = 1;
    if (c == 1) {
      s = new PrintStream("b");
    }
    s.println("x");
  }
}
""",
    CLOSE_IN_FINALLY: """class A {
  static void main(String p) {
    PrintStream s = null;
    try {
      if (p == null) {
        s = new PrintStream("a");
      }
    } catch (Exception e) {
      e.printStackTrace();
    }
    s.println("x");
  }
}
""",
}


@pytest.mark.parametrize("template", sorted(HOLDER_USED_AFTER))
def test_a_wrap_whose_holder_is_used_after_the_wrapped_block_is_unfixable(template):
    src = HOLDER_USED_AFTER[template]
    plan, _prog, _w = _plan_first(src)
    assert isinstance(plan, Unfixable)
    assert (plan.reason, plan.detail) == ("NoIrMatch", "holder used after the wrapped block")
    report = run_pipeline([("used.mj", src)], LIB)
    fr = report.files["used.mj"]
    (w,) = fr.w_xform
    assert fr.fix_status == {w.id: ("unfixable", "NoIrMatch")}
    assert fr.verdict.label == "Pass" and fr.diff == "" and report.exit_code == 2


def test_a_wrap_leaves_a_later_local_of_the_same_name_alone():
    # the later `s` is another local: the wrapped one goes out of scope with its block
    src = """class A {
  static void main() {
    int c = 1;
    if (c == 1) {
      PrintStream s = null;
      s = new PrintStream("a");
      s.println("x");
    }
    PrintStream s = new PrintStream("b");
    s.println("y");
    s.close();
  }
}
"""
    plan, _prog, _w = _plan_first(src)
    assert not isinstance(plan, Unfixable) and plan.template == TRY_FINALLY_WRAP


# --- a wrap's range ---


def _main_body(program):
    return program.class_named("Main").method_named("main").body


def _plans_in_line_order(src, lib):
    prog = parse(src, "range.mj")
    specs = infer_specs(prog, lib)
    warnings = sorted(check_program(prog, specs, lib), key=lambda w: w.line)
    return [_plan(w, prog, specs, lib=lib) for w in warnings], prog


def test_each_leaked_holder_of_wide_method_is_wrapped_over_its_allocation_alone(libspec):
    report = run_pipeline([("wide6.mj", wide_method_source(6))], libspec)
    fr = report.files["wide6.mj"]
    assert fr.iterations_used == 1 and fr.verdict.label == "Pass"
    assert list(fr.fix_status.values()) == [("fixed", TRY_FINALLY_WRAP)] * 3
    tries = [s for s in _main_body(fr.patched).stmts if isinstance(s, sx.Try)]
    assert [[type(s) for s in t.body.stmts] for t in tries] == [[sx.Assign]] * 3
    assert [t.body.stmts[0].target.name for t in tries] == ["s1", "s3", "s5"]


def test_the_holder_use_test_costs_each_warning_the_same_whatever_the_method_size(monkeypatch, libspec):
    """`_holder_used_after` places the holder's references read off the
    round's `AstIndex` and walks no statement: on `wide_method_source(n)`
    it never calls `walk_exprs`, and each warning costs it the same number
    of interpreter steps (calls, lines and returns under `sys.settrace`) at
    n = 20 as at n = 320, where a scan of the statements before or after
    the allocation grows with n. The collector is off during a counted
    call, so no finalizer's steps land in it."""
    holder_used_after = R._holder_used_after
    steps: list[int] = []
    called: set = set()

    def counted(*args):
        count = 0

        def trace(frame, event, _arg):
            nonlocal count
            count += 1
            if event == "call":
                called.add(frame.f_code)
            return trace

        previous, collecting = sys.gettrace(), gc.isenabled()
        gc.disable()
        sys.settrace(trace)
        try:
            return holder_used_after(*args)
        finally:
            sys.settrace(previous)
            if collecting:
                gc.enable()
            steps.append(count)

    monkeypatch.setattr(R, "_holder_used_after", counted)
    per_size = {}
    for n in (20, 320):
        program = parse(wide_method_source(n), f"wide{n}.mj")
        specs = infer_specs(program, libspec)
        steps.clear()
        for w in check_program(program, specs, libspec):
            assert isinstance(_plan(w, program, specs, lib=libspec), RepairPlan)
        assert len(steps) == n // 2
        per_size[n] = max(steps)
    assert sx.walk_exprs.__code__ not in called
    assert per_size[320] == per_size[20]


# `b` is declared inside `a`'s range, so the range reaches `b.read()` and
# `b`'s fix joins `a`'s finally
TWO_HOLDERS = """class Main {
  static void main() {
    FileInputStream a = new FileInputStream("a");
    FileInputStream b = new FileInputStream("b");
    a.read();
    b.read();
  }
}
"""


def test_a_holder_declared_in_a_range_extends_it_and_joins_its_finally(libspec):
    (plan_a, _plan_b), _prog = _plans_in_line_order(TWO_HOLDERS, libspec)
    assert plan_a.template == TRY_FINALLY_WRAP and plan_a.stop == 4
    report = run_pipeline([("two.mj", TWO_HOLDERS)], libspec)
    fr = report.files["two.mj"]
    assert fr.iterations_used == 1 and fr.verdict.label == "Pass"
    assert [fr.fix_status[w.id] for w in sorted(fr.w_xform, key=lambda w: w.line)] == [
        ("fixed", TRY_FINALLY_WRAP),
        ("fixed", CLOSE_IN_FINALLY),
    ]
    decl_a, decl_b, wrap = _main_body(fr.patched).stmts
    assert (decl_a.name, decl_b.name) == ("a", "b") and len(wrap.body.stmts) == 4
    assert [g.cond.lhs.name for g in wrap.finally_block.stmts] == ["a", "b"]


# `t` is assigned `s` inside `s`'s range, so the range reaches `t.read()`,
# after `s`'s last use; `int m` reads nothing the range writes and stays out
ALIAS_IN_RANGE = """class Main {
  static void main() {
    FileInputStream s = new FileInputStream("a");
    FileInputStream t = null;
    t = s;
    s.read();
    int k = 1;
    t.read();
    int m = 2;
  }
}
"""


def test_an_alias_assigned_in_a_range_keeps_its_later_uses_inside_it(libspec):
    (plan,), _prog = _plans_in_line_order(ALIAS_IN_RANGE, libspec)
    assert plan.template == TRY_FINALLY_WRAP and plan.stop == 6
    report = run_pipeline([("alias.mj", ALIAS_IN_RANGE)], libspec)
    fr = report.files["alias.mj"]
    assert fr.iterations_used == 1 and fr.verdict.label == "Pass"
    decl, wrap, after = _main_body(fr.patched).stmts
    assert isinstance(wrap, sx.Try) and len(wrap.body.stmts) == 6
    assert isinstance(after, sx.LocalDecl) and after.name == "m"


# the first stream's holder is assigned again inside its range, before the
# later statement that ends it
REASSIGNED_IN_RANGE = """class Main {
  static void main() {
    FileInputStream s = new FileInputStream("a");
    s.read();
    s = new FileInputStream("b");
    s.read();
    s.close();
    int k = 1;
  }
}
"""


def test_a_holder_reassigned_inside_its_range_is_unfixable(libspec):
    (plan,), _prog = _plans_in_line_order(REASSIGNED_IN_RANGE, libspec)
    assert isinstance(plan, Unfixable)
    assert (plan.reason, plan.detail) == ("NoIrMatch", "holder reassigned before the finally")
