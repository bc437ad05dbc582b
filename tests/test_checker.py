"""Obligation checking, the constructor-first-write filter, and final-field rejection."""

import pytest

from helpers import NESTING_LIBSPEC, nesting_source
from leakward.checker import (
    OWNING_FIELD_OVERWRITE,
    UNSATISFIED_OBLIGATION,
    check_program,
    filter_constructor_first_writes,
    method_run,
    reject_final_writes,
)
from leakward.libspec import load_library_spec
from leakward.memo import ProgramVersion
from leakward.parser import parse
from leakward.specs import SpecSet, resource_must_call

LIB = load_library_spec(
    """
resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void; method close() -> void; method println(notowning) -> void; }
resource Socket { must_call: [close]; method Socket() -> void; method close() -> void; method send(notowning) -> void; }
resource Pipe { must_call: [drain, close]; method Pipe() -> void; method close() -> void; method drain() -> void; method feed(notowning) -> void; }
"""
)


def check(src, specs=None):
    prog = parse(src, "t.mj")
    specs = specs or SpecSet.from_declared(prog)
    return prog, check_program(prog, specs, LIB)


# --- resource_must_call ---


def test_must_call_of_library_class():
    specs = SpecSet()
    assert resource_must_call("PrintStream", specs, LIB) == frozenset({"close"})


def test_must_call_of_unannotated_user_class():
    prog = parse("class Plain { }")
    specs = SpecSet.from_declared(prog)
    assert resource_must_call("Plain", specs, LIB) == frozenset()


def test_must_call_of_annotated_user_class():
    prog = parse('@MustCall("shutdown")\nclass Svc { void shutdown() { } }')
    specs = SpecSet.from_declared(prog)
    assert resource_must_call("Svc", specs, LIB) == frozenset({"shutdown"})


# --- core obligation checking ---


def test_closed_on_the_only_path_is_clean():
    _, ws = check('class A { static void main() { Socket s = new Socket(); s.close(); } }')
    assert ws == []


def test_branch_close_warns_once():
    prog, ws = check(
        "class A { static void main(\n) { Socket s = new Socket(); Socket t = s; if (s == t) { s.close(); } } }"
    )
    # closed only when the branch is taken: one path leaks
    assert len(ws) == 1 and ws[0].kind == UNSATISFIED_OBLIGATION


def test_multi_method_obligation_needs_all():
    _, ws = check('class A { static void main() { Pipe p = new Pipe(); p.close(); } }')
    assert len(ws) == 1  # drain never called
    _, ws2 = check('class A { static void main() { Pipe p = new Pipe(); p.close(); p.drain(); } }')
    assert ws2 == []


def test_unrelated_call_does_not_satisfy():
    _, ws = check('class A { static void main() { Socket s = new Socket(); s.send("x"); } }')
    assert len(ws) == 1


def test_alias_close_counts():
    _, ws = check("class A { static void main() { Socket a = new Socket(); Socket b = a; b.close(); } }")
    assert ws == []


def test_overwritten_local_leaks_first_instance():
    prog, ws = check(
        'class A { static void main() { PrintStream a = new PrintStream("f"); a = new PrintStream("g"); a.close(); } }'
    )
    assert len(ws) == 1 and ws[0].site == 1


def test_store_to_plain_field_still_warns_at_allocation():
    src = """class Holder {
  private PrintStream kept;

  void fill() {
    kept = new PrintStream("f");
  }
}
"""
    _, ws = check(src)
    assert len(ws) == 1 and ws[0].anchor_kind == "new"


def test_store_to_owning_field_discharges():
    src = """class Holder {
  @Owning private PrintStream kept;

  void fill() {
    kept = new PrintStream("f");
  }
  void close() {
    kept.close();
  }
}
"""
    prog, ws = check(src)
    kinds = {w.kind for w in ws}
    assert UNSATISFIED_OBLIGATION not in kinds
    assert OWNING_FIELD_OVERWRITE in kinds  # non-constructor store, prior content unknown


def test_owning_param_pass_discharges():
    src = """class Sink {
  Sink(@Owning Socket s) {
  }
}
class A {
  static void main() {
    Socket s = new Socket();
    Sink k = new Sink(s);
  }
}
"""
    _, ws = check(src)
    assert all(w.resource_class != "Socket" for w in ws)


def test_returned_value_discharges_callee_and_obligates_caller():
    src = """class F {
  static Socket make() {
    Socket s = new Socket();
    return s;
  }
  static void main() {
    F.make();
  }
}
"""
    _, ws = check(src)
    assert len(ws) == 1 and ws[0].anchor_kind == "call"


def test_notowning_return_does_not_obligate_caller():
    src = """class F {
  @NotOwning static Socket peek() {
    Socket s = new Socket();
    s.close();
    return s;
  }
  static void main() {
    F.peek();
  }
}
"""
    _, ws = check(src)
    assert ws == []


def test_try_finally_guarded_close_is_clean():
    src = """class A {
  static void main() {
    Socket s = null;
    try {
      s = new Socket();
      s.send("x");
    } finally {
      if (s != null) {
        s.close();
      }
    }
  }
}
"""
    _, ws = check(src)
    assert ws == []


def test_close_in_finally_with_catch_join_is_clean():
    src = """class A {
  static void main() {
    PrintStream out = null;
    try {
      out = new PrintStream("log");
      out.println("x");
    } catch (Exception e) {
      e.printStackTrace();
    } finally {
      if (out != null) {
        out.close();
      }
    }
  }
}
"""
    _, ws = check(src)
    assert ws == []


def test_caught_exception_leak_warns():
    # the catch swallows the exception and the stream is lost on that path
    src = """class A {
  static void main() {
    try {
      PrintStream out = new PrintStream("log");
      out.println("x");
      out.close();
    } catch (Exception e) {
      e.printStackTrace();
    }
  }
}
"""
    _, ws = check(src)
    assert len(ws) == 1


@pytest.mark.parametrize(
    "finally_body",
    ["", "if (s == u) { }", "if (s == u) { } else { }", "while (s == u) { u = null; }"],
    ids=["empty", "empty-then", "empty-branches", "loop"],
)
def test_a_death_at_the_end_of_the_exception_path_finally_warns(finally_body):
    # println's throw runs the finally and leaves the method; `s` dies on
    # the way, and the close after the try is on the normal path only
    src = f"""class A {{
  void m(PrintStream u) {{
    PrintStream s = new PrintStream("a");
    try {{
      s.println("x");
    }} finally {{
      {finally_body}
    }}
    s.close();
  }}
}}
"""
    _, ws = check(src)
    assert [(w.kind, w.line) for w in ws] == [(UNSATISFIED_OBLIGATION, 3)]


@pytest.mark.parametrize("nulling", ["if (c == 1) { u = null; }", "while (c == 1) { u = null; }"], ids=["if", "loop"])
def test_a_parameter_nulled_on_one_path_may_be_non_null_after_the_join(nulling):
    # `u` holds an unknown value on the path that skips the nulling, so the
    # return that leaves `s` open is feasible
    src = f"""class A {{
  void m(PrintStream u) {{
    int c = 1;
    {nulling}
    PrintStream s = new PrintStream("a");
    if (u != null) {{
      return;
    }}
    s.close();
  }}
}}
"""
    _, ws = check(src)
    assert [(w.kind, w.anchor_kind, w.line) for w in ws] == [(UNSATISFIED_OBLIGATION, "new", 5)]


def test_a_nesting_shape_whose_join_meets_a_nulled_parameter_reaches_exit():
    # the finally's `if (u == null) { } else { s = new ...; }` joins a
    # parameter with its null branch side; the loop after it then exits
    program = parse(nesting_source(106), "nest106.mj")
    version = ProgramVersion(program, load_library_spec(NESTING_LIBSPEC))
    (cls,) = program.classes
    (meth,) = cls.all_methods()
    warnings, exit_fact = method_run(version, cls, meth, SpecSet.from_declared(program))
    assert exit_fact is not None
    assert 2 in {w.site for w in warnings if w.kind == UNSATISFIED_OBLIGATION}


def test_warning_ids_survive_blank_lines():
    src = 'class A { static void main() { Socket s = new Socket(); } }'
    _, ws1 = check(src)
    _, ws2 = check(src.replace("class A {", "class A {\n\n\n"))
    assert [w.id for w in ws1] == [w.id for w in ws2]
    assert ws1[0].line != ws2[0].line


def test_a_warning_after_a_newline_escaped_in_a_string_has_its_own_line():
    src = 'class A {\n  static void main() {\n    String s = "a\\\nb";\n    Socket t = new Socket();\n  }\n}\n'
    _, (w,) = check(src)
    assert (w.kind, w.line) == (UNSATISFIED_OBLIGATION, 5)


def test_monotone_in_library_spec():
    src = 'class A { static void main() { Pipe p = new Pipe(); p.close(); } }'
    weaker = load_library_spec(
        "resource Pipe { must_call: [close]; method Pipe() -> void; method close() -> void; method drain() -> void; }"
    )
    prog = parse(src, "t.mj")
    base = check_program(prog, SpecSet.from_declared(prog), weaker)
    more = check_program(prog, SpecSet.from_declared(prog), LIB)
    assert {w.id for w in base} <= {w.id for w in more}


def test_a_call_on_a_shadowing_local_reads_its_own_classes_ownership():
    # B.take owns its argument and A.take does not; the call in m is on the
    # block's `A x`, not on the parameter `B x`, so the socket leaks in both
    src = """class B {
  void take(@Owning Socket s) {
    s.close();
  }
}
class A {
  void take(Socket s) {
  }
  void m(B x) {
    if (x == null) {
      A x = new A();
      Socket s = new Socket();
      x.take(s);
    }
  }
  void n(B y) {
    if (y == null) {
      A x = new A();
      Socket s = new Socket();
      x.take(s);
    }
  }
}
"""
    _prog, warnings = check(src)
    assert [(w.kind, w.method_name) for w in warnings] == [(UNSATISFIED_OBLIGATION, "m"), (UNSATISFIED_OBLIGATION, "n")]


# --- six-condition filter truth table (acceptance criterion 6) ---

OVERWRITE_TEMPLATE = """class W {{
  {field_decl}

  W({params}) {{
    {pre_stmts}{assign}{post_stmts}
  }}
  {extra_member}
  void close() {{
    if (f != null) {{
      f.close();
    }}
  }}
}}
"""


def _overwrite_case(
    field_decl="private Socket f;",
    params="",
    pre_stmts="",
    assign="f = new Socket();",
    post_stmts="",
    extra_member="",
):
    src = OVERWRITE_TEMPLATE.format(
        field_decl=field_decl, params=params, pre_stmts=pre_stmts, assign=assign, post_stmts=post_stmts,
        extra_member=extra_member,
    )
    prog = parse(src, "w.mj")
    specs = SpecSet.from_declared(prog)
    specs.field_ownership[("W", "f")] = "owning"
    specs.class_mustcall["W"] = frozenset({"close"})
    warnings = check_program(prog, specs, LIB)
    ctor_overwrites = [
        w for w in warnings if w.kind == OWNING_FIELD_OVERWRITE and w.method_name.startswith("<init>")
    ]
    kept = filter_constructor_first_writes(warnings, prog)
    kept_ctor = [w for w in kept if w.kind == OWNING_FIELD_OVERWRITE and w.method_name.startswith("<init>")]
    assert ctor_overwrites, "test case must produce a constructor overwrite warning"
    return bool(kept_ctor)


# Each row: (case label, kwargs, expect_kept_after_filter)
TRUTH_TABLE = [
    ("all six conditions hold", {}, False),
    ("cond1 violated: field not private", {"field_decl": "Socket f;"}, True),
    ("cond2 violated: declaration initializer", {"field_decl": "private Socket f = null;"}, True),
    # cond3 (instance initializer write) is vacuously satisfiable only: MiniJ
    # has no instance initializer blocks, so the row matches the all-hold row
    ("cond3 vacuous: no instance initializers exist", {}, False),
    (
        "cond4 violated: assignment nested in an if",
        {"params": "String c", "assign": "if (c == null) { f = new Socket(); }"},
        True,
    ),
    (
        "cond5 violated: constructor writes twice",
        {"post_stmts": "\n    f = new Socket();"},
        True,
    ),
    (
        "cond6 violated: method call before the write",
        {"pre_stmts": "this.log();\n    ", "extra_member": "void log() {\n  }"},
        True,
    ),
    # cond6's this(...) delegation half cannot be expressed in MiniJ; the
    # call-before-write half above is its observable form
    (
        "cond6 violated: call inside the assigned expression",
        {"assign": "f = this.supply();", "extra_member": "Socket supply() {\n    return new Socket();\n  }"},
        True,
    ),
    (
        "pairwise: not private and initializer",
        {"field_decl": "Socket f = null;"},
        True,
    ),
    (
        "pairwise: nested write and written twice",
        {"params": "String c", "assign": "if (c == null) { f = new Socket(); }", "post_stmts": "\n    f = new Socket();"},
        True,
    ),
    (
        "pairwise: call before write and initializer",
        {
            "field_decl": "private Socket f = null;",
            "pre_stmts": "this.log();\n    ",
            "extra_member": "void log() {\n  }",
        },
        True,
    ),
    (
        "all hold with unrelated trailing statement",
        {"post_stmts": "\n    String note = \"made\";"},
        False,
    ),
]


@pytest.mark.parametrize("label, kwargs, expect_kept", TRUTH_TABLE, ids=[row[0] for row in TRUTH_TABLE])
def test_six_condition_truth_table(label, kwargs, expect_kept):
    assert _overwrite_case(**kwargs) is expect_kept


def test_truth_table_has_twelve_cases():
    assert len(TRUTH_TABLE) == 12


def test_filter_never_drops_non_constructor_overwrites():
    src = """class W {
  @Owning private Socket f;

  void reset() {
    f = new Socket();
  }
  void close() {
    if (f != null) {
      f.close();
    }
  }
}
"""
    prog = parse(src, "w.mj")
    specs = SpecSet.from_declared(prog)
    specs.class_mustcall["W"] = frozenset({"close"})
    ws = check_program(prog, specs, LIB)
    overwrites = [w for w in ws if w.kind == OWNING_FIELD_OVERWRITE]
    assert overwrites
    assert filter_constructor_first_writes(ws, prog) == ws


# --- reject_final_writes ---


def test_final_two_ctor_arities_clean():
    src = """class B {
  private final Socket s;

  B() {
    s = new Socket();
  }
  B(String tag) {
    s = new Socket();
  }
}
"""
    assert reject_final_writes(parse(src, "b.mj"), LIB) == []


def test_final_ctor_plus_method_write_is_one_error():
    src = """class B {
  private final Socket s;

  B() {
    s = new Socket();
  }
  void reset() {
    s = new Socket();
  }
}
"""
    errs = reject_final_writes(parse(src, "b.mj"), LIB)
    assert len(errs) == 1 and errs[0].line == 8


def test_final_branch_exclusive_writes_clean():
    src = """class B {
  private final Socket s;

  B(String c) {
    if (c == null) {
      s = new Socket();
    } else {
      s = new Socket();
    }
  }
}
"""
    assert reject_final_writes(parse(src, "b.mj"), LIB) == []


def test_final_double_write_in_one_ctor_rejected():
    src = """class B {
  private final Socket s;

  B() {
    s = new Socket();
    s = new Socket();
  }
}
"""
    assert reject_final_writes(parse(src, "b.mj"), LIB) != []


def test_final_write_in_loop_rejected():
    src = """class B {
  private final Socket s;

  B(String c) {
    while (c == null) {
      s = new Socket();
    }
  }
}
"""
    assert reject_final_writes(parse(src, "b.mj"), LIB) != []


def test_final_initializer_plus_ctor_write_rejected():
    src = """class B {
  private final Socket s = null;

  B() {
    s = new Socket();
  }
}
"""
    assert reject_final_writes(parse(src, "b.mj"), LIB) != []
