"""Interpreter semantics and dynamic patch validation."""

import pytest

from leakward.interp import run, validate_patch
from leakward.libspec import load_library_spec
from leakward.parser import parse
from leakward.pipeline import run_pipeline

LIB = load_library_spec(
    """
resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void; method close() -> void; method println(notowning) -> void; }
resource FileWriter { must_call: [close]; method FileWriter(notowning) -> void; method close() -> void; method write(notowning) -> void; }
resource BufferedWriter { must_call: [close]; method BufferedWriter(owning) -> void; method close() -> void; method write(notowning) -> void; }
resource List { must_call: []; method List() -> void; method add(notowning) -> void; method get(notowning) -> notowning; }
"""
)


def test_open_use_close_clean():
    rep = run(parse('class A { static void main() { PrintStream s = new PrintStream("f"); s.println("x"); s.close(); } }'), LIB)
    assert rep.status == "Completed"
    assert rep.leaked_sites == () and rep.use_after_close == ()
    assert rep.stdout == ("[open] PrintStream@s1", 'PrintStream@s1.println("x")', "[close] PrintStream@s1")


def test_leak_reported_at_site():
    rep = run(parse('class A { static void main() { PrintStream s = new PrintStream("f"); } }'), LIB)
    assert rep.leaked_sites == (1,)


def test_loop_allocates_instances_per_iteration():
    src = """class A {
  static void main() {
    PrintStream keep = null;
    PrintStream last = null;
    while (last == null) {
      keep = new PrintStream("k");
      last = keep;
    }
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == (1,)


def test_close_is_idempotent():
    src = 'class A { static void main() { PrintStream s = new PrintStream("f"); s.close(); s.close(); } }'
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == () and rep.use_after_close == ()


def test_use_after_close_recorded():
    src = 'class A { static void main() { PrintStream s = new PrintStream("f"); s.close(); s.println("late"); } }'
    rep = run(parse(src), LIB)
    assert len(rep.use_after_close) == 1
    site, method, _step = rep.use_after_close[0]
    assert (site, method) == (1, "println")


def test_pass_through_constructor_absorbs():
    src = """class A {
  static void main() {
    BufferedWriter w = new BufferedWriter(new FileWriter("f"));
    w.write("data");
    w.close();
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == ()  # closing the outer closed the inner


def test_pass_through_leak_leaks_both():
    src = 'class A { static void main() { BufferedWriter w = new BufferedWriter(new FileWriter("f")); } }'
    rep = run(parse(src), LIB)
    assert sorted(rep.leaked_sites) == [1, 2]


def test_wrapper_close_executes_body():
    src = """class W {
  private PrintStream s;

  W() {
    s = new PrintStream("w");
  }
  void close() {
    s.close();
  }
}
class M {
  static void main() {
    W w = new W();
    w.close();
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == ()


def test_wrapper_double_close_safe():
    src = """class W {
  private PrintStream s;

  W() {
    s = new PrintStream("w");
  }
  void close() {
    if (s != null) {
      s.close();
    }
  }
}
class M {
  static void main() {
    W w = new W();
    w.close();
    w.close();
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == () and rep.use_after_close == ()


def test_try_finally_and_return_ordering():
    src = """class A {
  static String speak() {
    try {
      new PrintStream("t").println("try");
      return "done";
    } finally {
      new PrintStream("f").println("finally");
    }
  }
  static void main() {
    A.speak();
  }
}
"""
    rep = run(parse(src), LIB)
    printed = [line for line in rep.stdout if "println" in line]
    assert printed[0].endswith('println("try")') and printed[1].endswith('println("finally")')


def test_null_deref_is_runtime_error():
    rep = run(parse("class A { static void main() { PrintStream s = null; s.close(); } }"), LIB)
    assert rep.status == "RuntimeError(NullDereference)"


def test_leaks_still_reported_on_runtime_error():
    src = """class A {
  static void main() {
    PrintStream s = new PrintStream("f");
    PrintStream t = null;
    t.println("boom");
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.status == "RuntimeError(NullDereference)" and rep.leaked_sites == (1,)


def test_step_limit():
    src = 'class A { static void main() { PrintStream s = new PrintStream("f"); while (s != null) { s.println("x"); } } }'
    rep = run(parse(src), LIB, step_limit=200)
    assert rep.status == "StepLimitExceeded"


def test_unbounded_recursion_is_stack_overflow():
    rep = run(parse("class Main { static void f() { Main.f(); } static void main() { Main.f(); } }"), LIB)
    assert rep.status == "RuntimeError(StackOverflow)"
    src = """class Main {
  static void main() {
    PrintStream s = new PrintStream("f");
    Node n = new Node();
  }
}
class Node {
  Node() {
    Node next = new Node();
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.status == "RuntimeError(StackOverflow)" and rep.leaked_sites == (1,)


SELF_ALLOCATING_FIELD = """class Pair {
  Pair two = new Pair("t");

  Pair(String name) {
  }
}
class Main {
  static void main() {
    PrintStream out = new PrintStream("f");
    Pair p = new Pair("x");
  }
}
"""


def test_field_initializer_recursion_is_stack_overflow():
    # each instance-field initializer counts as one nesting level toward the cap
    rep = run(parse(SELF_ALLOCATING_FIELD), LIB)
    assert rep.status == "RuntimeError(StackOverflow)" and rep.leaked_sites == (2,)
    report = run_pipeline([("pair.mj", SELF_ALLOCATING_FIELD)], LIB)
    assert report.errors == [] and list(report.files) == ["pair.mj"]


def test_bounded_recursion_completes():
    src = """class Main {
  static void f(String x) {
    if (x != null) {
      Main.f(null);
    }
  }
  static void main() {
    Main.f("go");
  }
}
"""
    assert run(parse(src), LIB).status == "Completed"


def test_determinism():
    src = 'class A { static void main() { PrintStream s = new PrintStream("f"); s.println("x"); } }'
    assert run(parse(src), LIB) == run(parse(src), LIB)


def test_run_requires_single_main():
    with pytest.raises(ValueError):
        run(parse("class A { }"), LIB)
    with pytest.raises(ValueError):
        run(parse("class A { static void main() { } } class B { static void main() { } }"), LIB)


def test_statics_and_equality_semantics():
    src = """class G {
  static PrintStream shared;
}
class A {
  static void main() {
    G.shared = new PrintStream("g");
    PrintStream mine = G.shared;
    if (mine == G.shared) {
      mine.close();
    }
  }
}
"""
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == ()


def test_non_resource_library_classes_never_leak():
    src = 'class A { static void main() { List bag = new List(); bag.add("x"); } }'
    rep = run(parse(src), LIB)
    assert rep.leaked_sites == ()


# --- validate_patch ---

GOOD = """class A {
  static void main() {
    PrintStream s = new PrintStream("f");
    s.println("x");
  }
}
"""

GOOD_PATCHED = """class A {
  static void main() {
    PrintStream s = null;
    try {
      s = new PrintStream("f");
      s.println("x");
    } finally {
      if (s != null) {
        s.close();
      }
    }
  }
}
"""

BAD_PATCHED = """class A {
  static void main() {
    PrintStream s = new PrintStream("f");
    s.close();
    s.println("x");
  }
}
"""


def _surviving(original, patched):
    """The original's warning ids that a check of `patched` still reports,
    as the fix loop's re-check hands them to validation."""
    from leakward.checker import check_program
    from leakward.inference import infer_specs
    from leakward.specs import SpecSet

    fixed = {w.id for w in check_program(original, SpecSet.from_declared(original), LIB)}
    assert fixed
    return {w.id for w in check_program(patched, infer_specs(patched, LIB), LIB)} & fixed


def test_validate_patch_pass():
    original, patched = parse(GOOD, "g.mj"), parse(GOOD_PATCHED, "g.mj")
    surviving = _surviving(original, patched)
    assert surviving == set()
    verdict = validate_patch(original, patched, LIB, surviving=surviving)
    assert verdict.ok and verdict.label == "Pass"


def test_validate_patch_fails_when_the_print_does_not_print_back():
    patched = parse(GOOD_PATCHED, "g.mj")
    assert validate_patch(parse(GOOD, "g.mj"), patched, LIB, patched_text=GOOD_PATCHED).ok
    verdict = validate_patch(parse(GOOD, "g.mj"), patched, LIB, patched_text=GOOD_PATCHED.replace("\n  ", "\n "))
    assert verdict.failures == ("Reparse:the printed patch does not print back to itself",)


def test_validate_patch_fails_on_use_after_close():
    original = parse(GOOD, "g.mj")
    verdict = validate_patch(original, parse(BAD_PATCHED, "g.mj"), LIB)
    assert verdict.failures == ("UseAfterClose",)


def test_validate_patch_blames_only_the_use_after_close_events_a_patch_adds():
    # the original already prints once after its close; a patch that keeps
    # that use passes, and one that closes earlier and so adds a second
    # (site, method) event fails
    body = 'class A {\n  static void main() {\n    PrintStream s = new PrintStream("f");\n    BODY\n  }\n}\n'
    used_once = body.replace("BODY", 's.println("x");\n    s.close();\n    s.println("y");')
    used_twice = body.replace("BODY", 's.close();\n    s.println("x");\n    s.println("y");')
    assert len(run(parse(used_once), LIB).use_after_close) == 1
    assert validate_patch(parse(used_once, "g.mj"), parse(used_once, "g.mj"), LIB).ok
    verdict = validate_patch(parse(used_once, "g.mj"), parse(used_twice, "g.mj"), LIB)
    assert verdict.failures == ("UseAfterClose",)


def test_validate_patch_fails_on_output_change():
    changed = GOOD_PATCHED.replace('s.println("x");', 's.println("different");')
    verdict = validate_patch(parse(GOOD, "g.mj"), parse(changed, "g.mj"), LIB)
    assert not verdict.ok and "OutputChanged" in verdict.label


def test_validate_patch_fails_on_surviving_warning():
    original, patched = parse(GOOD, "g.mj"), parse(GOOD, "g.mj")
    (wid,) = surviving = _surviving(original, patched)
    verdict = validate_patch(original, patched, LIB, surviving=surviving)
    assert verdict.failures == (f"WarningSurvives:{wid}",)
    # the static failures come before the interpreter oracle's
    changed = parse(GOOD.replace('s.println("x");', 's.println("y");'), "g.mj")
    verdict = validate_patch(original, changed, LIB, surviving=surviving)
    assert verdict.failures == (f"WarningSurvives:{wid}", "OutputChanged")


def test_validate_patch_fails_on_final_write_violation():
    patched = """class A {
  private final PrintStream s = null;

  A() {
    s = new PrintStream("x");
  }
  static void main() {
  }
}
"""
    original = "class A {\n  static void main() {\n  }\n}\n"
    verdict = validate_patch(parse(original, "g.mj"), parse(patched, "g.mj"), LIB)
    assert not verdict.ok and any(f.startswith("FinalWrites") for f in verdict.failures)
