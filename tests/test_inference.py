"""Specification inference and annotation writing."""

import pytest

from leakward import inference
from leakward.checker import check_program, filter_constructor_first_writes
from leakward.errors import AnnotationConflict
from leakward.inference import infer_specs, write_specs
from leakward.libspec import load_library_spec
from leakward.parser import parse
from leakward.printer import pretty_print
from leakward.specs import SpecSet

LIB = load_library_spec(
    """
resource PrintWriter { must_call: [close]; method PrintWriter(notowning) -> void; method close() -> void; method println(notowning) -> void; }
resource Socket { must_call: [close]; method Socket() -> void; method close() -> void; method send(notowning) -> void; }
"""
)

WRITER_SRC = """class MyWriter {
  private PrintWriter pw;

  MyWriter(String path) {
    pw = new PrintWriter(path);
  }
  void close() {
    pw.close();
  }
}
class Client {
  static void use() {
    MyWriter writer = new MyWriter("f.txt");
  }
  static void main() {
    Client.use();
  }
}
"""


def test_writer_inference_results():
    prog = parse(WRITER_SRC, "writer_wrapper.mj")
    specs = infer_specs(prog, LIB)
    assert specs.field_ownership[("MyWriter", "pw")] == "owning"
    assert specs.class_mustcall["MyWriter"] == frozenset({"close"})
    entries = specs.method_ensures[("MyWriter", "close")]
    assert [(e.field_name, e.methods) for e in entries] == [("pw", ("close",))]


def test_writer_annotated_print_positions():
    prog = parse(WRITER_SRC, "writer_wrapper.mj")
    write_specs(prog, infer_specs(prog, LIB))
    text = pretty_print(prog)
    lines = text.splitlines()
    assert lines[0] == '@MustCall("close")'
    assert lines[2] == "  @Owning private PrintWriter pw;"
    assert lines[6] == '  @EnsuresCalledMethods(value="pw", methods="close")'


def test_no_resource_fields_means_no_deltas():
    prog = parse("class Plain { private String tag; void poke() { } }")
    specs = infer_specs(prog, LIB)
    assert not specs.field_ownership and not specs.class_mustcall


def test_shutdown_named_finalizer():
    src = """class Channel {
  private Socket link;

  Channel() {
    link = new Socket();
  }
  void shutdown() {
    link.close();
  }
}
"""
    specs = infer_specs(parse(src), LIB)
    assert specs.class_mustcall["Channel"] == frozenset({"shutdown"})
    assert specs.field_ownership[("Channel", "link")] == "owning"


def test_null_guarded_disposal_counts():
    src = """class Guarded {
  private Socket s;

  Guarded() {
    s = new Socket();
  }
  void close() {
    if (s != null) {
      s.close();
    }
  }
}
"""
    specs = infer_specs(parse(src), LIB)
    assert specs.field_ownership[("Guarded", "s")] == "owning"


def test_each_method_is_checked_once_per_round(monkeypatch):
    src = """class Pair {
  private Socket a;
  private Socket b;

  Pair() {
    a = new Socket();
    b = new Socket();
  }
  void close() {
    a.close();
    b.close();
  }
}
"""
    checked = []
    original = inference.method_run

    def counting(version, cls, meth, specs):
        checked.append((cls.name, meth.name, specs.to_json_text()))
        return original(version, cls, meth, specs)

    monkeypatch.setattr(inference, "method_run", counting)
    specs = infer_specs(parse(src), LIB)
    assert specs.field_ownership[("Pair", "a")] == specs.field_ownership[("Pair", "b")] == "owning"
    # two candidate fields, yet one checker run per method and round
    assert checked == [("Pair", "close", SpecSet().to_json_text()), ("Pair", "close", specs.to_json_text())]


def test_conditional_disposal_does_not_count():
    src = """class Flaky {
  private Socket s;

  Flaky() {
    s = new Socket();
  }
  void close(String mode) {
    if (mode == null) {
      s.close();
    }
  }
}
"""
    specs = infer_specs(parse(src), LIB)
    assert ("Flaky", "s") not in specs.field_ownership


def test_only_private_fields_are_eligible():
    src = """class Exposed {
  Socket s;

  Exposed() {
    s = new Socket();
  }
  void close() {
    s.close();
  }
}
"""
    specs = infer_specs(parse(src), LIB)
    assert ("Exposed", "s") not in specs.field_ownership


def test_finalizer_selection_prefers_largest_then_close():
    src = """class Two {
  private Socket a;
  private Socket b;

  Two() {
    a = new Socket();
    b = new Socket();
  }
  void closeA() {
    a.close();
  }
  void close() {
    a.close();
    b.close();
  }
}
"""
    specs = infer_specs(parse(src), LIB)
    assert specs.class_mustcall["Two"] == frozenset({"close"})
    assert specs.field_ownership[("Two", "a")] == "owning"
    assert specs.field_ownership[("Two", "b")] == "owning"


def test_wrapper_of_wrapper_fixed_point():
    src = """class Inner {
  private Socket s;

  Inner() {
    s = new Socket();
  }
  void shutdown() {
    s.close();
  }
}
class Outer {
  private Inner inner;

  Outer() {
    inner = new Inner();
  }
  void close() {
    inner.shutdown();
  }
}
"""
    specs = infer_specs(parse(src), LIB)
    assert specs.class_mustcall["Inner"] == frozenset({"shutdown"})
    assert specs.class_mustcall["Outer"] == frozenset({"close"})
    assert specs.field_ownership[("Outer", "inner")] == "owning"


def test_declared_annotations_win():
    src = """@MustCall("shutdown")
class Fixed {
  @NotOwning private Socket s;

  Fixed() {
    s = new Socket();
  }
  void shutdown() {
    s.close();
  }
  void close() {
    s.close();
  }
}
"""
    prog = parse(src)
    specs = infer_specs(prog, LIB)
    assert specs.class_mustcall["Fixed"] == frozenset({"shutdown"})
    assert specs.ownership("Fixed", "s") == "notowning"
    # and write_specs must keep the declared text verbatim
    write_specs(prog, specs)
    out = pretty_print(prog)
    assert out.count('@MustCall("shutdown")') == 1
    assert "@NotOwning private Socket s;" in out


def test_write_specs_idempotent_and_empty_noop():
    prog = parse(WRITER_SRC, "writer_wrapper.mj")
    specs = infer_specs(prog, LIB)
    bare = pretty_print(prog)
    write_specs(prog, SpecSet.from_declared(prog))
    assert pretty_print(prog) == bare
    write_specs(prog, specs)
    once = pretty_print(prog)
    write_specs(prog, specs)
    assert once != bare and pretty_print(prog) == once


def test_write_specs_conflict_detected():
    prog = parse('@MustCall("close")\nclass W { void close() { } }')
    foreign = SpecSet()
    foreign.class_mustcall["W"] = frozenset({"shutdown"})
    with pytest.raises(AnnotationConflict):
        write_specs(prog, foreign)


def test_inference_shifts_warning_not_loses_it():
    prog = parse(WRITER_SRC, "writer_wrapper.mj")
    bare = SpecSet.from_declared(prog)
    before = check_program(prog, bare, LIB)
    specs = infer_specs(prog, LIB)
    after = filter_constructor_first_writes(check_program(prog, specs, LIB), prog)
    assert [(w.line, w.resource_class) for w in before] == [(5, "PrintWriter")]
    assert [(w.line, w.resource_class) for w in after] == [(13, "MyWriter")]
