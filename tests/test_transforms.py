"""The three code transformations and their semantic-preservation guarantees."""

import copy

from leakward.checker import check_program, reject_final_writes
from leakward import syntax as sx
from leakward.interp import has_main, run
from leakward.libspec import load_library_spec
from leakward.memo import version_of
from leakward.parser import parse
from leakward.pipeline import run_pipeline
from leakward.printer import pretty_print
from leakward.specs import SpecSet
from leakward.transforms import field_to_local, finalize_fields, inject_finalizers

LIB = load_library_spec(
    """
resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void; method close() -> void; method println(notowning) -> void; }
resource ServerSocket { must_call: [close]; method ServerSocket(notowning) -> void; method close() -> void; method accept() -> notowning; }
"""
)

FINAL_TRY = """class SocketHolder {
  private ServerSocket serverSocket;

  SocketHolder(int port) {
    try {
      serverSocket = new ServerSocket(port);
    } catch (Exception e) {
      e.printStackTrace();
    }
  }
}
"""


def test_finalize_try_catch_temp_rewrite():
    prog = parse(FINAL_TRY, "f.mj")
    _, log = finalize_fields(prog, LIB)
    text = pretty_print(prog)
    assert "private final ServerSocket serverSocket;" in text
    assert "= null;" in text and "} finally {" in text
    assert "serverSocket = " in text.split("finally")[1]
    assert reject_final_writes(prog, LIB) == []
    assert [e.transform for e in log.entries] == ["finalize_field"]


def test_finalize_simple_ctor_assignment():
    src = """class H {
  private PrintStream s;

  H() {
    s = new PrintStream("f");
  }
}
"""
    prog = parse(src)
    finalize_fields(prog, LIB)
    assert "private final PrintStream s;" in pretty_print(prog)
    assert "finally" not in pretty_print(prog)


def test_finalize_skips_field_written_twice():
    src = """class H {
  private PrintStream s;

  void a() {
    s = new PrintStream("a");
  }
  void b() {
    s = new PrintStream("b");
  }
}
"""
    prog = parse(src)
    before = pretty_print(prog)
    _, log = finalize_fields(prog, LIB)
    assert pretty_print(prog) == before and not log.entries


def test_finalize_skips_conditional_ctor_write():
    src = """class H {
  private PrintStream s;

  H(String c) {
    if (c == null) {
      s = new PrintStream("x");
    }
  }
}
"""
    prog = parse(src)
    before = pretty_print(prog)
    _, log = finalize_fields(prog, LIB)
    assert pretty_print(prog) == before and not log.entries


def test_finalize_skips_ctor_that_never_writes():
    src = """class H {
  private PrintStream s;

  H() {
    s = new PrintStream("x");
  }
  H(String other) {
  }
}
"""
    prog = parse(src)
    before = pretty_print(prog)
    _, log = finalize_fields(prog, LIB)
    assert pretty_print(prog) == before and not log.entries


def test_finalize_idempotent():
    prog = parse(FINAL_TRY, "f.mj")
    _, log1 = finalize_fields(prog, LIB)
    once = pretty_print(prog)
    _, log2 = finalize_fields(prog, LIB)
    assert log1.entries and pretty_print(prog) == once and not log2.entries


def test_finalize_ignores_a_store_to_another_class_field_of_the_same_name(libspec):
    # B.f shares A.f's name; `b.f = null;` writes B's field, so A.f stays
    # finalizable, as it is without m
    src = """class B {
  FileInputStream f;
}
class A {
  private FileInputStream f;

  A(String p) {
    f = new FileInputStream(p);
  }
  void m(B b) {
    b.f = null;
  }
  static void main() {
    A a = new A("x");
  }
}
"""
    without_m = src.replace("  void m(B b) {\n    b.f = null;\n  }\n", "")
    for text in (src, without_m):
        prog = parse(text)
        _, log = finalize_fields(prog, libspec)
        assert [(e.transform, e.class_name, e.member) for e in log.entries] == [("finalize_field", "A", "f")]
        assert "private final FileInputStream f;" in pretty_print(prog)
    a = parse(src).classes[1]
    m = a.method_named("m")
    assert sx.stores_to_field(a, m, "A", "f") == [] and sx.stores_to_field(a, m, "B", "f") == m.body.stmts


DEMOTE = """class Journal {
  private PrintStream sink;

  void record(String entry) {
    sink = new PrintStream("journal.log");
    sink.println(entry);
  }
}
class JournalMain {
  static void main() {
    Journal j = new Journal();
    j.record("first");
    j.record("second");
  }
}
"""


def test_field_to_local_demotes_single_method_field():
    prog = parse(DEMOTE, "d.mj")
    _, log = field_to_local(prog)
    text = pretty_print(prog)
    assert "private PrintStream sink;" not in text
    assert 'PrintStream sink = new PrintStream("journal.log");' in text
    assert [e.transform for e in log.entries] == ["field_to_local"]


def test_field_to_local_skips_two_readers():
    src = DEMOTE.replace(
        "}\nclass JournalMain",
        "  void echo() {\n    sink.println(\"again\");\n  }\n}\nclass JournalMain",
    )
    prog = parse(src)
    before = pretty_print(prog)
    _, log = field_to_local(prog)
    assert pretty_print(prog) == before and not log.entries


def test_field_to_local_requires_write_before_reads():
    src = """class J {
  private PrintStream sink;

  void record(String entry) {
    sink.println(entry);
    sink = new PrintStream("late");
  }
}
"""
    prog = parse(src)
    before = pretty_print(prog)
    _, log = field_to_local(prog)
    assert pretty_print(prog) == before and not log.entries


def test_field_to_local_rewrites_this_references():
    src = """class J {
  private PrintStream sink;

  void record(String entry) {
    this.sink = new PrintStream("log");
    this.sink.println(entry);
  }
}
"""
    prog = parse(src)
    _, log = field_to_local(prog)
    text = pretty_print(prog)
    assert "this.sink" not in text and "sink.println" in text
    assert log.entries


def test_transform_semantic_preservation_on_demote():
    prog = parse(DEMOTE, "d.mj")
    before = run(prog, LIB)
    field_to_local(prog)
    assert run(prog, LIB) == before


def test_transform_semantic_preservation_on_finalize():
    src = FINAL_TRY + """class M {
  static void main() {
    SocketHolder h = new SocketHolder(80);
  }
}
"""
    prog = parse(src, "f.mj")
    before = run(prog, LIB)
    finalize_fields(prog, LIB)
    assert run(prog, LIB) == before



def test_field_to_local_skips_field_whose_first_store_is_nested(libspec):
    # the top-level store equals the nested one structurally; only the nested
    # one is the first write, so demoting would leave it writing an unbound name
    src = """class Holder {
  private FileInputStream f;

  void open(String p) {
    if (p != null) {
      f = new FileInputStream(p);
    }
    f = new FileInputStream(p);
    f.close();
  }
}
"""
    prog = parse(src, "nested_store.mj")
    before = pretty_print(prog)
    _, log = field_to_local(prog)
    assert not log.entries and pretty_print(prog) == before
    check_program(prog, SpecSet.from_declared(prog), libspec)  # still lowers: f resolves
    assert run_pipeline([("nested_store.mj", src)], libspec).errors == []


def test_finalize_temp_rewrite_in_nested_try(libspec):
    src = """class Holder {
  private FileInputStream f;

  Holder(String p) {
    if (p != null) {
      try {
        f = new FileInputStream(p);
      } finally {
        p = null;
      }
    } else {
      f = null;
    }
  }
}
"""
    main = """class M {
  static void main() {
    Holder a = new Holder("in.txt");
    Holder b = new Holder(null);
  }
}
"""
    prog = parse(src + main, "nested_try.mj")
    before = run(prog, libspec)
    _, log = finalize_fields(prog, libspec)
    assert "private final FileInputStream f;" in pretty_print(prog)
    assert [e.meta for e in log.entries] == [{"temp_rewrites": 1}]
    # the temp is declared in the try's own block, the then branch
    then_block = prog.class_named("Holder").constructors[0].body.stmts[0].then_block
    temp, try_stmt = then_block.stmts
    assert isinstance(temp, sx.LocalDecl) and isinstance(try_stmt, sx.Try)
    copy_back = try_stmt.finally_block.stmts[-1]
    assert copy_back == sx.Assign(target=sx.VarRef(name="f"), value=sx.VarRef(name=temp.name))
    assert reject_final_writes(prog, libspec) == []
    assert run(prog, libspec) == before
    report = run_pipeline([("nested_try.mj", src)], libspec)
    assert report.errors == [] and report.exit_code == 0


TEMPFILE_SRC = """class TempFileWriter {
  private PrintStream stream;

  TempFileWriter(String path) {
    stream = new PrintStream(path);
  }
  void resetStream(String path) {
    stream = new PrintStream(path);
  }
  void printSomething() {
    stream.println("hello");
  }
}
class Client {
  static void print() {
    TempFileWriter tmp = new TempFileWriter("f.txt");
    tmp.printSomething();
  }
  static void main() {
    Client.print();
  }
}
"""


def test_inject_finalizer_on_tempfile_writer():
    prog = parse(TEMPFILE_SRC, "tempfile.mj")
    specs = SpecSet.from_declared(prog)
    warnings = check_program(prog, specs, LIB)
    _, log = inject_finalizers(prog, warnings, specs, LIB)
    text = pretty_print(prog)
    assert "class TempFileWriter implements AutoCloseable {" in text
    assert "public void close() {" in text
    assert "stream.close();" in text
    entry = log.entries[0]
    assert entry.transform == "inject_finalizer" and entry.meta["fields"] == ["stream"]
    assert entry.meta["warning_ids"]["stream"]  # driving warning recorded for the shift map


def test_an_injected_close_calls_close_first_then_the_rest_by_name():
    # the order a repair calls finalizers in, also when a method sorts before close
    lib = load_library_spec(
        "resource Recorder { must_call: [close, abort, flush]; method Recorder(notowning) -> void;"
        " method close() -> void; method abort() -> void; method flush() -> void; }"
    )
    prog = parse(TEMPFILE_SRC.replace("PrintStream", "Recorder").replace('stream.println("hello")', "stream.flush()"), "t.mj")
    specs = SpecSet.from_declared(prog)
    _, log = inject_finalizers(prog, check_program(prog, specs, lib), specs, lib)
    assert log.entries and "stream.close();\n    stream.abort();\n    stream.flush();" in pretty_print(prog)


def test_inject_skips_class_with_existing_close():
    src = TEMPFILE_SRC.replace(
        "  void printSomething() {",
        "  void close() {\n    stream.close();\n  }\n  void printSomething() {",
    )
    prog = parse(src, "tempfile.mj")
    specs = SpecSet.from_declared(prog)
    warnings = check_program(prog, specs, LIB)
    before = pretty_print(prog)
    _, log = inject_finalizers(prog, warnings, specs, LIB)
    assert pretty_print(prog) == before and not log.entries


def test_inject_requires_a_warning():
    # same shape but the constructor's stream is closed: no warning, no injection
    src = """class Quiet {
  private PrintStream stream;

  Quiet(String path) {
    stream = new PrintStream(path);
    stream.close();
  }
}
class M {
  static void main() {
    Quiet q = new Quiet("f");
  }
}
"""
    prog = parse(src)
    specs = SpecSet.from_declared(prog)
    warnings = check_program(prog, specs, LIB)
    _, log = inject_finalizers(prog, warnings, specs, LIB)
    assert not log.entries


def test_inject_guards_when_not_assigned_in_every_ctor():
    src = """class Sometimes {
  private PrintStream stream;

  Sometimes(String path) {
    stream = new PrintStream(path);
  }
  Sometimes(String path, String mode) {
    if (mode == null) {
      stream = new PrintStream(path);
    }
  }
}
class M {
  static void main() {
    Sometimes s = new Sometimes("f");
  }
}
"""
    prog = parse(src)
    specs = SpecSet.from_declared(prog)
    warnings = check_program(prog, specs, LIB)
    _, log = inject_finalizers(prog, warnings, specs, LIB)
    text = pretty_print(prog)
    assert "if (stream != null) {" in text
    assert log.entries and log.entries[0].meta["guarded"] == ["stream"]


def test_inject_guards_a_field_a_constructor_may_set_to_null(libspec):
    # each path writes f once, but one write stores null: close() needs the guard
    src = """class Holder {
  private FileInputStream f;

  Holder(String p) {
    if (p != null) {
      f = new FileInputStream(p);
    } else {
      f = null;
    }
  }
  static void main() {
    Holder h = new Holder(null);
  }
}
"""
    report = run_pipeline([("holder.mj", src)], libspec)
    assert report.exit_code == 0 and report.errors == []
    fr = report.files["holder.mj"]
    assert "    if (f != null) {\n      f.close();\n    }" in pretty_print(fr.transformed)
    assert [e.meta["guarded"] for e in fr.edit_log.entries if e.transform == "inject_finalizer"] == [["f"]]
    assert fr.verdict.ok


def test_injection_is_behavior_neutral_until_called():
    prog = parse(TEMPFILE_SRC, "tempfile.mj")
    specs = SpecSet.from_declared(prog)
    warnings = check_program(prog, specs, LIB)
    before = run(prog, LIB)
    _, log = inject_finalizers(prog, warnings, specs, LIB)
    assert log.entries and run(prog, LIB) == before


def test_corpus_transforms_preserve_interpreter_reports(corpus_sources, libspec):
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
        assert reject_final_writes(prog, libspec) == [], name


def test_the_transforms_edit_the_program_they_are_given():
    # each returns its edit log, with the program it was given, edited, or,
    # given a program to analyse, that program's version as it now is
    def inject(prog):
        specs = SpecSet.from_declared(prog)
        return inject_finalizers(prog, check_program(prog, specs, LIB), specs, LIB)

    for text, transform in ((FINAL_TRY, lambda p: finalize_fields(p, LIB)), (DEMOTE, field_to_local), (TEMPFILE_SRC, inject)):
        prog = parse(text, "t.mj")
        out, log = transform(prog)
        assert version_of(out, LIB).program is prog and log.entries
        assert pretty_print(prog) != pretty_print(parse(text, "t.mj"))
