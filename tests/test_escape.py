"""Escape routes, field containment, and wrapper classification."""

import pytest

from leakward import cfg as C
from leakward.checker import check_program
from leakward.escape import (
    NOT_A_WRAPPER,
    RESOURCE_ACCESSOR,
    RESOURCE_ALIAS,
    EscapeAnalyzer,
    classify_wrapper,
    escapes,
    field_containment,
)
from leakward.inference import infer_specs
from leakward.libspec import load_library_spec
from leakward.parser import parse
from leakward.pipeline import PipelineConfig, escape_for

LIB = load_library_spec(
    """
resource FileInputStream { must_call: [close]; method FileInputStream(notowning) -> void; method close() -> void; method read() -> notowning; }
resource Socket { must_call: [close]; method Socket() -> void; method close() -> void; method send(notowning) -> void; }
resource Puppeteer { must_call: [finish]; method Puppeteer(notowning) -> void; method finish() -> void; method act(notowning) -> void; }
resource Timer { must_call: []; method Timer(notowning) -> void; method schedule(notowning) -> void; }
resource List { must_call: []; method List() -> void; method add(notowning) -> void; method get(notowning) -> notowning; }
"""
)


def _escape_for_site(src, site, cls_name="Main", meth_name="main"):
    prog = parse(src, "e.mj")
    specs = infer_specs(prog, LIB)
    cls = prog.class_named(cls_name)
    meth = cls.method_named(meth_name)
    g = C.lower(prog, cls, meth, LIB)
    return escapes(site, g, prog, specs, LIB), prog, specs


PROXY = """class FileEventProxy {
  private FileInputStream scanner;

  FileEventProxy(FileInputStream in) {
    scanner = in;
  }
  void hasNextEvent() {
    scanner.read();
  }
}
"""

GETTER_WRAPPER = """class Wrapper {
  private FileInputStream s;

  Wrapper(FileInputStream in) {
    s = in;
  }
  FileInputStream getStream() {
    return s;
  }
}
"""


def test_containment_receiver_only_reads():
    prog = parse(PROXY + "class Main { static void main() { } }")
    specs = infer_specs(prog, LIB)
    assert field_containment("FileEventProxy", "scanner", prog, specs, LIB) is True


def test_containment_fails_via_getter():
    prog = parse(GETTER_WRAPPER + "class Main { static void main() { } }")
    specs = infer_specs(prog, LIB)
    assert field_containment("Wrapper", "s", prog, specs, LIB) is False


def test_containment_vacuous_when_never_read():
    src = """class Sink {
  private Socket dump;

  Sink(Socket s) {
    dump = s;
  }
}
class Main { static void main() { } }
"""
    prog = parse(src)
    assert field_containment("Sink", "dump", prog, None, LIB) is True


def test_containment_requires_private():
    src = """class Open {
  Socket s;

  Open(Socket given) {
    s = given;
  }
}
class Main { static void main() { } }
"""
    prog = parse(src)
    assert field_containment("Open", "s", prog, None, LIB) is False


def test_containment_fails_when_stored_onward():
    src = """class Relay {
  private Socket held;

  Relay(Socket s) {
    held = s;
  }
  void spill(List bag) {
    bag.add(held);
  }
}
class Main { static void main() { } }
"""
    prog = parse(src)
    assert field_containment("Relay", "held", prog, None, LIB) is False


def test_classify_accessor_alias_and_plain():
    alias_src = """class MyWriter {
  private Socket s;

  MyWriter() {
    s = new Socket();
  }
  void close() {
    s.close();
  }
}
"""
    prog = parse(alias_src + PROXY + GETTER_WRAPPER + "class Main { static void main() { } }")
    specs = infer_specs(prog, LIB)
    assert classify_wrapper("MyWriter", prog, specs, LIB).kind == RESOURCE_ALIAS
    assert classify_wrapper("MyWriter", prog, specs, LIB).finalizer == "close"
    assert classify_wrapper("FileEventProxy", prog, specs, LIB).kind == RESOURCE_ACCESSOR
    assert classify_wrapper("Wrapper", prog, specs, LIB).kind == NOT_A_WRAPPER  # containment fails
    assert classify_wrapper("Main", prog, specs, LIB).kind == NOT_A_WRAPPER


def test_alias_and_accessor_disjoint_over_corpus(corpus_sources, libspec):
    for name, text in corpus_sources:
        prog = parse(text, name)
        specs = infer_specs(prog, libspec)
        for cls in prog.classes:
            kind = classify_wrapper(cls.name, prog, specs, libspec).kind
            assert kind in (RESOURCE_ALIAS, RESOURCE_ACCESSOR, NOT_A_WRAPPER)


def test_escape_local_use_only_is_safe():
    src = PROXY + """class Main {
  static void main() {
    FileInputStream s = new FileInputStream("f");
    s.read();
  }
}
"""
    result, _, _ = _escape_for_site(src, 1)
    assert not result.escapes and result.routes == []


def test_escape_to_field_route():
    src = """class Box {
  static Socket kept;
}
class Main {
  static void main() {
    Socket s = new Socket();
    Box.kept = s;
  }
}
"""
    result, _, _ = _escape_for_site(src, 1)
    assert result.escapes and result.routes[0].kind == "ToField"


def test_escape_of_call_returned_value():
    src = """class Box {
  static Socket kept;
}
class Main {
  static Socket open() {
    return new Socket();
  }
  static void main() {
    Socket s = Main.open();
    Box.kept = s;
  }
}
"""
    prog = parse(src, "e.mj")
    specs = infer_specs(prog, LIB)
    g = C.lower(prog, prog.class_named("Main"), prog.class_named("Main").method_named("main"), LIB)
    call = next(i for i, ins in enumerate(g.nodes) if isinstance(ins, C.Invoke) and ins.method == "open")
    result = EscapeAnalyzer(prog, specs, LIB).escapes_from(g, call)
    assert result.escapes and [r.kind for r in result.routes] == ["ToField"]
    (w,) = [w for w in check_program(prog, specs, LIB) if w.anchor_kind == "call"]
    assert escape_for(w, prog, specs, LIB, PipelineConfig()) == result


def test_escape_returned_route():
    src = """class Main {
  static Socket main2() {
    Socket s = new Socket();
    return s;
  }
  static void main() {
  }
}
"""
    prog = parse(src, "e.mj")
    cls = prog.class_named("Main")
    g = C.lower(prog, cls, cls.method_named("main2"), LIB)
    result = escapes(1, g, prog, None, LIB)
    assert result.escapes and result.routes[0].kind == "Returned"


def test_escape_collection_route():
    src = """class Main {
  static void main() {
    List bag = new List();
    Socket s = new Socket();
    bag.add(s);
  }
}
"""
    result, _, _ = _escape_for_site(src, 2)
    assert result.escapes and result.routes[0].kind == "StoredInCollection"


def test_accessor_sink_is_not_an_escape():
    src = PROXY + """class Main {
  static void main() {
    FileInputStream s = new FileInputStream("f");
    FileEventProxy proxy = new FileEventProxy(s);
    proxy.hasNextEvent();
  }
}
"""
    result, _, _ = _escape_for_site(src, 1)
    assert not result.escapes
    assert ("FileEventProxy", RESOURCE_ACCESSOR) in result.wrapper_sinks


def test_escaping_accessor_escapes_transitively():
    src = PROXY + """class Stash {
  static FileEventProxy kept;
}
class Main {
  static void main() {
    FileInputStream s = new FileInputStream("f");
    FileEventProxy proxy = new FileEventProxy(s);
    Stash.kept = proxy;
  }
}
"""
    result, _, _ = _escape_for_site(src, 1)
    assert result.escapes and any(r.kind == "ToField" for r in result.routes)


def test_notowning_library_arg_is_safe_borrow():
    src = """class Main {
  static void main() {
    Socket s = new Socket();
    new Timer("t").schedule(s);
  }
}
"""
    result, _, _ = _escape_for_site(src, 1)
    assert not result.escapes


def test_containment_monotone_conservatism():
    # adding a read that stores the field flips containment to false
    base = PROXY + "class Main { static void main() { } }"
    prog = parse(base)
    assert field_containment("FileEventProxy", "scanner", prog, None, LIB) is True
    stored = PROXY.replace(
        "  void hasNextEvent() {\n    scanner.read();\n  }",
        "  void hasNextEvent() {\n    scanner.read();\n  }\n  void spill(List bag) {\n    bag.add(scanner);\n  }",
    )
    prog2 = parse(stored + "class Main { static void main() { } }")
    assert field_containment("FileEventProxy", "scanner", prog2, None, LIB) is False


def test_unknown_site_raises():
    prog = parse("class Main { static void main() { Socket s = new Socket(); } }", "e.mj")
    cls = prog.class_named("Main")
    g = C.lower(prog, cls, cls.method_named("main"), LIB)
    with pytest.raises(ValueError):
        escapes(99, g, prog, None, LIB)
