"""Escape routes, field containment, and wrapper classification."""

import types

from helpers import corpus_and_fuzz_programs
from leakward import cfg as C
from leakward import escape as E
from leakward import syntax as sx
from leakward.checker import check_program
from leakward.escape import (
    NOT_A_WRAPPER,
    RESOURCE_ACCESSOR,
    RESOURCE_ALIAS,
    EscapeAnalyzer,
)
from leakward.inference import infer_specs
from leakward.libspec import load_library_spec
from leakward.parser import parse
from leakward.repair import Unfixable, plan_fix, screen_fix
from leakward.specs import SpecSet, member_return_ownership

LIB = load_library_spec(
    """
resource FileInputStream { must_call: [close]; method FileInputStream(notowning) -> void; method close() -> void; method read() -> notowning; }
resource Socket { must_call: [close]; method Socket() -> void; method close() -> void; method send(notowning) -> void; }
resource Puppeteer { must_call: [finish]; method Puppeteer(notowning) -> void; method finish() -> void; method act(notowning) -> void; }
resource Timer { must_call: []; method Timer(notowning) -> void; method schedule(notowning) -> void; }
resource List { must_call: []; method List() -> void; method add(notowning) -> void; method get(notowning) -> notowning; }
"""
)


def _analyzer(prog, specs=None):
    return EscapeAnalyzer(prog, specs if specs is not None else SpecSet.from_declared(prog), LIB)


def _escapes_at_site(prog, specs, site, cls_name="Main", meth_name="main"):
    """The analyzer's escape result for the `new` with allocation site `site`."""
    meth = prog.class_named(cls_name).member(meth_name)
    (new,) = [n for n in sx.walk_nodes(meth) if isinstance(n, sx.New) and n.site == site]
    return _analyzer(prog, specs).escapes_at(cls_name, meth_name, new.nid)


def _escape_for_site(src, site):
    prog = parse(src, "e.mj")
    specs = infer_specs(prog, LIB)
    return _escapes_at_site(prog, specs, site), prog, specs


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
    assert _analyzer(prog, specs).field_containment("FileEventProxy", "scanner") is True


def test_containment_fails_via_getter():
    prog = parse(GETTER_WRAPPER + "class Main { static void main() { } }")
    specs = infer_specs(prog, LIB)
    assert _analyzer(prog, specs).field_containment("Wrapper", "s") is False


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
    assert _analyzer(prog).field_containment("Sink", "dump") is True


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
    assert _analyzer(prog).field_containment("Open", "s") is False


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
    assert _analyzer(prog).field_containment("Relay", "held") is False


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
    analyzer = _analyzer(prog, infer_specs(prog, LIB))
    assert analyzer.classify_wrapper("MyWriter").kind == RESOURCE_ALIAS
    assert analyzer.classify_wrapper("MyWriter").finalizer == "close"
    assert analyzer.classify_wrapper("FileEventProxy").kind == RESOURCE_ACCESSOR
    assert analyzer.classify_wrapper("Wrapper").kind == NOT_A_WRAPPER  # containment fails
    assert analyzer.classify_wrapper("Main").kind == NOT_A_WRAPPER


def test_alias_and_accessor_disjoint_over_corpus(corpus_sources, libspec):
    for name, text in corpus_sources:
        prog = parse(text, name)
        analyzer = EscapeAnalyzer(prog, infer_specs(prog, libspec), libspec)
        for cls in prog.classes:
            kind = analyzer.classify_wrapper(cls.name).kind
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
    assert EscapeAnalyzer(prog, specs, LIB).escapes_at("Main", "main", w.ast_nid) == result
    screened = screen_fix(w, EscapeAnalyzer(prog, specs, LIB))
    plan = plan_fix(w, prog, screened, sx.AstIndex(prog))
    assert plan == screened == Unfixable("EscapesToField", detail="Box.kept")


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
    result = _escapes_at_site(prog, None, 1, meth_name="main2")
    assert result.escapes and result.routes[0].kind == "Returned"


def test_escape_reads_every_copy_of_an_allocation_in_a_finally():
    # the finally is lowered once per way out of the try (here normal
    # completion and the return): only one copy reaches the store and the
    # return after the try
    src = """class Box {
  static Socket kept;
}
class Main {
  static Socket m(int c) {
    Socket s = null;
    try {
      if (c == 1) {
        return null;
      }
    } finally {
      s = new Socket();
    }
    Box.kept = s;
    return s;
  }
  static void main() {
  }
}
"""
    prog = parse(src, "e.mj")
    analyzer = _analyzer(prog)
    meth = prog.class_named("Main").member("m")
    (new,) = [n for n in sx.walk_nodes(meth) if isinstance(n, sx.New)]
    result = analyzer.escapes_at("Main", "m", new.nid)
    assert result.escapes and [(r.kind, r.detail) for r in result.routes] == [("ToField", "Box.kept"), ("Returned", "m")]
    g = analyzer.version.cfg(prog.class_named("Main"), meth)
    per_copy = [analyzer.escapes_from(g, n).routes for n in g.copies(new.nid)]
    assert len(per_copy) == 2 and per_copy[0] == []  # the return path's copy comes first


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
    assert _analyzer(prog).field_containment("FileEventProxy", "scanner") is True
    stored = PROXY.replace(
        "  void hasNextEvent() {\n    scanner.read();\n  }",
        "  void hasNextEvent() {\n    scanner.read();\n  }\n  void spill(List bag) {\n    bag.add(scanner);\n  }",
    )
    prog2 = parse(stored + "class Main { static void main() { } }")
    assert _analyzer(prog2).field_containment("FileEventProxy", "scanner") is False


def test_unknown_node_has_no_escape_result():
    prog = parse("class Main { static void main() { Socket s = new Socket(); } }", "e.mj")
    analyzer = _analyzer(prog)
    assert analyzer.escapes_at("Main", "main", 10**9) is None
    assert analyzer.escapes_at("Main", "ghost", 1) is None
    assert analyzer.escapes_at("Ghost", "main", 1) is None


def _full_scan_routes(self, cfg, start_node, start_local, visited_wrappers):
    """`EscapeAnalyzer._collect_routes` as a scan of every node of the CFG,
    with the method's return ownership read at each tainted return."""
    facts, bit = cfg.taint_of(start_node, start_local)
    routes, sinks, seen = [], [], set()

    def add(kind, detail):
        r = E.Route(kind, detail)
        if r not in seen:
            seen.add(r)
            routes.append(r)

    for node, instr in enumerate(cfg.nodes):
        fact = facts[node]
        if isinstance(instr, C.StoreField) and fact.get(instr.src, 0) & bit:
            add(E.TO_FIELD, f"{instr.field_class}.{instr.field}")
        elif isinstance(instr, C.ReturnVal) and fact.get(instr.src, 0) & bit:
            if member_return_ownership(self.program, cfg.class_name, cfg.method_name) != "notowning":
                add(E.RETURNED, cfg.method_name)
        elif isinstance(instr, (C.Invoke, C.Alloc)):
            positions = [i for i, a in enumerate(instr.args) if fact.get(a, 0) & bit]
            if not positions:
                continue
            if isinstance(instr, C.Invoke):
                self._route_invoke(instr, positions, add)
            elif not self._wrapper_sink(cfg, node, instr, positions, visited_wrappers, sinks, add):
                for i in positions:
                    self._route_library_ctor(instr, i, add)
    return routes, sinks


def test_the_sink_list_scan_finds_the_routes_a_full_node_scan_finds():
    """Every allocation and call result of the corpus and generate_source(0..59),
    wrapper recursion and containment included: the reference analyzer scans
    every node at every level."""
    queries, wrapped = 0, 0
    for prog, lib in corpus_and_fuzz_programs():
        specs = infer_specs(prog, lib)
        fast = EscapeAnalyzer(prog, specs, lib)
        full = EscapeAnalyzer(prog, specs, lib)
        full._collect_routes = types.MethodType(_full_scan_routes, full)
        for cls in prog.classes:
            for meth in cls.all_methods():
                cfg = fast.version.cfg(cls, meth)
                assert full.version.cfg(cls, meth) is cfg
                stores_and_returns = (C.StoreField, C.ReturnVal)
                assert list(cfg.sinks) == [
                    n
                    for n, ins in enumerate(cfg.nodes)
                    if isinstance(ins, stores_and_returns) or (isinstance(ins, (C.Alloc, C.Invoke)) and ins.args)
                ]
                for n, ins in enumerate(cfg.nodes):
                    if isinstance(ins, (C.Alloc, C.Invoke)) and ins.dst:
                        result = fast.escapes_from(cfg, n)
                        assert result == full.escapes_from(cfg, n), (prog.source_name, n)
                        queries += 1
                        wrapped += bool(result.wrapper_sinks)
    assert queries > 250 and wrapped > 0
