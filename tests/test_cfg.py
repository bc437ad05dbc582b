"""CFG lowering, try/finally duplication, the adjacency index, and must-alias analysis."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from leakward import cfg as C
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.libspec import load_library_spec
from leakward.parser import parse

LIB = load_library_spec(
    "resource PrintStream { must_call: [close]; method PrintStream(notowning) -> void;"
    " method close() -> void; method println(notowning) -> void; }"
)


def lower_method(src, cls_name, meth_name):
    prog = parse(src, "t.mj")
    cls = prog.class_named(cls_name)
    meth = cls.method_named(meth_name) or next(c for c in cls.constructors)
    return C.lower(prog, cls, meth, LIB)


def test_empty_body_is_single_edge():
    g = lower_method("class A { void m() { } }", "A", "m")
    assert g.edges == [(g.entry, g.exit, C.NORMAL)]


def test_linear_body_shape():
    g = lower_method(
        'class A { void m() { PrintStream s = new PrintStream("f"); s.println("x"); } }', "A", "m"
    )
    kinds = [type(i).__name__ for i in g.nodes]
    assert "Alloc" in kinds and "Invoke" in kinds
    # allocation and call both throw toward the exit
    alloc = kinds.index("Alloc")
    assert (alloc, g.exit, C.EXCEPTIONAL) in g.edges


def test_every_node_reachable_from_entry():
    g = lower_method(
        "class A { void m(String c) { try { PrintStream s = new PrintStream(c); } catch (Exception e) { e.printStackTrace(); } } }",
        "A",
        "m",
    )
    reach = {g.entry}
    work = [g.entry]
    while work:
        n = work.pop()
        for s in g.succs(n):
            if s not in reach:
                reach.add(s)
                work.append(s)
    assert reach == set(range(len(g.nodes)))


def test_exceptional_edge_goes_to_catch_head():
    g = lower_method(
        "class A { void m(String c) { try { PrintStream s = new PrintStream(c); } catch (Exception e) { e.printStackTrace(); } } }",
        "A",
        "m",
    )
    allocs = [i for i, ins in enumerate(g.nodes) if isinstance(ins, C.Alloc)]
    (alloc,) = allocs
    exc_targets = [t for (f, t, k) in g.edges if f == alloc and k == C.EXCEPTIONAL]
    assert exc_targets and all(t != g.exit for t in exc_targets)


TRY_FINALLY_RETURN = """class A {
  void m(String p) {
    String cleanup = "pending";
    try {
      PrintStream s = new PrintStream(p);
      return;
    } finally {
      cleanup = null;
    }
  }
}
"""


def _finally_marker_nodes(g):
    # the finally body is `cleanup = null;`, duplicated per entry path
    return {i for i, ins in enumerate(g.nodes) if isinstance(ins, C.CopyLocal) and ins.dst == "cleanup"}


def test_finally_runs_on_every_path():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    markers = _finally_marker_nodes(g)
    assert len(markers) >= 2  # return path and exceptional path duplicates
    for path in C.acyclic_paths(g):
        assert any(n in markers for n in path), path


def test_finally_removal_disconnects_exit():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    blocked = _finally_marker_nodes(g)
    reach = set()
    work = [g.entry]
    while work:
        n = work.pop()
        if n in reach or n in blocked:
            continue
        reach.add(n)
        work.extend(g.succs(n))
    assert g.exit not in reach


def test_exit_has_no_successors():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    assert g.succs(g.exit) == []


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _all_cfgs(prog, lib):
    for cls in prog.classes:
        for meth in cls.all_methods():
            yield C.lower(prog, cls, meth, lib)


def test_adjacency_index_matches_edge_scan():
    corpus_lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    programs = [(parse(p.read_text(), p.name), corpus_lib) for p in sorted(CORPUS.glob("*.mj"))]
    programs += [(parse(generate_source(seed), "fuzz.mj"), fuzz_libspec()) for seed in range(60)]
    for prog, lib in programs:
        for g in _all_cfgs(prog, lib):
            assert len(set(g.edges)) == len(g.edges), "duplicate edge"
            for n in range(len(g.nodes)):
                for kind in (None, C.NORMAL, C.EXCEPTIONAL):
                    # the reference: a scan over the edge list of record
                    scan_succs = [t for (f, t, k) in g.edges if f == n and (kind is None or k == kind)]
                    scan_preds = [f for (f, t, k) in g.edges if t == n and (kind is None or k == kind)]
                    assert g.succs(n, kind) == scan_succs
                    assert g.preds(n, kind) == scan_preds


# --- must-alias ---


def test_direct_copy_aliases_and_site_tag():
    g = lower_method(
        'class A { void m() { PrintStream a = new PrintStream("f"); PrintStream b = a; b.close(); } }',
        "A",
        "m",
    )
    aliases = C.must_alias(g)
    close = next(i for i, ins in enumerate(g.nodes) if isinstance(ins, C.Invoke) and ins.method == "close")
    group = aliases.aliases_before(close, "b")
    assert {"a", "b"} <= set(group)
    assert aliases.tag_before(close, "b") == ("site", 1)


def test_two_sites_merge_to_no_tag():
    g = lower_method(
        'class A { void m(String c) { PrintStream a = new PrintStream("f"); if (c == null) { a = new PrintStream("g"); } a.println("x"); } }',
        "A",
        "m",
    )
    aliases = C.must_alias(g)
    println = next(i for i, ins in enumerate(g.nodes) if isinstance(ins, C.Invoke) and ins.method == "println")
    assert aliases.tag_before(println, "a") is None


def test_accessor_client_groups_distinct():
    src = """class FileEventProxy {
  private PrintStream scanner;

  FileEventProxy(PrintStream in) {
    scanner = in;
  }
}
class M {
  void m() {
    PrintStream s = new PrintStream("file.txt");
    FileEventProxy proxy = new FileEventProxy(s);
    s.println("x");
  }
}
"""
    g = lower_method(src, "M", "m")
    aliases = C.must_alias(g)
    println = next(i for i, ins in enumerate(g.nodes) if isinstance(ins, C.Invoke) and ins.method == "println")
    assert aliases.tag_before(println, "s") == ("site", 1)
    assert "proxy" not in aliases.aliases_before(println, "s")
    assert aliases.tag_before(println, "proxy") == ("site", 2)


def _enumerate_path_tags(g, local):
    """Path-enumeration oracle: the tag at exit along each acyclic normal path."""
    tags = []
    for path in C.acyclic_paths(g):
        value = ("unset",)
        env = {}
        for n in path:
            ins = g.nodes[n]
            if isinstance(ins, C.Alloc):
                env[ins.dst] = ("site", ins.site)
            elif isinstance(ins, C.CopyLocal):
                env[ins.dst] = env.get(ins.src)
            elif isinstance(ins, C.Const):
                env[ins.dst] = ("null",) if ins.is_null else None
            elif isinstance(ins, (C.LoadField, C.Invoke)) and getattr(ins, "dst", None):
                env[ins.dst] = None
        tags.append(env.get(local))
    return tags


def test_alias_fixpoint_matches_path_meet_on_acyclic_cfg():
    g = lower_method(
        'class A { void m(String c) { PrintStream a = new PrintStream("f"); if (c == null) { a = new PrintStream("g"); } a.println("x"); } }',
        "A",
        "m",
    )
    aliases = C.must_alias(g)
    path_tags = set(_enumerate_path_tags(g, "a"))
    dataflow_tag = aliases.tag_before(g.exit, "a")
    expected = path_tags.pop() if len(path_tags) == 1 else None
    assert dataflow_tag == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_alias_partitions_are_equivalence_relations(seed):
    prog = parse(generate_source(seed), "fuzz.mj")
    lib = fuzz_libspec()
    for cls in prog.classes:
        for meth in cls.all_methods():
            g = C.lower(prog, cls, meth, lib)
            aliases = C.must_alias(g)
            for fact in aliases.before.values():
                seen = set()
                for group in fact.groups:
                    assert not (seen & group), "groups overlap"
                    seen |= group


def test_dot_dump_mentions_every_node():
    g = lower_method("class A { void m() { PrintStream s = new PrintStream(\"f\"); } }", "A", "m")
    dot = g.to_dot()
    for i in range(len(g.nodes)):
        assert f"n{i}" in dot
