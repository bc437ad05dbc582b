"""CFG lowering, its name errors, try/finally duplication, the lean node set, literal operands, the adjacency index, field stores, the dataflow solver, and must-alias analysis."""

import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CORPUS,
    NESTING_LIBSPEC,
    acyclic_paths,
    corpus_and_fuzz_programs,
    corpus_mutants,
    nesting_source,
    wide_method_source,
)
from leakward import cfg as C
from leakward import checker as K
from leakward import escape as E
from leakward import memo
from leakward import syntax as sx
from leakward.errors import FILE_ERRORS
from leakward.errors import SyntaxError as MiniJSyntaxError
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.interp import run as interp_run
from leakward.libspec import load_library_spec
from leakward.parser import parse
from leakward.specs import SpecReader, SpecSet

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
    # the finally body is `cleanup = null;`, duplicated per entry path: each
    # duplicate defines `cleanup`, by a null Const or, at the end of an
    # exception path, by a copy of a null temporary
    defs = [i for i, ins in enumerate(g.nodes) if "cleanup" in C.instr_defs(ins)]
    return {i for i in defs if getattr(g.nodes[i], "src", "") != '"pending"'}


def test_finally_runs_on_every_path():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    markers = _finally_marker_nodes(g)
    assert len(markers) >= 2  # return path and exceptional path duplicates
    for path in acyclic_paths(g):
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


TRY_FINALLY_COPIES = """class A {
  static PrintStream keep;
  static int m(int c) {
    PrintStream s = null;
    try {
      if (c == 1) {
        return 1;
      }
      keep.println("x");
    } finally {
      s = new PrintStream("a");
    }
    keep = s;
    return 0;
  }
}
"""


def test_copies_lists_every_lowering_of_a_finally_allocation_in_node_order():
    prog = parse(TRY_FINALLY_COPIES, "t.mj")
    cls = prog.class_named("A")
    meth = cls.method_named("m")
    g = C.lower(prog, cls, meth, LIB)
    (new,) = [e for e in sx.walk_exprs(meth.body) if isinstance(e, sx.New)]
    copies = g.copies(new.nid)
    assert copies == tuple(n for n, ins in enumerate(g.nodes) if isinstance(ins, C.Alloc))
    assert len(copies) == 3 and list(copies) == sorted(copies)
    (store,) = [n for n, ins in enumerate(g.nodes) if isinstance(ins, C.StoreField)]

    def way_out(n):
        after = g.reachable(g.succs(n, C.NORMAL), C.NORMAL)
        return "normal" if store in after else "return" if g.exit in after else "exceptional"

    assert sorted(map(way_out, copies)) == ["exceptional", "normal", "return"]
    assert g.copies(-2) == () and g.copies(meth.nid) == ()


def test_exit_has_no_successors():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    assert g.succs(g.exit) == ()


@pytest.mark.parametrize(
    "method, error",
    [
        # a duplicate in one block is reported at the second declaration
        ("void m() {\n PrintStream s = null;\n PrintStream s = null;\n}", (4, 2, "duplicate local s")),
        ("void m(String c) {\n if (c != null) {\n PrintStream s = null;\n PrintStream s = null;\n }\n}", (5, 2, "duplicate local s")),
        # the same name in sibling or nested blocks, or over a parameter or a catch variable
        ("void m(String c) {\n if (c != null) { PrintStream s = null; } else { PrintStream s = null; }\n PrintStream s = null;\n}", None),
        ("void m(String c) {\n PrintStream s = null;\n while (c != null) { PrintStream s = null; }\n}", None),
        ("void m(PrintStream p) {\n PrintStream p = null;\n}", None),
        ('void m() {\n try { PrintStream s = new PrintStream("f"); }\n catch (Exception e) { PrintStream e = null; }\n}', None),
        # a name is in scope to the end of its block only
        ("void m(String c) {\n if (c != null) { PrintStream s = null; }\n s.close();\n}", (4, 2, "unresolved name s")),
        ('void m() {\n try { PrintStream s = new PrintStream("f"); } catch (Exception e) { }\n e.close();\n}', (4, 2, "unresolved name e")),
        ("static void m() {\n A a = this;\n}", (3, 8, "this is not available in a static context")),
        ("void m() {\n PrintStream s = q;\n}", (3, 18, "unresolved name q")),
        # code after a return is never lowered, so its duplicate is not reported
        ("void m() {\n PrintStream s = null;\n return;\n PrintStream s = null;\n}", None),
    ],
)
def test_lowering_name_errors(method, error):
    src = "class A {\n" + method + "\n}"
    prog = parse(src, "t.mj")
    cls = prog.classes[0]
    if error is None:
        C.lower(prog, cls, cls.methods[0], LIB)
        return
    with pytest.raises(MiniJSyntaxError) as info:
        C.lower(prog, cls, cls.methods[0], LIB)
    assert (info.value.line, info.value.col, info.value.message) == error


# a block-scoped `A x` shadows the parameter `B x`: reads and writes through
# it are typed by the declaration in scope, not by the method's first `x`
SHADOWED_RECEIVER = """class B {
  FileInputStream f;
  B next() {
    return null;
  }
}
class A {
  FileInputStream f;
  A next() {
    return null;
  }
  void m(B x) {
    if (x == null) {
      A x = new A();
      x.f = null;
      FileInputStream g = x.f;
      A y = x.next();
    }
    x.f = null;
  }
}
"""


def test_a_shadowing_local_types_its_own_uses():
    g = lower_method(SHADOWED_RECEIVER, "A", "m")
    stores = [ins.field_class for ins in g.nodes if isinstance(ins, C.StoreField)]
    loads = [ins.field_class for ins in g.nodes if isinstance(ins, C.LoadField)]
    calls = [ins for ins in g.nodes if isinstance(ins, C.Invoke)]
    assert stores == ["A", "B"] and loads == ["A"]
    # the call is to A.next, and its result gets a temporary of A.next's return type
    assert [(ins.owner, g.local_types[ins.dst]) for ins in calls] == [("A", "A")]


def _all_cfgs(prog, lib):
    """(class, member, CFG) of every member of `prog`."""
    for cls in prog.classes:
        for meth in cls.all_methods():
            yield cls, meth, C.lower(prog, cls, meth, lib)


def test_adjacency_index_matches_edge_scan():
    for prog, lib in corpus_and_fuzz_programs():
        for _cls, _meth, g in _all_cfgs(prog, lib):
            assert len(set(g.edges)) == len(g.edges), "duplicate edge"
            for n in range(len(g.nodes)):
                # the reference: a scan over the edge list of record
                assert g.preds(n) == tuple(f for (f, t, _k) in g.edges if t == n)
                for kind in (None, C.NORMAL, C.EXCEPTIONAL):
                    scan_succs = [t for (f, t, k) in g.edges if f == n and (kind is None or k == kind)]
                    assert g.succs(n, kind) == tuple(scan_succs)


def test_a_node_with_no_exceptional_out_edge_shares_its_successor_tuple():
    """The memo keeps every lowering of a program family, so the index
    keeps one successor tuple per node where it can: a node with no
    exceptional out-edge has its any-kind tuple as its normal one."""
    shared = 0
    for prog, lib in corpus_and_fuzz_programs():
        for _cls, _meth, g in _all_cfgs(prog, lib):
            thrown = {f for (f, _t, k) in g.edges if k == C.EXCEPTIONAL}
            for n in range(len(g.nodes)):
                if n not in thrown:
                    assert g.succs(n, C.NORMAL) is g.succs(n) and g.succs(n, C.EXCEPTIONAL) == ()
                    shared += 1
    assert shared > 500


def test_rpo_is_a_fresh_list_each_call():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    order = g.rpo()
    assert order[0] == g.entry and sorted(order) == sorted(g.reachable([g.entry]))
    order.reverse()
    order.append(-1)
    assert g.rpo() == list(reversed(order[:-1]))


def test_field_stores_finds_the_stores_a_path_may_run_twice():
    src = (
        "class A { private PrintStream f; private PrintStream g;"
        " A(String p) { g = null; while (p != null) { f = null; } }"
        " void m(String p) { f = null; if (p != null) { f = null; } g = null; } }"
    )
    for meth, f_stores in (("<init>", 1), ("m", 2)):
        g = lower_method(src, "A", meth)
        stores, doubled = g.field_stores("A", "f")
        assert all(isinstance(g.nodes[n], C.StoreField) and g.nodes[n].field == "f" for n in stores)
        # in `<init>` the store inside the `while` reaches itself; in `m` the first store reaches the second
        assert len(stores) == f_stores and doubled == set(stores)
        stores, doubled = g.field_stores("A", "g")
        assert len(stores) == 1 and doubled == set()
        assert g.field_stores("B", "f") == ([], set())


# --- the worklist solver against the round-robin loops it replaced ---


def _round_robin_liveness(cfg):
    """Liveness where a throwing node's def happens on its normal edges only."""
    live_in = {n: frozenset() for n in range(len(cfg.nodes))}
    changed = True
    while changed:
        changed = False
        for n in range(len(cfg.nodes) - 1, -1, -1):
            ins = cfg.nodes[n]
            out = frozenset().union(*(live_in[s] for s in cfg.succs(n, C.NORMAL)))
            thrown = frozenset().union(*(live_in[s] for s in cfg.succs(n, C.EXCEPTIONAL)))
            if not isinstance(ins, (C.Alloc, C.Invoke)):
                out, thrown = out | thrown, frozenset()
            new_in = frozenset(C.instr_uses(ins)) | (out - frozenset(C.instr_defs(ins))) | thrown
            if new_in != live_in[n]:
                live_in[n] = new_in
                changed = True
    return live_in


def _round_robin_must_alias(cfg):
    """Must-alias where a throwing node's def happens on its normal edges only."""
    locals_ = sorted(cfg.local_types)
    init = C._fact_from_parts({name: i for i, name in enumerate(locals_)}, {})
    before = {cfg.entry: init}
    after = {}
    edges = {}  # (node, successor) -> the fact on that edge
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for n in order:
            preds = cfg.preds(n)
            if preds:
                facts = [edges[(p, n)] for p in preds if (p, n) in edges]
                if not facts:
                    continue
                fact = facts[0]
                for f in facts[1:]:
                    fact = C._alias_meet(fact, f, locals_)
            else:
                if n != cfg.entry:
                    continue
                fact = init
            if before.get(n) != fact:
                before[n] = fact
                changed = True
            ins = cfg.nodes[n]
            out = C._alias_transfer(fact, ins, locals_, n)
            if after.get(n) != out:
                after[n] = out
                changed = True
            normal = cfg.succs(n, C.NORMAL)
            for s in cfg.succs(n):
                edge = fact if isinstance(ins, (C.Alloc, C.Invoke)) and s not in normal else out
                if edges.get((n, s)) != edge:
                    edges[(n, s)] = edge
                    changed = True
    return before, after


def _taint_step(instr, taint):
    """One start's taint through one instruction, written out on sets: a copy
    gives its target the source's membership, any other definition drops
    the target."""
    if isinstance(instr, C.CopyLocal):
        return taint | {instr.dst} if instr.src in taint else taint - {instr.dst}
    if isinstance(instr, (C.Alloc, C.Const, C.LoadField, C.Invoke)) and instr.dst:
        return taint - {instr.dst}
    return taint


def _round_robin_taint(cfg, start_node, start_local):
    """Taint per edge: a throwing node defines its local (and a start there
    begins) on its normal edges only; into exit the normal edge's taint."""
    before = {}
    after = {}  # (node, successor) -> the taint on that edge
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for n in order:
            inc = [after[(p, n)] for p in cfg.preds(n) if (p, n) in after]
            fact = frozenset().union(*inc) if inc else frozenset()
            if before.get(n) != fact:
                before[n] = fact
                changed = True
            ins = cfg.nodes[n]
            out = _taint_step(ins, fact)
            if n == start_node:
                out = out | {start_local}
            normal = cfg.succs(n, C.NORMAL)
            for s in cfg.succs(n):
                edge = fact if isinstance(ins, (C.Alloc, C.Invoke)) and s not in normal else out
                if after.get((n, s)) != edge:
                    after[(n, s)] = edge
                    changed = True
    return before


def _round_robin_check(prog, cls, meth, cfg, specs, lib):
    chk = K._MethodChecker(prog, cls, cfg, SpecReader(specs, lib, prog))
    in_facts, out_facts = {}, {}
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        chk.warnings = {}  # re-emitted each pass; the converged pass is authoritative
        for n in order:
            preds = cfg.preds(n)
            if preds:
                facts = [out_facts[(p, n)] for p in preds if (p, n) in out_facts]
                if not facts:
                    continue
                fact = facts[0]
                for f in facts[1:]:
                    fact = K._meet(fact, f, set())
            else:
                if n != cfg.entry:
                    continue
                fact = K.EMPTY_FACT
            if in_facts.get(n) != fact:
                in_facts[n] = fact
                changed = True
            for succ, of in chk.transfer(n, fact).items():
                of = chk._prune(of, succ, set(of.origins))  # every pending origin looked at, on every edge
                if out_facts.get((n, succ)) != of:
                    out_facts[(n, succ)] = of
                    changed = True
    normal_preds = [f for (f, t, k) in cfg.edges if t == cfg.exit and k == C.NORMAL]
    normal_in = [out_facts[(p, cfg.exit)] for p in normal_preds if (p, cfg.exit) in out_facts]
    exit_fact = None
    if normal_in:
        exit_fact = normal_in[0]
        for f in normal_in[1:]:
            exit_fact = K._meet(exit_fact, f, set())
        for origin in sorted(exit_fact.origins, key=repr):
            chk.warn_unsatisfied(origin)
    warnings = sorted(chk.warnings.values(), key=lambda w: (w.file, w.line, w.kind, w.id))
    return warnings, exit_fact


def test_solver_matches_round_robin_loops():
    for prog, lib in corpus_and_fuzz_programs():
        spec_sets = (SpecSet.from_declared(prog), infer_specs(prog, lib))
        for cls, meth, g in _all_cfgs(prog, lib):
            assert C.liveness(g) == _round_robin_liveness(g)
            aliases = C.must_alias(g)
            assert (aliases.before, aliases.after) == _round_robin_must_alias(g)
            for n, ins in enumerate(g.nodes):
                if getattr(ins, "dst", None):
                    expected = {k: v for k, v in _round_robin_taint(g, n, ins.dst).items() if v}
                    assert {k: v for k, v in E.taint_fixpoint(g, n, ins.dst).items() if v} == expected
            for specs in spec_sets:
                warnings, exit_fact = _round_robin_check(prog, cls, meth, g, specs, lib)
                run = K.method_run(memo.ProgramVersion(prog, lib), cls, meth, specs)
                assert run == (warnings, exit_fact)
                # `==` on a Warning ignores its site and AST node
                assert [(w.id, w.site, w.ast_nid) for w in run[0]] == [(w.id, w.site, w.ast_nid) for w in warnings]


# an origin whose last holder is a field, which then goes: a self-call that
# may rewrite every field, a meet that keeps only the fields both sides
# hold, and the null edge of a test of a local loaded from the field
FIELD_HOLDER_GOES = """class A {
  FileInputStream f;
  FileInputStream g;
  void other() {
  }
  void touched() {
    FileInputStream s = new FileInputStream("a");
    f = s;
    this.other();
    f = null;
  }
  void joined(String p) {
    FileInputStream s = new FileInputStream("a");
    if (p == null) {
      f = s;
    } else {
      g = s;
    }
    f = null;
  }
  void tested() {
    FileInputStream s = new FileInputStream("a");
    f = s;
    FileInputStream t = f;
    if (t == null) {
      return;
    }
    t.close();
  }
}
"""


def test_the_sparse_prune_finds_the_deaths_of_the_full_scan_where_a_field_holder_goes():
    prog = parse(FIELD_HOLDER_GOES, "holders.mj")
    lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    specs = SpecSet.from_declared(prog)
    for cls, meth, g in _all_cfgs(prog, lib):
        warnings, exit_fact = _round_robin_check(prog, cls, meth, g, specs, lib)
        assert K.method_run(memo.ProgramVersion(prog, lib), cls, meth, specs) == (warnings, exit_fact)
        if meth.name != "other":
            assert len(warnings) == 1 and exit_fact.origins == {}, meth.name


# locals that may hold several values at once, through joins, a loop and a
# parameter, which the corpus and the generator seldom make
TAINT_JOINS = """class M {
  private FileInputStream f;
  M(FileInputStream p, String c) {
    FileInputStream a = new FileInputStream("a");
    FileInputStream b = p;
    FileInputStream s = a;
    if (c != null) {
      s = b;
    } else {
      s = new FileInputStream("e");
    }
    FileInputStream t = s;
    while (c != null) {
      t = a;
      a = b;
      b = t;
    }
    f = t;
    t.read();
  }
}
"""


def _lowering_programs():
    """(program, libspec) for the corpus, generate_source(0..599), the 600
    corpus mutants that parse, wide_method at N = 20, 40, 80 and 160, and
    `TAINT_JOINS`; a member that does not lower is the caller's to skip."""
    corpus_lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    sources = [(p.name, p.read_text(), corpus_lib) for p in sorted(CORPUS.glob("*.mj"))]
    sources.append(("joins.mj", TAINT_JOINS, corpus_lib))
    sources += [(f"fuzz{seed}.mj", generate_source(seed), fuzz_libspec()) for seed in range(600)]
    sources += [(name, text, corpus_lib) for name, text in corpus_mutants()]
    sources += [(f"wide{n}.mj", wide_method_source(n), corpus_lib) for n in (20, 40, 80, 160)]
    for name, text, lib in sources:
        try:
            yield parse(text, name), lib
        except FILE_ERRORS:
            continue


def test_one_taint_solve_per_lowering_matches_each_start_solved_alone():
    """Every value of `taint_starts` is read off one solve of the CFG, and
    its projection is the round-robin taint of that value alone."""
    served = 0
    for prog, lib in _lowering_programs():
        for cls in prog.classes:
            for meth in cls.all_methods():
                try:
                    g = C.lower(prog, cls, meth, lib)
                except FILE_ERRORS:
                    continue
                starts = C.taint_starts(g)
                assert len({id(g.taint_of(n, local)[0]) for n, local in starts}) <= 1
                for n, local in starts:
                    expected = {k: v for k, v in _round_robin_taint(g, n, local).items() if v}
                    assert E.taint_fixpoint(g, n, local) == expected, (prog.source_name, g.method_name, n)
                served += len(starts)
    assert served > 4000


# --- lean lowerings: only nodes some analysis reads ---


# tries whose every way out returns, where a lowering can make a node no
# path reaches (a normal-completion finally nothing completes into, a return
# after a finally that returns), and the kinds of the nodes each lowers
# after entry and exit
RETURNING_TRIES = [
    ("void m(PrintStream s) {\n try { return; } finally { s.close(); }\n}", ["Invoke", "ReturnVal"]),
    ("int m() {\n try { return 1; } finally { return 2; }\n}", ["ReturnVal"]),
    (
        "int m(PrintStream s) {\n try { s.close(); return 1; } catch (Exception e) { return 2; } finally { s.close(); }\n}",
        ["Invoke", "Invoke", "ReturnVal", "Invoke", "ReturnVal"],
    ),
]


def _unreachable(g):
    return set(range(len(g.nodes))) - g.reachable([g.entry]) - {g.exit}


@pytest.mark.parametrize("method, kinds", RETURNING_TRIES)
def test_a_try_that_returns_on_every_way_out_lowers_only_reachable_nodes(method, kinds):
    g = lower_method("class A {\n" + method + "\n}", "A", "m")
    assert _unreachable(g) == set()
    assert [type(ins).__name__ for ins in g.nodes] == ["Nop", "Nop"] + kinds


def _kept_nop(g, n):
    """Why the Nop `n` is in the lowering, or None: entry and exit; a Nop
    whose one edge enters exit (normal at the body's end, exceptional at the
    end of an exception path), so a death before exit is pruned on an edge
    that does not enter it; or one of two out-edges of a node (a branch's
    sides, or a call's normal and exceptional edges past an empty catch)
    that would otherwise reach the same node."""
    if n in (g.entry, g.exit):
        return "entry-exit"
    succs, preds = g.succs(n), g.preds(n)
    if succs == (g.exit,) and g.nodes[n] == C.Nop("to-exit"):
        return "to-exit"
    if len(succs) == 1 and len(preds) == 1 and succs[0] in g.succs(preds[0]):
        return "split"
    return None


def test_a_lowering_emits_only_nodes_some_analysis_reads():
    nops, lowerings = Counter(), 0
    for prog, lib in _lowering_programs():
        for cls in prog.classes:
            for meth in cls.all_methods():
                try:
                    g = C.lower(prog, cls, meth, lib)
                except FILE_ERRORS:
                    continue
                lowerings += 1
                where = (prog.source_name, g.method_name)
                assert _unreachable(g) == set(), where
                for n, ins in enumerate(g.nodes):
                    if isinstance(ins, C.Nop):
                        nops[_kept_nop(g, n)] += 1
                    elif isinstance(ins, C.Const):
                        # a temporary a Const defines holds a null literal, typed "?"
                        assert not ins.dst.startswith("%t") or g.local_types[ins.dst] == "?", where
                    elif isinstance(ins, C.Branch):
                        assert ins.true_succ != ins.false_succ, where
                        assert {ins.true_succ, ins.false_succ} == set(g.succs(n)), where
                    for op in C.instr_uses(ins):
                        assert C.literal_type(op) is None and op in g.local_types, where
                # one edge per (source, target), but a call's normal and exceptional edges into exit
                pairs = Counter((f, t) for f, t, _k in g.edges)
                assert all(t == g.exit and c == 2 for (f, t), c in pairs.items() if c > 1), where
    assert lowerings > 2000 and None not in nops, nops


def _temporary_defs(g):
    """Each temporary's defining node, by name."""
    return {ins.dst: n for n, ins in enumerate(g.nodes) if getattr(ins, "dst", None) and ins.dst.startswith("%t")}


def test_every_temporary_is_named_by_some_instruction():
    """A call whose value is dropped makes no temporary, so each one a
    lowering types is an instruction's operand or dst."""
    temporaries = 0
    for prog, lib in corpus_and_fuzz_programs(600):
        for _cls, _meth, g in _all_cfgs(prog, lib):
            named = set(_temporary_defs(g)).union(*(C.instr_uses(ins) for ins in g.nodes))
            made = {local for local in g.local_types if local.startswith("%t")}
            assert made <= named, (prog.source_name, g.method_name, made - named)
            temporaries += len(made)
    assert temporaries > 1000


def test_a_value_goes_straight_into_its_local():
    """A new, a call, a field load or null assigned to a local defines it in
    its own node: a copy from a temporary is left only where the defining
    node's completion ends the body or an exception path; one that reaches
    the node its own throw does takes a `split` Nop on one of the two
    edges. A null a condition compares is a Branch operand, never a Const's
    temporary."""
    copies = splits = 0
    nesting_lib = load_library_spec(NESTING_LIBSPEC)
    nesting = ((parse(nesting_source(seed), f"nest{seed}.mj"), nesting_lib) for seed in range(2000))
    for prog, lib in itertools.chain(_lowering_programs(), nesting):
        for cls in prog.classes:
            for meth in cls.all_methods():
                try:
                    g = C.lower(prog, cls, meth, lib)
                except FILE_ERRORS:
                    continue
                where = (prog.source_name, g.method_name)
                temporaries = _temporary_defs(g)
                nulls = {t for t, d in temporaries.items() if isinstance(g.nodes[d], C.Const)}
                for n, ins in enumerate(g.nodes):
                    if isinstance(ins, C.Branch):
                        assert not nulls & {ins.lhs, ins.rhs}, where
                    if isinstance(ins, (C.Alloc, C.Invoke)) and ins.dst and ins.dst not in temporaries:
                        out = g.succs(n)  # one reached both ways: through a split on one of them
                        splits += any(g.nodes[s] == C.Nop("split") and g.succs(s)[0] in out for s in out)
                    if not (isinstance(ins, C.CopyLocal) and ins.src in temporaries):
                        continue
                    copies += 1
                    (d,), (succ,) = g.preds(n), g.succs(n)
                    assert d == temporaries[ins.src], where
                    ends = succ == g.exit or g.nodes[succ] == C.Nop("to-exit") or (n, succ, C.EXCEPTIONAL) in g.edges
                    assert ends, where
    assert copies > 100 and splits > 0


# the normal-edge rule: a throwing node that defines a named local writes it
# on its normal out-edges only
ALLOC_IN_A_TRY = """class A {
  void m() {
    FileInputStream s = null;
    try {
      s = new FileInputStream("a");
    } catch (Exception e) {
      if (s != null) {
        s.close();
      }
      return;
    }
    s.close();
  }
}
"""

# `r` still holds its first value in the catch, which closes it; the normal
# path closes the call's value and, through `keep`, the first
CALL_IN_A_TRY = """@MustCall("close")
class R {
  void close() {
  }
  R make() {
    return new R();
  }
  static void main() {
    R q = new R();
    R r = new R();
    R keep = r;
    try {
      r = q.make();
    } catch (Exception e) {
      r.close();
      q.close();
      return;
    }
    r.close();
    keep.close();
    q.close();
  }
}
"""


def test_a_local_an_allocation_defines_stays_live_before_it_for_its_catch():
    lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    prog = parse(ALLOC_IN_A_TRY, "t.mj")
    cls = prog.classes[0]
    g = C.lower(prog, cls, cls.methods[0], lib)
    (alloc,) = [n for n, ins in enumerate(g.nodes) if isinstance(ins, C.Alloc)]
    assert g.nodes[alloc].dst == "s" and "s" in g.live_in()[alloc]
    (catch,) = g.succs(alloc, C.EXCEPTIONAL)
    assert isinstance(g.nodes[catch], C.Branch) and g.nodes[catch].rhs == C.NULL
    # the catch sees the null `s` held before: not the allocation's value
    assert catch not in E.taint_fixpoint(g, alloc, "s")
    assert C.must_alias(g).tag_before(catch, "s") == ("null",)


def test_a_call_into_a_local_leaves_its_old_value_on_the_catch_edge():
    lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    prog = parse(CALL_IN_A_TRY, "t.mj")
    cls = prog.class_named("R")
    g = C.lower(prog, cls, cls.method_named("main"), lib)
    (call,) = [n for n, ins in enumerate(g.nodes) if isinstance(ins, C.Invoke) and ins.method == "make"]
    assert g.nodes[call].dst == "r" and "r" in g.live_in()[call]
    assert K.check_program(prog, SpecSet.from_declared(prog), lib) == []


def test_a_calls_exceptional_edge_past_an_empty_catch_keeps_its_own_fact():
    """Both out-edges of the call reach `s.close()`: the exceptional one goes
    through a split Nop, so the close meets the facts of both ways."""
    g = lower_method(
        'class A { void m(PrintStream s) { try { s.println("x"); } catch (Exception e) { } s.close(); } }', "A", "m"
    )
    (call,) = [n for n, ins in enumerate(g.nodes) if isinstance(ins, C.Invoke) and ins.method == "println"]
    (normal,), (split,) = g.succs(call, C.NORMAL), g.succs(call, C.EXCEPTIONAL)
    assert g.nodes[split] == C.Nop("split") and g.succs(split) == (normal,)


def _anchor_lines(prog, lib):
    """Per lowering, the anchors `Cfg.sinks` and `Cfg.copies` list: each
    node's kind, AST node (by rank among the program's ids) and ordinal."""
    ranked = sorted(node.nid for cls in prog.classes for node in sx.walk_nodes(cls))
    rank = {nid: i for i, nid in enumerate(ranked)}
    for cls in prog.classes:
        for meth in cls.all_methods():
            try:
                g = C.lower(prog, cls, meth, lib)
            except FILE_ERRORS:
                continue

            def sig(n):
                ins = g.nodes[n]
                return (type(ins).__name__, rank.get(getattr(ins, "ast_nid", None)), getattr(ins, "ordinal", None))

            nids = sorted({ins.ast_nid for ins in g.nodes if isinstance(ins, (C.Alloc, C.Invoke, C.StoreField))}, key=rank.get)
            copies = [(rank[nid], [sig(n) for n in g.copies(nid)]) for nid in nids]
            yield f"{prog.source_name}|{cls.name}|{sx.member_key(meth)}|{[sig(n) for n in g.sinks]}|{copies}"


# recorded on the lowering that gave each literal a Const node and each
# block head a Nop, and pruned the nodes no path reached
ANCHORS_SHA256 = "1570fbb7ecdbbc48d1a3f841edcca13f4e3791f6c60453620252d6a536297d47"


def test_sinks_and_copies_list_the_anchors_they_listed_before_the_lean_lowering():
    digest = hashlib.sha256()
    for prog, lib in _lowering_programs():
        for line in _anchor_lines(prog, lib):
            digest.update((line + "\n").encode())
    assert digest.hexdigest() == ANCHORS_SHA256


# a string or int literal in each position an operand takes, with what the
# lowering that gave each literal a Const node made of it: the warnings
# (kind, line, id), each call's owner, and the interpreter's status
LITERAL_OPERANDS = {
    "receiver": (
        'class Main {\n  static void main() {\n    FileInputStream s = new FileInputStream("a");\n'
        '    int n = "abc".length();\n    s.read();\n  }\n}\n',
        [("UnsatisfiedObligation", 3, "18bfd0e74ef3")],
        [("main", "length", "String"), ("main", "read", "FileInputStream")],
        "RuntimeError(TypeError)",
    ),
    "argument": (
        'class Main {\n  static void main() {\n    PrintStream p = new PrintStream("out.txt");\n    p.println(42);\n'
        '    p.println("done");\n    Main.take(7, "x", p);\n  }\n'
        "  static void take(int k, String t, PrintStream q) {\n    q.close();\n  }\n}\n",
        [("UnsatisfiedObligation", 3, "bcafaf85b8fe")],
        [("main", "println", "PrintStream"), ("main", "println", "PrintStream"), ("main", "take", "Main"), ("take", "close", "PrintStream")],
        "Completed",
    ),
    "condition": (
        "class Main {\n  static void main() {\n    int c = 3;\n    FileInputStream s = null;\n    while (c == 3) {\n"
        '      s = new FileInputStream("b");\n      c = 4;\n    }\n    if ("x" != s) {\n      s.close();\n    }\n  }\n}\n',
        [("UnsatisfiedObligation", 6, "8ea8394a7d89")],
        [("main", "close", "FileInputStream")],
        "Completed",
    ),
    "assigned": (
        'class Main {\n  private String name;\n  private int size;\n  Main() {\n    name = "n";\n    size = 1;\n  }\n'
        '  static void main() {\n    String t = "f";\n    t = "g";\n    FileInputStream s = new FileInputStream(t);\n'
        "    int k = 0;\n    k = 5;\n    if (k == 5) {\n      s.close();\n    }\n  }\n}\n",
        [("UnsatisfiedObligation", 11, "bd26d9f4ef66")],
        [("main", "close", "FileInputStream")],
        "Completed",
    ),
}


@pytest.mark.parametrize("name", sorted(LITERAL_OPERANDS))
def test_a_literal_operand_is_typed_and_lowers_as_a_literal_node_did(name):
    src, warnings, owners, status = LITERAL_OPERANDS[name]
    lib = load_library_spec((CORPUS / "minij.libspec").read_text())
    prog = parse(src, f"{name}.mj")
    found = K.check_program(prog, infer_specs(prog, lib), lib)
    assert [(w.kind, w.line, w.id) for w in found] == warnings
    calls, literals = [], set()
    for _cls, meth, g in _all_cfgs(prog, lib):
        calls += [(meth.name, ins.method, ins.owner) for ins in g.nodes if isinstance(ins, C.Invoke)]
        for ins in g.nodes:
            ops = [getattr(ins, f, None) for f in ("src", "recv", "lhs", "rhs")] + list(getattr(ins, "args", ()))
            lits = {op for op in ops if op and C.literal_type(op)}
            # a literal is no local: no liveness use, no type entry, no node
            assert lits.isdisjoint(C.instr_uses(ins)) and lits.isdisjoint(g.local_types)
            literals |= {(op, C.literal_type(op)) for op in lits}
    assert calls == owners
    assert literals == {
        (f'"{e.value}"' if isinstance(e, sx.StrLit) else str(e.value), "String" if isinstance(e, sx.StrLit) else "int")
        for cls in prog.classes
        for e in sx.walk_exprs(cls)
        if isinstance(e, (sx.StrLit, sx.IntLit))
    }
    assert interp_run(prog, lib).status == status


def test_solver_divergence_guard_raises():
    g = lower_method("class A { void m(String c) { while (c == null) { c = null; } } }", "A", "m")

    def flow(n, k):
        return dict.fromkeys(g.succs(n), k + 1)  # grows on every trip round the loop

    with pytest.raises(RuntimeError, match="diverged"):
        C.solve(g, {g.entry: 0}, flow, max)


def test_solver_never_visits_a_node_reached_only_by_edges_the_flow_leaves_out():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    visits = []

    def flow(n, steps):  # no fact on an edge into exit
        visits.append(n)
        return {s: steps + 1 for s in g.succs(n) if s != g.exit}

    facts, outs = C.solve(g, {g.entry: 0}, flow, max)
    assert g.preds(g.exit) and g.exit not in visits and g.exit not in facts
    assert set(outs) == set(facts) and not any(g.exit in out for out in outs.values())
    assert set(facts) == set(g.rpo()) - {g.exit}


def test_solver_backward_visits_every_seeded_node_once_on_acyclic_cfg():
    g = lower_method(TRY_FINALLY_RETURN, "A", "m")
    visits = []

    def flow(n, steps_to_exit):  # longest path to exit: final only once every successor is
        visits.append(n)
        return dict.fromkeys(g.preds(n), steps_to_exit + 1)

    facts, outs = C.solve(g, dict.fromkeys(range(len(g.nodes)), 0), flow, max, backward=True)
    assert sorted(visits) == list(range(len(g.nodes)))  # postorder: successors settle first
    # a node's out-facts are keyed by its predecessors: one per edge, in CFG direction (m, n)
    assert {(m, n) for n, out in outs.items() for m in out} == {(f, t) for f, t, _k in g.edges}
    assert facts[g.entry] == max(len(path) - 1 for path in acyclic_paths(g))


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
    for path in acyclic_paths(g):
        value = ("unset",)
        env = {}
        for n, succ in zip(path, path[1:]):
            ins = g.nodes[n]
            if isinstance(ins, (C.Alloc, C.Invoke)) and succ not in g.succs(n, C.NORMAL):
                continue  # thrown: the def happens on normal edges only
            if isinstance(ins, C.Alloc):
                env[ins.dst] = ("site", ins.site)
            elif isinstance(ins, C.CopyLocal):
                env[ins.dst] = env.get(ins.src)
            elif isinstance(ins, C.Const):
                env[ins.dst] = ("null",)
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
