"""AST navigation in `syntax`: name resolution, member keys, warning
ordinals and anchors, statement paths, first writes, the expression
rewriter and subtree positions, over every method of the corpus and
generate_source(0..59); the shape table's walkers against the hand-written
ones they replaced, over the corpus, generate_source(0..599) and the 600
corpus mutants."""

import copy
import dataclasses
from typing import get_args, get_origin, get_type_hints

from helpers import CORPUS, corpus_and_fuzz_programs, corpus_mutants, memo_bypassed
from leakward import cfg as C
from leakward import checker as checker_module
from leakward import syntax as sx
from leakward.checker import check_program
from leakward.errors import FILE_ERRORS
from leakward.fuzz import generate_source
from leakward.inference import infer_specs
from leakward.libspec import load_library_spec
from leakward.memo import ProgramVersion
from leakward.parser import parse
from leakward.printer import pretty_print
from leakward.repair import find_anchor, locate_anchor
from leakward.specs import SpecSet

PROGRAMS = corpus_and_fuzz_programs()

# locals, parameters and catch variables that share a field's name
SHADOWING = [
    """class R {
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
""",
    """class P {
  private FileInputStream f;
  P(FileInputStream f) { this.f = f; }
  void set(String p) { f = new FileInputStream(p); FileInputStream f = null; f = new FileInputStream(p); f.close(); }
}
""",
    """class C {
  private Exception e;
  private FileInputStream f;
  void m(String p) {
    try {
      FileInputStream f = new FileInputStream(p);
      f.close();
    } catch (Exception e) {
      e = null;
    } finally {
      f = null;
    }
    e = null;
  }
}
""",
]
CORPUS_LIB = load_library_spec((CORPUS / "minij.libspec").read_text())
SHADOWING_PROGRAMS = [(parse(src, "shadowing.mj"), CORPUS_LIB) for src in SHADOWING]


def _methods(programs=PROGRAMS):
    for prog, lib in programs:
        for cls in prog.classes:
            for meth in cls.all_methods():
                yield prog, lib, cls, meth


def _all_methods(prog):
    return [m for cls in prog.classes for m in cls.all_methods()]


def _own_exprs(stmt):
    """Expressions a statement holds itself, not through a nested block."""
    for value in vars(stmt).values():
        if isinstance(value, sx.Expr):
            yield from sx.walk_exprs(value)


def _resolved(meth):
    names = sx.local_refs(meth)
    return [(e.name, names.is_local(e)) for e in sx.walk_exprs(meth.body) if isinstance(e, sx.VarRef)], names


def test_local_refs_resolves_by_block_scope():
    prog = parse(
        """class R {
  private FileInputStream f;
  private FileInputStream g;
  void m(String p) {
    if (p != null) {
      FileInputStream f = f;
      f.close();
      FileInputStream f = null;
    }
    f = g;
    try {
      FileInputStream g = new FileInputStream(p);
    } catch (Exception e) {
      e = null;
    } finally {
      g = this.g;
    }
    e = null;
  }
  static void s(FileInputStream g) {
    g = f;
    this.f = g;
  }
}
"""
    )
    m, s = prog.classes[0].methods
    refs, names = _resolved(m)
    # an initializer sees its own local; the block's locals end with it; a
    # catch variable is in scope in its catch block only; a finally block
    # resolves where it sits, outside the try body's locals
    assert refs == [
        ("p", True),
        ("f", True),
        ("f", True),
        ("f", False),
        ("g", False),
        ("p", True),
        ("e", True),
        ("g", False),
        ("this", True),
        ("e", False),
    ]
    decls = [st for st in sx.walk_stmts(m.body) if isinstance(st, sx.LocalDecl)]
    assert [names.redeclares(d) for d in decls] == [False, True, False]
    refs, names = _resolved(s)
    assert refs == [("g", True), ("f", False), ("this", False), ("g", True)]
    cls = prog.classes[0]
    assert sx.stores_to_field(cls, m, "R", "f") == [m.body.stmts[1]]
    assert sx.stores_to_field(cls, m, "R", "g") == [m.body.stmts[2].finally_block.stmts[0]]
    assert sx.stores_to_field(cls, m, "R", "e") == [m.body.stmts[3]]
    assert sx.stores_to_field(cls, s, "R", "g") == [] and sx.stores_to_field(cls, s, "R", "f") == [s.body.stmts[1]]


def test_member_key_names_the_cfg_and_finds_the_member():
    for prog, lib, cls, meth in _methods():
        key = sx.member_key(meth)
        assert key == C.lower(prog, cls, meth, lib).method_name
        assert cls.member(key) is meth
    assert sx.member_key(parse("class A { A(int a, int b) { } }").classes[0].constructors[0]) == "<init>#2"


def test_each_anchor_carries_its_nodes_ordinal():
    """The lowering stamps an allocation with its node's index among the
    member's `New`s of its class, a call with its index among all the
    member's `Call`s (both in `walk_exprs` order), and a field store with its
    index among the stores `stores_to_field` lists for its field."""
    stamped = 0
    for prog, lib, cls, meth in _methods(PROGRAMS + SHADOWING_PROGRAMS):
        exprs = list(sx.walk_exprs(meth.body))
        calls = [e.nid for e in exprs if isinstance(e, sx.Call)]
        for ins in C.lower(prog, cls, meth, lib).nodes:
            if isinstance(ins, C.Alloc):
                news = [e.nid for e in exprs if isinstance(e, sx.New) and e.class_name == ins.class_name]
                assert news.index(ins.ast_nid) == ins.ordinal
            elif isinstance(ins, C.Invoke):
                assert calls.index(ins.ast_nid) == ins.ordinal
            elif isinstance(ins, C.StoreField):
                stores = [s.nid for s in sx.stores_to_field(cls, meth, ins.field_class, ins.field)]
                assert stores.index(ins.ast_nid) == ins.ordinal
            else:
                continue
            stamped += 1
    assert stamped > 500


def test_evaluated_before_lists_a_body_statement_and_what_runs_before_it():
    cls = parse(
        "class A { private PrintStream f; A(String p) { p.length(); f = new PrintStream(p);"
        " if (p != null) { f = null; } } }"
    ).classes[0]
    body = cls.constructors[0].body
    first, nested = sx.stores_to_field(cls, cls.constructors[0], "A", "f")
    before = sx.evaluated_before(body, first)
    assert before == list(sx.walk_exprs(body.stmts[0])) + list(sx.walk_exprs(first))
    assert isinstance(before[0], sx.Call) and any(e is first.value for e in before)
    assert sx.evaluated_before(body, nested) is None  # a store nested in an `if` is not a statement of the body
    assert sx.evaluated_before(body, body.stmts[0]) == list(sx.walk_exprs(body.stmts[0]))


def test_every_warning_locates_its_own_node():
    # by its descriptor on its member's CFG, and by its node id in the AST, alike
    seen = 0
    for prog, lib in PROGRAMS:
        version = ProgramVersion(prog, lib)
        for specs in (SpecSet.from_declared(prog), infer_specs(version, lib)):
            for w in check_program(version, specs, lib):
                anchor = locate_anchor(w, version)
                assert anchor.ast_nid == w.ast_nid, w.descriptor()
                method, by_nid, path = find_anchor(w, prog, sx.AstIndex(prog))
                assert by_nid.nid == anchor.ast_nid and path == sx.stmt_path(method.body, by_nid), w.descriptor()
                seen += 1
    assert seen > 100


def test_stmt_path_leads_to_every_statement_and_expression():
    for _prog, _lib, _cls, meth in _methods():
        index = sx.AstIndex(meth.body)
        for stmt in sx.walk_stmts(meth.body):
            path = sx.stmt_path(meth.body, stmt)
            assert path[0][0] is meth.body
            for (block, i), (inner, _j) in zip(path, path[1:]):
                assert inner in [v for v in vars(block.stmts[i]).values() if isinstance(v, sx.Block)]
            block, i = path[-1]
            assert block.stmts[i] is stmt
            found, by_nid = index.find(stmt.nid)
            assert found is stmt and by_nid == path
            for e in _own_exprs(stmt):
                assert sx.stmt_path(meth.body, e) == path
                found, by_nid = index.find(e.nid)
                assert found is e and by_nid == path
        assert sx.stmt_path(meth.body, sx.NullLit()) is None
        assert index.find(sx.NullLit().nid) is None


def test_try_slots_are_the_tries_whose_body_the_path_enters():
    prog = parse(
        """class A {
  void m() {
    try {
      try {
        int x = 1;
      } finally {
        int y = 2;
      }
    } catch (Exception e) {
      int z = 3;
    }
  }
}
"""
    )
    body = prog.classes[0].methods[0].body
    outer = body.stmts[0]
    inner = outer.body.stmts[0]
    x, y, z = inner.body.stmts[0], inner.finally_block.stmts[0], outer.catch_block.stmts[0]
    assert sx.try_slots(sx.stmt_path(body, x)) == [(body, 0), (outer.body, 0)]
    assert sx.try_slots(sx.stmt_path(body, y)) == [(body, 0)]
    assert sx.try_slots(sx.stmt_path(body, z)) == []


def test_identity_map_exprs_leaves_the_print_unchanged():
    for prog, _lib in PROGRAMS:
        before = pretty_print(prog)
        assert sx.map_exprs(prog, lambda e: None) == 0
        assert sx.map_exprs(prog, lambda e: e) == 0
        assert pretty_print(prog) == before
        # swapping every VarRef for an equal fresh one reaches every slot
        var_refs = sum(isinstance(e, sx.VarRef) for m in _all_methods(prog) for e in sx.walk_exprs(m.body))
        assert sx.map_exprs(prog, lambda e: copy.deepcopy(e) if isinstance(e, sx.VarRef) else None) == var_refs
        assert pretty_print(prog) == before


def test_map_exprs_does_not_search_a_replacement():
    prog = parse("class A { void m(A a) { a.m(a); } }")
    stmt = prog.classes[0].methods[0].body.stmts[0]
    call = stmt.expr

    def wrap(e):
        return sx.Call(receiver=e, method="m", args=[]) if e is call else None

    assert sx.map_exprs(stmt, wrap) == 1
    assert stmt.expr.receiver is call


def test_adopt_positions_every_node_of_the_subtree():
    prog = parse("class A {\n  void m() {\n    int x = 1;\n  }\n}\n")
    anchor = prog.classes[0].methods[0].body.stmts[0]
    guard = sx.If(
        cond=sx.Eq(lhs=sx.VarRef(name="x"), rhs=sx.NullLit(), negated=True),
        then_block=sx.Block(stmts=[sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name="x"), method="close", args=[]))]),
        else_block=None,
    )
    prog.adopt(guard, anchor)
    assert {prog.pos_of(n.nid) for n in sx.walk_nodes(guard)} == {prog.pos_of(anchor.nid)} != {(0, 0)}
    assert len(list(sx.walk_nodes(guard))) == 8


# --- Program copies ------------------------------------------------------------


def _lists(root: sx.Node) -> list[list]:
    """Every list a node under root holds."""
    return [v for n in sx.walk_nodes(root) for v in vars(n).values() if isinstance(v, list)]


def test_deepcopy_is_equal_keeps_nids_and_positions_and_shares_nothing():
    for prog, _lib in PROGRAMS:
        dup = copy.deepcopy(prog)
        assert dup == prog and dup.source_name == prog.source_name
        nodes, dup_nodes = list(sx.walk_nodes(prog)), list(sx.walk_nodes(dup))
        assert [n.nid for n in dup_nodes] == [n.nid for n in nodes]
        assert dup.line_index == prog.line_index and dup.line_index is not prog.line_index
        originals = {id(n) for n in nodes} | {id(v) for v in _lists(prog)}
        assert not any(id(n) in originals for n in dup_nodes)
        assert not any(id(v) in originals for v in _lists(dup))


def test_editing_a_copy_leaves_the_original_unchanged():
    prog, _lib = PROGRAMS[0]
    text, positions = pretty_print(prog), dict(prog.line_index)
    dup = copy.deepcopy(prog)
    cls = dup.classes[0]
    meth = cls.all_methods()[0]
    meth.body.stmts.insert(0, sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name="x"), method="close", args=[])))
    meth.annotations.append(sx.Annotation(kind=sx.NOT_OWNING))
    cls.annotations.append(sx.Annotation(kind=sx.MUST_CALL, methods=("close",)))
    for nid in dup.line_index:
        dup.line_index[nid] = (0, 0)
    assert pretty_print(dup) != text
    assert pretty_print(prog) == text and prog.line_index == positions


def test_a_program_in_a_copied_container_is_copied_once():
    prog, _lib = PROGRAMS[0]
    box = {"first": prog, "again": [prog, (prog,)]}
    dup = copy.deepcopy(box)
    assert dup["first"] is dup["again"][0] is dup["again"][1][0]
    assert dup["first"] is not prog and dup["first"] == prog


# --- the shape table and the walker that reads it --------------------------------
#
# The references below are the walkers `syntax` had before `SHAPE`: two
# hand-written per-kind walkers and `vars()` scans. Each walker, search and
# rewrite on the table must visit the same nodes in the same order.


def _ref_walk_exprs(root):
    if root is None:
        return
    if isinstance(root, sx.Block):
        for s in root.stmts:
            yield from _ref_walk_exprs(s)
    elif isinstance(root, sx.LocalDecl):
        yield from _ref_walk_exprs(root.init)
    elif isinstance(root, sx.Assign):
        yield from _ref_walk_exprs(root.target)
        yield from _ref_walk_exprs(root.value)
    elif isinstance(root, sx.ExprStmt):
        yield from _ref_walk_exprs(root.expr)
    elif isinstance(root, sx.If):
        yield from _ref_walk_exprs(root.cond)
        yield from _ref_walk_exprs(root.then_block)
        yield from _ref_walk_exprs(root.else_block)
    elif isinstance(root, sx.While):
        yield from _ref_walk_exprs(root.cond)
        yield from _ref_walk_exprs(root.body)
    elif isinstance(root, sx.Try):
        yield from _ref_walk_exprs(root.body)
        yield from _ref_walk_exprs(root.catch_block)
        yield from _ref_walk_exprs(root.finally_block)
    elif isinstance(root, sx.Return):
        yield from _ref_walk_exprs(root.value)
    elif isinstance(root, sx.Expr):
        yield root
        if isinstance(root, sx.New):
            for a in root.args:
                yield from _ref_walk_exprs(a)
        elif isinstance(root, sx.Call):
            yield from _ref_walk_exprs(root.receiver)
            for a in root.args:
                yield from _ref_walk_exprs(a)
        elif isinstance(root, sx.FieldRef):
            yield from _ref_walk_exprs(root.receiver)
        elif isinstance(root, sx.Eq):
            yield from _ref_walk_exprs(root.lhs)
            yield from _ref_walk_exprs(root.rhs)


def _ref_walk_stmts(root):
    if root is None:
        return
    if isinstance(root, sx.Block):
        for s in root.stmts:
            yield from _ref_walk_stmts(s)
        return
    yield root
    if isinstance(root, sx.If):
        yield from _ref_walk_stmts(root.then_block)
        yield from _ref_walk_stmts(root.else_block)
    elif isinstance(root, sx.While):
        yield from _ref_walk_stmts(root.body)
    elif isinstance(root, sx.Try):
        yield from _ref_walk_stmts(root.body)
        yield from _ref_walk_stmts(root.catch_block)
        yield from _ref_walk_stmts(root.finally_block)


def _ref_walk_nodes(root):
    yield root
    for value in vars(root).values():
        if isinstance(value, sx.Node):
            yield from _ref_walk_nodes(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, sx.Node):
                    yield from _ref_walk_nodes(item)


def _ref_find(body, hit):
    for i, s in enumerate(body.stmts):
        if hit(s):
            return s, [(body, i)]
        parts = [v for v in vars(s).values() if isinstance(v, (sx.Expr, sx.Block))]
        for part in parts:
            if isinstance(part, sx.Expr):
                e = next((e for e in _ref_walk_exprs(part) if hit(e)), None)
                if e is not None:
                    return e, [(body, i)]
        for part in parts:
            if isinstance(part, sx.Block):
                rest = _ref_find(part, hit)
                if rest is not None:
                    return rest[0], [(body, i), *rest[1]]
    return None


def _ref_map_exprs(root, fn):
    replaced = 0

    def slot(value):
        nonlocal replaced
        if isinstance(value, sx.Expr):
            new = fn(value)
            if new is not None and new is not value:
                replaced += 1
                return new
        if isinstance(value, sx.Node):
            visit(value)
        return value

    def visit(node):
        for name, value in list(vars(node).items()):
            if isinstance(value, list):
                value[:] = [slot(item) for item in value]
            elif isinstance(value, sx.Node):
                setattr(node, name, slot(value))

    visit(root)
    return replaced


# an annotation in every slot that can hold one, and an else block, which
# no corpus file has
ANNOTATED = """@MustCall("close")
class W {
  @Owning private PrintWriter pw;
  @NotOwning private PrintWriter spare = null;
  W(@Owning PrintWriter given) {
    pw = given;
  }
  @EnsuresCalledMethods(value="pw", methods="close")
  void close() {
    if (pw != null) {
      pw.close();
    } else {
      spare = null;
    }
  }
}
"""


def _shape_programs():
    """The corpus, generate_source(0..599), the 600 corpus mutants that
    parse, the shadowing programs and one annotated in every slot."""
    corpus = [(p.name, p.read_text()) for p in sorted(CORPUS.glob("*.mj"))]
    fuzz = [(f"fuzz{seed}.mj", generate_source(seed)) for seed in range(600)]
    extra = [("shadowing.mj", text) for text in SHADOWING] + [("annotated.mj", ANNOTATED)]
    for name, text in corpus + fuzz + corpus_mutants() + extra:
        try:
            yield parse(text, name)
        except FILE_ERRORS:
            continue


def _same(xs, ys) -> bool:
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_the_walkers_on_the_shape_table_match_the_hand_written_ones():
    programs = bodies = 0
    for prog in _shape_programs():
        programs += 1
        assert _same(sx.walk_nodes(prog), _ref_walk_nodes(prog)), prog.source_name
        for cls in prog.classes:
            assert _same(sx.walk_nodes(cls), _ref_walk_nodes(cls)), prog.source_name
            for init in [f.initializer for f in cls.fields]:
                assert _same(sx.walk_exprs(init), _ref_walk_exprs(init)), prog.source_name
                if init is not None:
                    assert _same(sx.walk_nodes(init), _ref_walk_nodes(init)), prog.source_name
            for meth in cls.all_methods():
                bodies += 1
                body = meth.body
                assert _same(sx.walk_exprs(body), _ref_walk_exprs(body)), prog.source_name
                assert _same(sx.walk_stmts(body), _ref_walk_stmts(body)), prog.source_name
                assert _same(sx.walk_nodes(body), _ref_walk_nodes(body)), prog.source_name
                index = sx.AstIndex(body)
                for node in sx.walk_nodes(body):
                    assert index.find(node.nid) == _ref_find(body, lambda n: n.nid == node.nid)
                    assert sx.stmt_path(body, node) == (_ref_find(body, lambda n: n is node) or (None, None))[1]
        # the rewriter visits the same slots in the same order on two copies
        seen, ref_seen = [], []

        def fresh_refs(e, seen):
            seen.append(e.nid)
            return sx.VarRef(name=e.name) if isinstance(e, sx.VarRef) else None

        dup, ref_dup = copy.deepcopy(prog), copy.deepcopy(prog)
        count = sx.map_exprs(dup, lambda e: fresh_refs(e, seen))
        assert count == _ref_map_exprs(ref_dup, lambda e: fresh_refs(e, ref_seen)) and seen == ref_seen
        assert dup == ref_dup
    assert programs > 800 and bodies > 2500


def _node_types():
    out, todo = [], [sx.Node]
    while todo:
        t = todo.pop()
        out.append(t)
        todo.extend(t.__subclasses__())
    return out


def _can_hold_a_node(hint) -> bool:
    if get_origin(hint) is None and isinstance(hint, type):
        return issubclass(hint, sx.Node)
    return any(_can_hold_a_node(arg) for arg in get_args(hint))


def test_the_shape_table_names_every_field_that_can_hold_a_node():
    for t in _node_types():
        hints = get_type_hints(t)
        holding = tuple(f.name for f in dataclasses.fields(t) if _can_hold_a_node(hints[f.name]))
        if t in (sx.Node, sx.Expr, sx.Stmt):
            assert holding == () and t not in sx.SHAPE  # abstract: no node is of these types alone
        else:
            assert sx.SHAPE[t] == holding, t.__name__


def test_a_checker_run_walks_no_ast(monkeypatch):
    # every way `syntax` goes over a tree, counted while a run is on
    state = {"in_run": False, "runs": 0, "warned": 0, "walks": []}
    for name in ("_walk", "children", "local_refs", "map_exprs"):
        original = getattr(sx, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            if state["in_run"]:
                state["walks"].append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(sx, name, counted)
    run = checker_module._MethodChecker.run

    def watched(self):
        state["in_run"], state["runs"] = True, state["runs"] + 1
        try:
            warnings = run(self)
        finally:
            state["in_run"] = False
        state["warned"] += bool(warnings)
        return warnings

    monkeypatch.setattr(checker_module._MethodChecker, "run", watched)
    with memo_bypassed():
        for prog, lib in PROGRAMS:
            for specs in (SpecSet.from_declared(prog), infer_specs(prog, lib)):
                check_program(prog, specs, lib)
    assert state["walks"] == []
    assert state["runs"] > 500 and state["warned"] > 100
