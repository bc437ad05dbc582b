"""Control-flow graphs for MiniJ method bodies.

Lowering flattens nested expressions through fresh temporaries (``%tN``) into
three-address instructions. Only Invoke and Alloc nodes can throw; they get an
exceptional edge to the innermost enclosing catch head, or else toward method
exit through every enclosing finally block. Finally blocks are duplicated per
entry path (normal completion, exception propagation, return), so the
analyses stay path-insensitive without losing the finally-always-runs
guarantee.

Edges that continue exception propagation carry kind "exceptional"; the
normal-exit state of a method is therefore the meet over the exit node's
normal-kind in-edges.

`solve` is the one dataflow engine: liveness and must-alias here, the
checker's obligation dataflow and the escape taint each give it a transfer
(`flow`) and a meet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterator, Optional, TypeVar, Union

from . import syntax as sx
from .errors import SyntaxError
from .libspec import LibrarySpec

NORMAL = "normal"
EXCEPTIONAL = "exceptional"

THIS = "this"

Value = Union[None, int, str]  # Const payload; None encodes the null literal


# --- instructions ----------------------------------------------------------


@dataclass
class Instr:
    pass


@dataclass
class Nop(Instr):
    tag: str


@dataclass
class Alloc(Instr):
    dst: str
    class_name: str
    site: int
    args: list[str]
    ast_nid: int


@dataclass
class CopyLocal(Instr):
    dst: str
    src: str


@dataclass
class Const(Instr):
    dst: str
    value: Value
    is_null: bool


@dataclass
class LoadField(Instr):
    dst: str
    recv: Optional[str]  # local or "this"; None for static loads
    field: str
    field_class: str  # declaring class
    ast_nid: int = -1


@dataclass
class StoreField(Instr):
    recv: Optional[str]
    field: str
    src: str
    field_class: str
    ast_nid: int = -1


@dataclass
class Invoke(Instr):
    recv: Optional[str]  # receiver local; None for static calls
    static_class: Optional[str]
    method: str
    args: list[str]
    dst: Optional[str]
    ast_nid: int


@dataclass
class ReturnVal(Instr):
    src: Optional[str]


@dataclass
class Branch(Instr):
    """Two-way branch on lhs ==/!= rhs; successors recorded by node id."""

    lhs: str
    rhs: str
    negated: bool
    true_succ: int = -1
    false_succ: int = -1


@dataclass
class Cfg:
    class_name: str
    method_name: str  # "<init>#<arity>" for constructors
    source_name: str
    nodes: list[Instr] = field(default_factory=list)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    entry: int = -1
    exit: int = -1
    local_types: dict[str, str] = field(default_factory=dict)
    is_constructor: bool = False
    arity: int = 0
    program: Optional[sx.Program] = None
    class_ast: Optional[sx.ClassDecl] = None
    method_ast: Optional[sx.MethodDecl] = None
    # adjacency index over `edges`: kind (None for any) -> per-node neighbour
    # lists, in `edges` order so meets and warnings keep a fixed order
    _succ: dict[Optional[str], list[list[int]]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _pred: dict[Optional[str], list[list[int]]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def index_edges(self) -> None:
        """Build the lists `succs`/`preds` read; lowering calls it once `edges` is final."""
        kinds = (None, NORMAL, EXCEPTIONAL)
        self._succ = {k: [[] for _ in self.nodes] for k in kinds}
        self._pred = {k: [[] for _ in self.nodes] for k in kinds}
        for f, t, k in self.edges:
            self._succ[None][f].append(t)
            self._succ[k][f].append(t)
            self._pred[None][t].append(f)
            self._pred[k][t].append(f)

    def succs(self, n: int, kind: Optional[str] = None) -> list[int]:
        return list(self._succ[kind][n])

    def preds(self, n: int, kind: Optional[str] = None) -> list[int]:
        return list(self._pred[kind][n])

    def rpo(self) -> list[int]:
        """Nodes reachable from entry in reverse postorder (successors taken by id)."""
        seen = {self.entry}
        order: list[int] = []
        stack = [(self.entry, iter(sorted(self.succs(self.entry))))]
        while stack:
            node, it = stack[-1]
            for s in it:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, iter(sorted(self.succs(s)))))
                    break
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def to_dot(self) -> str:
        lines = [f'digraph "{self.class_name}.{self.method_name}" {{']
        for i, instr in enumerate(self.nodes):
            label = _instr_text(instr).replace('"', '\\"')
            shape = "doublecircle" if i in (self.entry, self.exit) else "box"
            lines.append(f'  n{i} [label="{i}: {label}", shape={shape}];')
        for f, t, k in self.edges:
            style = ' [style=dashed, label="exc"]' if k == EXCEPTIONAL else ""
            lines.append(f"  n{f} -> n{t}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _instr_text(i: Instr) -> str:
    if isinstance(i, Nop):
        return i.tag
    if isinstance(i, Alloc):
        return f"{i.dst} = new {i.class_name}({', '.join(i.args)}) @s{i.site}"
    if isinstance(i, CopyLocal):
        return f"{i.dst} = {i.src}"
    if isinstance(i, Const):
        return f"{i.dst} = {'null' if i.is_null else repr(i.value)}"
    if isinstance(i, LoadField):
        recv = i.recv if i.recv else i.field_class
        return f"{i.dst} = {recv}.{i.field}"
    if isinstance(i, StoreField):
        recv = i.recv if i.recv else i.field_class
        return f"{recv}.{i.field} = {i.src}"
    if isinstance(i, Invoke):
        recv = i.recv if i.recv is not None else i.static_class
        dst = f"{i.dst} = " if i.dst else ""
        return f"{dst}{recv}.{i.method}({', '.join(i.args)})"
    if isinstance(i, ReturnVal):
        return f"return {i.src}" if i.src else "return"
    if isinstance(i, Branch):
        op = "!=" if i.negated else "=="
        return f"branch {i.lhs} {op} {i.rhs} ? n{i.true_succ} : n{i.false_succ}"
    return repr(i)


# --- lowering --------------------------------------------------------------


class _Scope:
    """Lexical scope chain used to resolve bare names during lowering."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: dict[str, str] = {}  # local name -> type

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, type_name: str) -> None:
        self.names[name] = type_name


class Lowerer:
    def __init__(self, program: sx.Program, cls: sx.ClassDecl, method: sx.MethodDecl, libspec: LibrarySpec):
        self.program = program
        self.cls = cls
        self.method = method
        self.libspec = libspec
        is_ctor = method.return_type == ""
        self.cfg = Cfg(
            class_name=cls.name,
            method_name=f"<init>#{len(method.params)}" if is_ctor else method.name,
            source_name=program.source_name,
            is_constructor=is_ctor,
            arity=len(method.params),
            program=program,
            class_ast=cls,
            method_ast=method,
        )
        self.temp_counter = 0
        # finally-duplicate continuations, keyed per active Try frame
        self.frames: list[_TryFrame] = []
        self.edge_set: set[tuple[int, int, str]] = set()

    # graph plumbing

    def node(self, instr: Instr) -> int:
        self.cfg.nodes.append(instr)
        return len(self.cfg.nodes) - 1

    def edge(self, a: int, b: int, kind: str = NORMAL) -> None:
        if (a, b, kind) not in self.edge_set:
            self.edge_set.add((a, b, kind))
            self.cfg.edges.append((a, b, kind))

    def temp(self, type_name: str) -> str:
        self.temp_counter += 1
        name = f"%t{self.temp_counter}"
        self.cfg.local_types[name] = type_name
        return name

    def pos(self, node: sx.Node) -> tuple[int, int]:
        return self.program.pos_of(node.nid)

    def fail(self, node: sx.Node, message: str) -> SyntaxError:
        line, col = self.pos(node)
        return SyntaxError(message, line, col)

    # entry point

    def lower(self) -> Cfg:
        entry = self.node(Nop("entry"))
        exit_ = self.node(Nop("exit"))
        self.cfg.entry = entry
        self.cfg.exit = exit_
        scope = _Scope()
        if not self.method.is_static:
            scope.declare(THIS, self.cls.name)
            self.cfg.local_types[THIS] = self.cls.name
        for p in self.method.params:
            scope.declare(p.name, p.type_name)
            self.cfg.local_types[p.name] = p.type_name
        tails = self.lower_block(self.method.body, [entry], scope)
        for t in tails:
            self.edge(t, exit_)
        self._prune_unreachable()
        self.cfg.index_edges()
        return self.cfg

    def _prune_unreachable(self) -> None:
        succs: dict[int, list[int]] = {}
        for a, b, _k in self.cfg.edges:
            succs.setdefault(a, []).append(b)
        reach = {self.cfg.entry}
        work = [self.cfg.entry]
        while work:
            n = work.pop()
            for s in succs.get(n, ()):
                if s not in reach:
                    reach.add(s)
                    work.append(s)
        reach.add(self.cfg.exit)
        keep = sorted(reach)
        remap = {old: new for new, old in enumerate(keep)}
        self.cfg.nodes = [self.cfg.nodes[i] for i in keep]
        self.cfg.edges = [(remap[a], remap[b], k) for (a, b, k) in self.cfg.edges if a in reach and b in reach]
        self.cfg.entry = remap[self.cfg.entry]
        self.cfg.exit = remap[self.cfg.exit]
        for instr in self.cfg.nodes:
            if isinstance(instr, Branch):
                instr.true_succ = remap.get(instr.true_succ, -1)
                instr.false_succ = remap.get(instr.false_succ, -1)

    # statements; every lower_* takes the current dangling tails and returns the new ones

    def lower_block(self, block: sx.Block, tails: list[int], scope: _Scope) -> list[int]:
        inner = _Scope(scope)
        for stmt in block.stmts:
            if not tails:
                break  # unreachable trailing code is not lowered
            tails = self.lower_stmt(stmt, tails, inner)
        return tails

    def lower_stmt(self, stmt: sx.Stmt, tails: list[int], scope: _Scope) -> list[int]:
        if isinstance(stmt, sx.LocalDecl):
            if stmt.name in scope.names:
                raise self.fail(stmt, f"duplicate local {stmt.name}")
            scope.declare(stmt.name, stmt.type_name)
            self.cfg.local_types.setdefault(stmt.name, stmt.type_name)
            if stmt.init is not None:
                tails, src = self.lower_expr(stmt.init, tails, scope)
                n = self.node(CopyLocal(stmt.name, src))
                return self.connect(tails, n)
            n = self.node(Const(stmt.name, None, is_null=True))
            return self.connect(tails, n)
        if isinstance(stmt, sx.Assign):
            return self.lower_assign(stmt, tails, scope)
        if isinstance(stmt, sx.ExprStmt):
            tails, _ = self.lower_expr(stmt.expr, tails, scope, want_value=False)
            return tails
        if isinstance(stmt, sx.If):
            tails, branch = self.lower_cond(stmt.cond, tails, scope)
            then_head = self.node(Nop("then"))
            self.edge(branch, then_head)
            self.cfg.nodes[branch].true_succ = then_head  # type: ignore[attr-defined]
            then_tails = self.lower_block(stmt.then_block, [then_head], scope)
            else_head = self.node(Nop("else"))
            self.edge(branch, else_head)
            self.cfg.nodes[branch].false_succ = else_head  # type: ignore[attr-defined]
            if stmt.else_block is not None:
                else_tails = self.lower_block(stmt.else_block, [else_head], scope)
            else:
                else_tails = [else_head]
            return then_tails + else_tails
        if isinstance(stmt, sx.While):
            head = self.node(Nop("loop-head"))
            tails = self.connect(tails, head)
            cond_tails, branch = self.lower_cond(stmt.cond, tails, scope)
            body_head = self.node(Nop("loop-body"))
            self.edge(branch, body_head)
            self.cfg.nodes[branch].true_succ = body_head  # type: ignore[attr-defined]
            body_tails = self.lower_block(stmt.body, [body_head], scope)
            for t in body_tails:
                self.edge(t, head)
            after = self.node(Nop("loop-exit"))
            self.edge(branch, after)
            self.cfg.nodes[branch].false_succ = after  # type: ignore[attr-defined]
            return [after]
        if isinstance(stmt, sx.Try):
            return self.lower_try(stmt, tails, scope)
        if isinstance(stmt, sx.Return):
            src = None
            if stmt.value is not None:
                tails, src = self.lower_expr(stmt.value, tails, scope)
            tails = self.run_finallies_for_return(tails)
            ret = self.node(ReturnVal(src))
            tails = self.connect(tails, ret)
            self.edge(ret, self.cfg.exit)
            return []
        raise AssertionError(f"unloweredable statement {stmt!r}")  # pragma: no cover

    def connect(self, tails: list[int], n: int) -> list[int]:
        for t in tails:
            self.edge(t, n)
        return [n]

    def lower_assign(self, stmt: sx.Assign, tails: list[int], scope: _Scope) -> list[int]:
        target = stmt.target
        if isinstance(target, sx.VarRef):
            kind, info = self.resolve_name(target, scope)
            if kind == "local":
                tails, src = self.lower_expr(stmt.value, tails, scope)
                n = self.node(CopyLocal(target.name, src))
                return self.connect(tails, n)
            if kind == "field":
                tails, src = self.lower_expr(stmt.value, tails, scope)
                n = self.node(StoreField(THIS, target.name, src, self.cls.name, ast_nid=stmt.nid))
                return self.connect(tails, n)
            if kind == "static-field":
                tails, src = self.lower_expr(stmt.value, tails, scope)
                n = self.node(StoreField(None, target.name, src, info, ast_nid=stmt.nid))
                return self.connect(tails, n)
            raise self.fail(target, f"cannot assign to {target.name}")
        # FieldRef target
        recv = target.receiver
        if isinstance(recv, sx.VarRef):
            kind, info = self.resolve_name(recv, scope)
            if kind == "class":
                tails, src = self.lower_expr(stmt.value, tails, scope)
                n = self.node(StoreField(None, target.name, src, info, ast_nid=stmt.nid))
                return self.connect(tails, n)
        tails, recv_op = self.lower_expr(recv, tails, scope)
        recv_type = self.cfg.local_types.get(recv_op, "?")
        tails, src = self.lower_expr(stmt.value, tails, scope)
        n = self.node(StoreField(recv_op, target.name, src, recv_type, ast_nid=stmt.nid))
        return self.connect(tails, n)

    def lower_try(self, stmt: sx.Try, tails: list[int], scope: _Scope) -> list[int]:
        body_frame = _TryFrame(self, stmt, scope, catch_active=stmt.catch_block is not None)
        self.frames.append(body_frame)
        body_tails = self.lower_block(stmt.body, tails, scope)
        self.frames.pop()
        catch_tails: list[int] = []
        catch_frame: Optional[_TryFrame] = None
        if stmt.catch_block is not None and body_frame.catch_created():
            # while inside the catch block, this try's catch no longer applies
            # but its finally (if any) still must run on every exit path
            catch_frame = _TryFrame(self, stmt, scope, catch_active=False)
            self.frames.append(catch_frame)
            catch_scope = _Scope(scope)
            catch_scope.declare(stmt.catch_name or "e", stmt.catch_type or "Exception")
            self.cfg.local_types.setdefault(stmt.catch_name or "e", stmt.catch_type or "Exception")
            catch_tails = self.lower_block(stmt.catch_block, [body_frame.catch_head()], scope=catch_scope)
            self.frames.pop()
        if stmt.finally_block is not None:
            # normal completion duplicate
            fin_head = self.node(Nop("finally"))
            joined = body_tails + catch_tails
            out: list[int] = []
            if joined:
                for t in joined:
                    self.edge(t, fin_head)
                out = self.lower_block(stmt.finally_block, [fin_head], scope)
        else:
            out = body_tails + catch_tails
        body_frame.seal(self)
        if catch_frame is not None:
            catch_frame.seal(self)
        return out

    def run_finallies_for_return(self, tails: list[int]) -> list[int]:
        """Duplicate every enclosing finally block (innermost first) on a return path."""
        active = self.frames
        for idx in range(len(active) - 1, -1, -1):
            frame = active[idx]
            if frame.stmt.finally_block is not None:
                head = self.node(Nop("finally-return"))
                tails = self.connect(tails, head)
                # exceptions thrown inside a finally propagate outward, never
                # back into the same finally
                self.frames = active[:idx]
                tails = self.lower_block(frame.stmt.finally_block, tails, frame.outer_scope)
                self.frames = active
        return tails

    def exception_target(self, level: int) -> tuple[int, bool]:
        """Handler node for an exception raised while `level` frames are active.

        Returns (node, handled): handled is False when the exception leaves the
        method, in which case the node is the exit and the edge is exceptional.
        """
        for idx in range(level - 1, -1, -1):
            frame = self.frames[idx]
            if frame.catch_active:
                return frame.catch_head(), True
            if frame.stmt.finally_block is not None:
                # try-finally without an applicable catch: run the finally
                # duplicate, which then keeps unwinding outward
                return frame.exc_chain_head(idx), True
        return self.cfg.exit, False

    def add_throw_edges(self, thrower: int) -> None:
        target, _handled = self.exception_target(len(self.frames))
        self.edge(thrower, target, EXCEPTIONAL)

    # expressions; return (tails, operand)

    def lower_expr(
        self, expr: sx.Expr, tails: list[int], scope: _Scope, want_value: bool = True
    ) -> tuple[list[int], str]:
        if isinstance(expr, sx.NullLit):
            t = self.temp("?")
            n = self.node(Const(t, None, is_null=True))
            return self.connect(tails, n), t
        if isinstance(expr, sx.IntLit):
            t = self.temp("int")
            n = self.node(Const(t, expr.value, is_null=False))
            return self.connect(tails, n), t
        if isinstance(expr, sx.StrLit):
            t = self.temp("String")
            n = self.node(Const(t, expr.value, is_null=False))
            return self.connect(tails, n), t
        if isinstance(expr, sx.VarRef):
            kind, info = self.resolve_name(expr, scope)
            if kind == "local":
                return tails, expr.name
            if kind == "field":
                fld = self.cls.field_named(expr.name)
                t = self.temp(fld.declared_type if fld else "?")
                n = self.node(LoadField(t, THIS, expr.name, self.cls.name, ast_nid=expr.nid))
                return self.connect(tails, n), t
            if kind == "static-field":
                decl_cls = self.program.class_named(info)
                fld = decl_cls.field_named(expr.name) if decl_cls else None
                t = self.temp(fld.declared_type if fld else "?")
                n = self.node(LoadField(t, None, expr.name, info, ast_nid=expr.nid))
                return self.connect(tails, n), t
            raise self.fail(expr, f"unresolved name {expr.name}")
        if isinstance(expr, sx.FieldRef):
            recv = expr.receiver
            if isinstance(recv, sx.VarRef):
                kind, info = self.resolve_name(recv, scope)
                if kind == "class":
                    decl_cls = self.program.class_named(info)
                    fld = decl_cls.field_named(expr.name) if decl_cls else None
                    t = self.temp(fld.declared_type if fld else "?")
                    n = self.node(LoadField(t, None, expr.name, info, ast_nid=expr.nid))
                    return self.connect(tails, n), t
            tails, recv_op = self.lower_expr(recv, tails, scope)
            recv_type = self.cfg.local_types.get(recv_op, "?")
            decl_cls = self.program.class_named(recv_type)
            fld = decl_cls.field_named(expr.name) if decl_cls else None
            t = self.temp(fld.declared_type if fld else "?")
            n = self.node(LoadField(t, recv_op, expr.name, recv_type, ast_nid=expr.nid))
            return self.connect(tails, n), t
        if isinstance(expr, sx.New):
            arg_ops: list[str] = []
            for a in expr.args:
                tails, op = self.lower_expr(a, tails, scope)
                arg_ops.append(op)
            t = self.temp(expr.class_name)
            n = self.node(Alloc(t, expr.class_name, expr.site, arg_ops, ast_nid=expr.nid))
            tails = self.connect(tails, n)
            self.add_throw_edges(n)
            return tails, t
        if isinstance(expr, sx.Call):
            recv = expr.receiver
            static_class: Optional[str] = None
            recv_op: Optional[str] = None
            if isinstance(recv, sx.VarRef):
                kind, info = self.resolve_name(recv, scope)
                if kind == "class":
                    static_class = info
                else:
                    tails, recv_op = self.lower_expr(recv, tails, scope)
            else:
                tails, recv_op = self.lower_expr(recv, tails, scope)
            arg_ops = []
            for a in expr.args:
                tails, op = self.lower_expr(a, tails, scope)
                arg_ops.append(op)
            dst = None
            ret_type = self.callee_return_type(static_class, recv_op, expr.method)
            if want_value or ret_type not in ("void", "?"):
                dst = self.temp(ret_type if ret_type != "void" else "?")
            n = self.node(Invoke(recv_op, static_class, expr.method, arg_ops, dst, ast_nid=expr.nid))
            tails = self.connect(tails, n)
            self.add_throw_edges(n)
            return tails, dst if dst is not None else self.null_temp(tails)[1]
        if isinstance(expr, sx.Eq):
            raise self.fail(expr, "equality tests are only legal as conditions")
        raise AssertionError(f"unlowerable expression {expr!r}")  # pragma: no cover

    def null_temp(self, tails: list[int]) -> tuple[list[int], str]:
        t = self.temp("?")
        return tails, t

    def callee_return_type(self, static_class: Optional[str], recv_op: Optional[str], method: str) -> str:
        owner = static_class if static_class else self.cfg.local_types.get(recv_op or "", "?")
        cls = self.program.class_named(owner)
        if cls is not None:
            m = cls.method_named(method)
            return m.return_type if m else "?"
        if self.libspec.has_class(owner):
            lm = self.libspec.method(owner, method)
            if lm is not None:
                return "void" if lm.return_ownership == "void" else "?"
        return "?"

    def lower_cond(self, cond: sx.Expr, tails: list[int], scope: _Scope) -> tuple[list[int], int]:
        """Lower a condition to a Branch node; returns (tails-unused, branch node id)."""
        if isinstance(cond, sx.Eq):
            tails, lhs = self.lower_expr(cond.lhs, tails, scope)
            tails, rhs = self.lower_expr(cond.rhs, tails, scope)
            branch = self.node(Branch(lhs, rhs, cond.negated))
        else:
            # bare condition: truthy means non-null
            tails, op = self.lower_expr(cond, tails, scope)
            t = self.temp("?")
            null_node = self.node(Const(t, None, is_null=True))
            tails = self.connect(tails, null_node)
            branch = self.node(Branch(op, t, negated=True))
        for t_ in tails:
            self.edge(t_, branch)
        return [branch], branch

    def resolve_name(self, ref: sx.VarRef, scope: _Scope) -> tuple[str, str]:
        """Classify a bare name: local, field (of this), static-field, or class."""
        if scope.lookup(ref.name) is not None:
            return "local", scope.lookup(ref.name) or "?"
        fld = self.cls.field_named(ref.name)
        if fld is not None:
            if fld.has("static"):
                return "static-field", self.cls.name
            if self.method.is_static:
                raise self.fail(ref, f"instance field {ref.name} referenced from static context")
            return "field", self.cls.name
        if self.program.class_named(ref.name) is not None or self.libspec.has_class(ref.name):
            return "class", ref.name
        if ref.name == THIS:
            raise self.fail(ref, "this is not available in a static context")
        raise self.fail(ref, f"unresolved name {ref.name}")


class _TryFrame:
    """Bookkeeping for one active try statement during lowering."""

    def __init__(self, lowerer: Lowerer, stmt: sx.Try, outer_scope: _Scope, catch_active: bool):
        self.stmt = stmt
        self.outer_scope = outer_scope
        self.catch_active = catch_active
        self._lowerer = lowerer
        self._catch_head: Optional[int] = None
        self._exc_head: Optional[int] = None
        self._exc_pending_level: Optional[int] = None

    def catch_head(self) -> int:
        if self._catch_head is None:
            self._catch_head = self._lowerer.node(Nop("catch"))
        return self._catch_head

    def catch_created(self) -> bool:
        return self._catch_head is not None

    def exc_chain_head(self, my_level: int) -> int:
        """Head of the exception-propagation finally duplicate (built lazily, sealed later)."""
        if self._exc_head is None:
            self._exc_head = self._lowerer.node(Nop("finally-exc"))
            self._exc_pending_level = my_level
        return self._exc_head

    def seal(self, lowerer: Lowerer) -> None:
        """Finish the exception-propagation duplicate once the try has been lowered."""
        if self._exc_head is None:
            return
        level = self._exc_pending_level or 0
        saved = lowerer.frames
        lowerer.frames = saved[:level]
        tails = lowerer.lower_block(self.stmt.finally_block, [self._exc_head], self.outer_scope)  # type: ignore[arg-type]
        target, _handled = lowerer.exception_target(level)
        for t in tails:
            lowerer.edge(t, target, EXCEPTIONAL)
        lowerer.frames = saved


def lower(
    program: sx.Program, cls: sx.ClassDecl, method: sx.MethodDecl, libspec: Optional[LibrarySpec] = None
) -> Cfg:
    """Lower one method body to a Cfg satisfying the module invariants."""
    return Lowerer(program, cls, method, libspec or LibrarySpec()).lower()


# --- dataflow solver ----------------------------------------------------------

Fact = TypeVar("Fact")

# a node visited this many times per CFG node means the flow does not converge
MAX_VISITS_PER_NODE = 500


def solve(
    cfg: Cfg,
    seeds: dict[int, Fact],
    flow: Callable[[int, Fact], dict[int, Fact]],
    meet: Callable[[Fact, Fact], Fact],
    backward: bool = False,
) -> tuple[dict[int, Fact], dict[tuple[int, int], Fact]]:
    """Worklist fixpoint over `cfg` (Kildall 1973) keeping one fact per edge.

    A node's in-fact is the meet of its seed and the facts on its in-edges
    (out-edges when `backward`) that carry one; it is computed when the node
    is popped, in reverse postorder (postorder when `backward`), and a node
    whose in-fact has not changed is skipped. `flow(node, in_fact)` maps
    successors (predecessors when `backward`) to out-facts; an edge it leaves
    out keeps its fact. Returns the in-fact of every visited node and the
    fact of every edge, keyed (source, target) in CFG direction. Raises
    RuntimeError when the flow does not converge.
    """
    order = cfg.rpo()
    if backward:
        order.reverse()
    rank = [len(order) + n for n in range(len(cfg.nodes))]  # nodes unreachable from entry go last
    for i, n in enumerate(order):
        rank[n] = i
    in_edges = cfg.succs if backward else cfg.preds
    heap = sorted((rank[n], n) for n in seeds)
    queued = set(seeds)
    facts: dict[int, Fact] = {}
    edges: dict[tuple[int, int], Fact] = {}
    visits_left = MAX_VISITS_PER_NODE * len(cfg.nodes)
    while heap:
        _rank, n = heapq.heappop(heap)
        queued.discard(n)
        keys = [(n, m) if backward else (m, n) for m in in_edges(n)]
        incoming = [edges[k] for k in keys if k in edges]
        if n in seeds:
            incoming.insert(0, seeds[n])
        fact = reduce(meet, incoming)
        if n in facts and facts[n] == fact:
            continue
        visits_left -= 1
        if visits_left < 0:
            raise RuntimeError(f"dataflow fixpoint diverged in {cfg.class_name}.{cfg.method_name}")
        facts[n] = fact
        for m, out in flow(n, fact).items():
            key = (m, n) if backward else (n, m)
            if key in edges and edges[key] == out:
                continue
            edges[key] = out
            if m not in queued:
                queued.add(m)
                heapq.heappush(heap, (rank[m], m))
    return facts, edges


# --- must-alias analysis ----------------------------------------------------

SiteTag = Optional[tuple]  # ("site", id) | ("null",) | None


@dataclass(frozen=True)
class AliasFact:
    """Partition of the method's locals into must-alias groups with optional tags."""

    groups: frozenset[frozenset[str]]
    tags: tuple[tuple[frozenset[str], tuple], ...]  # only tagged groups listed

    def tag_of(self, local: str) -> SiteTag:
        g = self.group_of(local)
        if g is None:
            return None
        for grp, tag in self.tags:
            if grp == g:
                return tag
        return None

    def group_of(self, local: str) -> Optional[frozenset[str]]:
        for g in self.groups:
            if local in g:
                return g
        return None


def _fact_from_parts(parts: dict[str, int], tags: dict[int, SiteTag]) -> AliasFact:
    by_gid: dict[int, set[str]] = {}
    for local, gid in parts.items():
        by_gid.setdefault(gid, set()).add(local)
    groups = frozenset(frozenset(v) for v in by_gid.values())
    tag_items = []
    for gid, members in by_gid.items():
        tag = tags.get(gid)
        if tag is not None:
            tag_items.append((frozenset(members), tag))
    tag_items.sort(key=lambda it: sorted(it[0]))
    return AliasFact(groups=groups, tags=tuple(tag_items))


class AliasSets:
    """Per-program-point must-alias partitions (facts before each node)."""

    def __init__(self, before: dict[int, AliasFact], after: dict[int, AliasFact]):
        self.before = before
        self.after = after

    def tag_before(self, node: int, local: str) -> SiteTag:
        fact = self.before.get(node)
        return fact.tag_of(local) if fact else None

    def aliases_before(self, node: int, local: str) -> frozenset[str]:
        fact = self.before.get(node)
        if fact is None:
            return frozenset({local})
        return fact.group_of(local) or frozenset({local})


def _alias_transfer(fact: AliasFact, instr: Instr, locals_: list[str], node_id: int) -> AliasFact:
    parts: dict[str, int] = {}
    tags: dict[int, SiteTag] = {}
    gid_of: dict[frozenset[str], int] = {}
    for i, g in enumerate(sorted(fact.groups, key=lambda g: sorted(g))):
        gid_of[g] = i
        for m in g:
            parts[m] = i
    for g, tag in fact.tags:
        tags[gid_of[g]] = tag
    next_gid = len(gid_of)

    def kill(dst: str) -> int:
        nonlocal next_gid
        parts[dst] = next_gid
        gid = next_gid
        next_gid += 1
        return gid

    if isinstance(instr, Alloc):
        gid = kill(instr.dst)
        tags[gid] = ("site", instr.site)
    elif isinstance(instr, CopyLocal):
        if instr.dst != instr.src:
            src_gid = parts.get(instr.src)
            if src_gid is None:
                src_gid = kill(instr.src)
            parts[instr.dst] = src_gid
    elif isinstance(instr, Const):
        gid = kill(instr.dst)
        if instr.is_null:
            tags[gid] = ("null",)
    elif isinstance(instr, Invoke) and instr.dst:
        gid = kill(instr.dst)
        tags[gid] = ("callret", node_id)
    elif isinstance(instr, LoadField) and instr.dst:
        kill(instr.dst)  # unknown value
    return _fact_from_parts(parts, {g: t for g, t in tags.items() if t is not None})


def _alias_meet(f1: AliasFact, f2: AliasFact, locals_: list[str]) -> AliasFact:
    sig: dict[str, tuple] = {}
    g1 = {m: g for g in f1.groups for m in g}
    g2 = {m: g for g in f2.groups for m in g}
    for name in locals_:
        sig[name] = (g1.get(name, frozenset({name})), g2.get(name, frozenset({name})))
    by_sig: dict[tuple, set[str]] = {}
    for name, s in sig.items():
        by_sig.setdefault(s, set()).add(name)
    parts: dict[str, int] = {}
    tags: dict[int, SiteTag] = {}
    for gid, (s, members) in enumerate(sorted(by_sig.items(), key=lambda kv: sorted(kv[1]))):
        for m in members:
            parts[m] = gid
        rep = sorted(members)[0]
        t1, t2 = f1.tag_of(rep), f2.tag_of(rep)
        if t1 is not None and t1 == t2:
            tags[gid] = t1
    return _fact_from_parts(parts, tags)


def must_alias(cfg: Cfg) -> AliasSets:
    """Forward must-alias fixpoint; meet at joins is partition intersection.

    Public API only: no step of the pipeline (check, infer, escape, repair)
    reads it.
    """
    locals_ = sorted(cfg.local_types)
    init = _fact_from_parts({name: i for i, name in enumerate(locals_)}, {})
    after: dict[int, AliasFact] = {}

    def flow(n: int, fact: AliasFact) -> dict[int, AliasFact]:
        after[n] = _alias_transfer(fact, cfg.nodes[n], locals_, n)
        return dict.fromkeys(cfg.succs(n), after[n])

    before, _edges = solve(cfg, {cfg.entry: init}, flow, lambda f1, f2: _alias_meet(f1, f2, locals_))
    return AliasSets(before, after)


# --- liveness ----------------------------------------------------------------


def instr_uses(instr: Instr) -> set[str]:
    if isinstance(instr, Alloc):
        return set(instr.args)
    if isinstance(instr, CopyLocal):
        return {instr.src}
    if isinstance(instr, LoadField):
        return {instr.recv} if instr.recv else set()
    if isinstance(instr, StoreField):
        out = {instr.src}
        if instr.recv:
            out.add(instr.recv)
        return out
    if isinstance(instr, Invoke):
        out = set(instr.args)
        if instr.recv:
            out.add(instr.recv)
        return out
    if isinstance(instr, ReturnVal):
        return {instr.src} if instr.src else set()
    if isinstance(instr, Branch):
        return {instr.lhs, instr.rhs}
    return set()


def instr_defs(instr: Instr) -> set[str]:
    dst = getattr(instr, "dst", None)
    return {dst} if dst else set()


def liveness(cfg: Cfg) -> dict[int, frozenset[str]]:
    """May-liveness of locals before each node (backward union fixpoint)."""
    live_in: dict[int, frozenset[str]] = {n: frozenset() for n in range(len(cfg.nodes))}

    def flow(n: int, live_out: frozenset[str]) -> dict[int, frozenset[str]]:
        instr = cfg.nodes[n]
        live_in[n] = frozenset(instr_uses(instr)) | (live_out - frozenset(instr_defs(instr)))
        return dict.fromkeys(cfg.preds(n), live_in[n])

    solve(cfg, dict.fromkeys(live_in, frozenset()), flow, frozenset.union, backward=True)
    return live_in


# --- path enumeration (test oracle support) ---------------------------------


def acyclic_paths(cfg: Cfg, limit: int = 20000) -> Iterator[list[int]]:
    """All simple entry->exit paths. Intended for small, loop-free CFGs."""
    path = [cfg.entry]
    seen = {cfg.entry}
    count = 0

    def walk(n: int) -> Iterator[list[int]]:
        nonlocal count
        if n == cfg.exit:
            count += 1
            if count > limit:
                raise RuntimeError("path explosion")
            yield list(path)
            return
        for s in sorted(cfg.succs(n)):
            if s in seen:
                continue
            seen.add(s)
            path.append(s)
            yield from walk(s)
            path.pop()
            seen.remove(s)

    yield from walk(cfg.entry)
