"""Control-flow graphs for MiniJ method bodies.

Lowering flattens nested expressions into three-address instructions; a
bare name is a local where ``syntax.local_refs`` says so, else a field or a
class. A value a local takes (a new, a call, a field load, null) is
defined by its own node with the local as its `dst`; only a value nested in
another instruction (an argument, a receiver, a stored or returned value)
goes through a fresh temporary (``%tN``). A string or int literal is an
operand itself, spelled as in the source (``3``, ``"abc"``): it is not a
local, not a liveness use, and `literal_type` reads its type off it. So is
the `null` a condition compares (`NULL`); any other `null` is lowered to a
node (`Const`), as the checker tracks which locals hold it.

Only Invoke and Alloc nodes can throw; they get an exceptional edge to the
innermost enclosing catch block, or else toward method exit through every
enclosing finally block. A throwing node writes its `dst` on its normal
out-edges only: on an exceptional one the local keeps what it held, and
every analysis here and the checker read it so. Where the completion of a
node that defines a named local would end the body or an exception path,
the node defines a temporary instead, which a `CopyLocal` after it copies
into the local (`Lowerer.unfold`). Finally blocks are duplicated per entry
path (normal completion, exception propagation, return), so the analyses
stay path-insensitive without losing the finally-always-runs guarantee.

Edges that continue exception propagation carry kind "exceptional"; the
normal-exit state of a method is therefore the meet over the exit node's
normal-kind in-edges. An edge out of a node is exceptional when its path
takes an exceptional step before the next node.

A lowering emits only nodes some analysis reads. A block's tails (the
nodes that fall through its end, and the pending edges of a block that
lowered none: an empty branch, a loop's exit, a catch or finally head)
connect straight to the next node lowered, so every node but exit has a
path from entry. Three kinds of `Nop` stay:
- "entry" and "exit";
- "to-exit", where pending edges of a block that lowered no node reach
  exit, normally at the body's end or exceptionally at the end of an
  exception path: a death there is pruned on the edge into the Nop, which
  is not exit's, so the checker still finds it and exit facts stay as they
  are;
- "split", on one of two out-edges of a node that would otherwise reach the
  same node (a branch with nothing on either side before its join, a
  throwing node's normal and exceptional edges past an empty catch):
  `solve` keeps one out-fact per successor, and each edge carries its own.

`solve` is the one dataflow engine: liveness, must-alias and the escape
taint here, and the checker's obligation dataflow, each give it a transfer
(`flow`) and a meet.

What depends only on the graph is computed once per lowering: the adjacency
index (one pass over `edges`), the reverse postorder, `solve`'s ranks and
whether a node starts a value (`Cfg.starts_values`) when the CFG is built;
liveness, the anchors lowered from each AST node (`Cfg.copies`), the nodes
a value can escape through (`Cfg.sinks`) and the taint of the values the
escape analysis asks about on first use (`Cfg.live_in`, `Cfg.taint_of`).
The checker asks for liveness only of a lowering that starts a value. A
CFG holds no AST: a warning's `Anchor` instruction carries its AST node's
id and the warning ordinal the lowering numbers from its one `local_refs`
walk. So the memo hands out the stored lowering itself on every hit.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Optional, TypeVar, Union

from . import syntax as sx
from .errors import SyntaxError
from .libspec import LibrarySpec
from .printer import expr_text

NORMAL = "normal"
EXCEPTIONAL = "exceptional"

THIS = sx.THIS

Fact = TypeVar("Fact")


NULL = "null"  # the null literal as a Branch operand


def literal_type(op: str) -> Optional[str]:
    """The type of operand `op` when it is a literal, spelled as in the
    source ("int" for `3`, "String" for `"abc"`, "?" for `null`); None for
    a local."""
    first = op[:1]
    return "String" if first == '"' else "int" if first.isdigit() else "?" if op == NULL else None


# --- instructions ----------------------------------------------------------


@dataclass(slots=True)
class Instr:
    pass


@dataclass(slots=True)
class Nop(Instr):
    tag: str


@dataclass(slots=True)
class Alloc(Instr):
    dst: str
    class_name: str
    site: int
    args: list[str]
    ast_nid: int
    ordinal: int


@dataclass(slots=True)
class CopyLocal(Instr):
    dst: str
    src: str


@dataclass(slots=True)
class Const(Instr):
    """`dst = null`; a string or int literal is an operand, with no node, and
    so is a `null` a condition compares (`NULL`)."""

    dst: str


@dataclass(slots=True)
class LoadField(Instr):
    dst: str
    recv: Optional[str]  # local or "this"; None for static loads
    field: str
    field_class: str  # declaring class
    ast_nid: int = -1


@dataclass(slots=True)
class StoreField(Instr):
    recv: Optional[str]
    field: str
    src: str
    field_class: str
    ast_nid: int
    ordinal: int


@dataclass(slots=True)
class Invoke(Instr):
    recv: Optional[str]  # receiver local; None for static calls
    static_class: Optional[str]
    owner: str  # the class whose method is called: static_class, or the receiver's declared type
    method: str
    args: list[str]
    dst: Optional[str]
    ret_type: str  # the type of its result: the callee's return type, "?" when void or unknown
    ast_nid: int
    ordinal: int


Anchor = Union[Alloc, Invoke, StoreField]


@dataclass(slots=True)
class ReturnVal(Instr):
    src: Optional[str]


@dataclass(slots=True)
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
    method_name: str  # syntax.member_key of the method
    nodes: list[Instr] = field(default_factory=list)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    entry: int = -1
    exit: int = -1
    local_types: dict[str, str] = field(default_factory=dict)
    params: list[str] = field(default_factory=list)  # the member's parameter names, in order
    # adjacency index over `edges`, in `edges` order so meets and warnings
    # keep a fixed order: successors per kind (None for any) and node, and
    # predecessors of any kind per node
    _succ: dict[Optional[str], list[tuple[int, ...]]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _pred: list[tuple[int, ...]] = field(default_factory=list, init=False, repr=False, compare=False)
    # whether a node starts a value (an `Alloc`, an `Invoke` with a `dst`):
    # with none, no origin exists, so nothing can die and no run reads liveness
    starts_values: bool = field(default=False, init=False, repr=False, compare=False)
    _rpo: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    # AST node id -> the anchors lowered from it, in node order, and the
    # nodes that store, return or pass an operand: built on first use
    _copies: Optional[dict[int, tuple[int, ...]]] = field(default=None, init=False, repr=False, compare=False)
    _sinks: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    # `solve`'s setup per direction (backward?): each node's rank in the visiting order
    _ranks: dict[bool, list[int]] = field(default_factory=dict, init=False, repr=False, compare=False)
    # liveness by node id, solved on first use
    _live: Optional[tuple[frozenset[str], ...]] = field(default=None, init=False, repr=False, compare=False)
    # the taint of `taint_starts` by node id and each start's bit, solved on first use
    _taint: Optional[tuple[tuple[TaintFact, ...], dict[TaintStart, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def index_edges(self) -> None:
        """Build the adjacency index, the reverse postorder, `solve`'s ranks
        and `starts_values`; lowering calls it once `nodes` and `edges` are
        final. The index is one pass over `edges`, and only a node with an
        exceptional out-edge gets per-kind successor tuples of its own: any
        other has its any-kind tuple as its normal one and `()` as its
        exceptional one (a node whose out-edges are all exceptional, the
        other way round), as the memo keeps every lowering of a program
        family until another family replaces it."""
        succ: list[list[int]] = [[] for _ in self.nodes]
        pred: list[list[int]] = [[] for _ in self.nodes]
        # node with an exceptional out-edge -> its normal and exceptional successors,
        # begun at its first exceptional out-edge
        split: dict[int, tuple[list[int], list[int]]] = {}
        for f, t, k in self.edges:
            ss = succ[f]
            ss.append(t)
            pred[t].append(f)
            if k == EXCEPTIONAL:
                kinds = split.get(f)
                if kinds is None:
                    split[f] = kinds = (ss[:-1], [])
                kinds[1].append(t)
            elif f in split:
                split[f][0].append(t)
        any_kind = [tuple(ss) for ss in succ]
        normal = any_kind.copy()
        exceptional: list[tuple[int, ...]] = [()] * len(any_kind)
        for f, (ns, xs) in split.items():
            if ns:
                normal[f], exceptional[f] = tuple(ns), tuple(xs)
            else:
                normal[f], exceptional[f] = (), any_kind[f]
        self._succ = {None: any_kind, NORMAL: normal, EXCEPTIONAL: exceptional}
        self._pred = [tuple(ps) for ps in pred]
        self.starts_values = any(isinstance(ins, Alloc) or (isinstance(ins, Invoke) and ins.dst) for ins in self.nodes)
        self._rpo = rpo = self._reverse_postorder()
        forward = list(range(len(rpo), len(rpo) + len(self.nodes)))  # exit goes last if no path reaches it
        backward = forward.copy()
        for i, n in enumerate(rpo):
            forward[n], backward[n] = i, len(rpo) - 1 - i
        self._ranks = {False: forward, True: backward}

    def _index_anchors(self) -> None:
        """Build `copies` and `sinks`, which only the escape analysis and
        repair read, in one walk of the nodes."""
        copies: dict[int, list[int]] = {}
        sinks: list[int] = []
        for n, ins in enumerate(self.nodes):
            if isinstance(ins, (Alloc, Invoke, StoreField)):
                copies.setdefault(ins.ast_nid, []).append(n)
            if isinstance(ins, (StoreField, ReturnVal)) or (isinstance(ins, (Alloc, Invoke)) and ins.args):
                sinks.append(n)
        self._copies = {nid: tuple(ns) for nid, ns in copies.items()}
        self._sinks = tuple(sinks)

    def copies(self, ast_nid: int) -> tuple[int, ...]:
        """The `Anchor` nodes lowered from the AST node `ast_nid`, in node
        order; `()` when none is. A node inside a finally block has one copy
        for each way out of its try (normal completion, exception, return)."""
        if self._copies is None:
            self._index_anchors()
        return self._copies.get(ast_nid, ())  # type: ignore[union-attr]

    @property
    def sinks(self) -> tuple[int, ...]:
        """The nodes that store, return or pass an operand, in node order."""
        if self._copies is None:
            self._index_anchors()
        return self._sinks

    def succs(self, n: int, kind: Optional[str] = None) -> tuple[int, ...]:
        """Successors of `n` along edges of `kind` (any kind when None), in `edges` order."""
        return self._succ[kind][n]

    def split_out(self, n: int, normal: Fact, thrown: Fact) -> dict[int, Fact]:
        """Out-facts of the throwing node `n`, whose write happens on its
        normal edges only: `normal` on those, `thrown` on the exceptional
        ones; a successor reached both ways (exit) gets `normal`."""
        outs = dict.fromkeys(self._succ[NORMAL][n], normal)
        for s in self._succ[EXCEPTIONAL][n]:
            outs.setdefault(s, thrown)
        return outs

    def preds(self, n: int) -> tuple[int, ...]:
        """Predecessors of `n` along edges of any kind, in `edges` order."""
        return self._pred[n]

    def reachable(self, starts: Iterable[int], kind: Optional[str] = None, blocked: Collection[int] = ()) -> set[int]:
        """Nodes reachable from `starts` (themselves included) along edges of
        `kind` (any kind when None), never entering a node in `blocked`."""
        succ = self._succ[kind]
        seen: set[int] = set()
        work = [n for n in starts if n not in blocked]
        while work:
            n = work.pop()
            if n not in seen:
                seen.add(n)
                work.extend(t for t in succ[n] if t not in blocked)
        return seen

    def field_stores(self, field_class: str, field_name: str) -> tuple[list[int], set[int]]:
        """The nodes that store the field `field_name` of `field_class`, in
        node order, and those of them a path may run twice: each store that
        reaches a store (itself, round a cycle, included) and each store it
        reaches."""
        stores = [
            i
            for i, ins in enumerate(self.nodes)
            if isinstance(ins, StoreField) and ins.field == field_name and ins.field_class == field_class
        ]
        doubled: set[int] = set()
        for a in stores:
            reached = self.reachable(self.succs(a)).intersection(stores)
            if reached:
                doubled |= reached | {a}
        return stores, doubled

    def rpo(self) -> list[int]:
        """Nodes reachable from entry in reverse postorder (successors taken in `edges` order); a fresh list."""
        return list(self._rpo)

    def live_in(self) -> tuple[frozenset[str], ...]:
        """`liveness(self)` by node id, solved once per lowering."""
        if self._live is None:
            live = liveness(self)
            self._live = tuple(live[n] for n in range(len(self.nodes)))
        return self._live

    def taint_of(self, node: int, local: str) -> tuple[tuple[TaintFact, ...], int]:
        """The taint of the value `local` gets at `node`: per node id, the
        locals that may hold it are those whose mask has the returned bit.
        A value of `taint_starts` is read off one solve of them all, done
        once per lowering; any other is solved alone, by the same solver,
        and not kept."""
        if self._taint is None:
            starts = taint_starts(self)
            self._taint = (taint(self, starts), {start: 1 << i for i, start in enumerate(starts)})
        facts, bits = self._taint
        bit = bits.get((node, local))
        if bit is None:
            return taint(self, [(node, local)]), 1
        return facts, bit

    def _reverse_postorder(self) -> tuple[int, ...]:
        succ = self._succ[None]
        seen = {self.entry}
        order: list[int] = []
        stack = [(self.entry, iter(succ[self.entry]))]
        while stack:
            node, it = stack[-1]
            for s in it:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, iter(succ[s])))
                    break
            else:
                order.append(node)
                stack.pop()
        return tuple(reversed(order))

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
        return f"{i.dst} = null"
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

# An edge still waiting for its target, the next node lowered on its path:
# (source, kind, side), where side is the Branch slot it fills (True, False)
# or None. A block's tails are the nodes that fall through its end, each with
# a normal edge to come, and the pending edges of a block that lowered no
# node (a `Group`), which keep their own kinds and sides.
Pending = tuple[int, str, Optional[bool]]
Group = list[Pending]
Tails = list[Union[int, Group]]


def _pending(tails: Tails, kind: str = NORMAL) -> Group:
    """The pending edges of `tails`: a node's leave it with `kind`, and a
    group's are exceptional when `kind` is (one exceptional step makes the
    whole path exceptional)."""
    out: Group = []
    for t in tails:
        if isinstance(t, int):
            out.append((t, kind, None))
        elif kind == NORMAL:
            out.extend(t)
        else:
            out.extend((src, kind, side) for src, _k, side in t)
    return out


class Lowerer:
    def __init__(self, program: sx.Program, cls: sx.ClassDecl, method: sx.MethodDecl, libspec: LibrarySpec):
        self.program = program
        self.cls = cls
        self.method = method
        self.libspec = libspec
        self.names = sx.local_refs(method)
        self.cfg = Cfg(class_name=cls.name, method_name=sx.member_key(method))
        # warning ordinals by node id: a Call's index among all Calls, a New's among the News of its class
        self.ordinals = {call.nid: i for i, call in enumerate(self.names.calls)}
        per_class: dict[str, int] = {}
        for e in self.names.news:
            self.ordinals[e.nid] = per_class[e.class_name] = per_class.get(e.class_name, -1) + 1
        self.store_ordinals: dict[tuple[str, str], dict[int, int]] = {}
        self.temp_counter = 0
        self.frames: list[_TryFrame] = []  # the try statements the lowering is inside, outermost first
        self.linked: set[tuple[int, int, str, Optional[bool]]] = set()  # each (source, target, kind, side) linked
        self.pairs: set[tuple[int, int]] = set()  # each (source, target) with an edge
        # each node that defines a named local itself, with the type of the temporary `unfold` gives it
        self.folded: dict[int, str] = {}

    # graph plumbing

    def node(self, instr: Instr) -> int:
        self.cfg.nodes.append(instr)
        return len(self.cfg.nodes) - 1

    def link(self, src: int, dst: int, kind: str = NORMAL, side: Optional[bool] = None) -> None:
        """The edge `src` -> `dst`, filling Branch slot `side`. When another
        out-edge of `src` already reaches `dst` on a different way, this one
        goes through a `split` Nop, as a solve keeps one out-fact per
        successor. Into exit a call's normal and exceptional edges stay
        apart by their kinds: exit's in-fact is the meet of its normal ones."""
        if (src, dst, kind, side) in self.linked:
            return
        self.linked.add((src, dst, kind, side))
        if (src, dst) in self.pairs and (side is not None or dst != self.cfg.exit):
            split = self.node(Nop("split"))
            self.link(src, split, kind, side)
            self.link(split, dst, kind)
            return
        self.pairs.add((src, dst))
        self.cfg.edges.append((src, dst, kind))
        if side is not None:
            branch: Branch = self.cfg.nodes[src]  # type: ignore[assignment]
            if side:
                branch.true_succ = dst
            else:
                branch.false_succ = dst

    def connect(self, tails: Tails, n: int) -> list[int]:
        """Link `tails` to `n`, the next node on their paths; `[n]` is the new
        tails."""
        for t in tails:
            if isinstance(t, int):
                self.link(t, n)
            else:
                for src, kind, side in t:
                    self.link(src, n, kind, side)
        return [n]

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

    def store_ordinal(self, stmt: sx.Assign, field_class: str) -> int:
        """The warning ordinal of a store to the field of `field_class` its
        target names: its index among those `sx.stores_to_field` lists, or 0."""
        key = (field_class, stmt.target.name)
        if key not in self.store_ordinals:
            stores = sx.stores_to_field(self.cls, self.method, *key, self.names)
            self.store_ordinals[key] = {s.nid: i for i, s in enumerate(stores)}
        return self.store_ordinals[key].get(stmt.nid, 0)

    # entry point

    def lower(self) -> Cfg:
        entry = self.node(Nop("entry"))
        exit_ = self.node(Nop("exit"))
        self.cfg.entry = entry
        self.cfg.exit = exit_
        if not self.method.is_static:
            self.cfg.local_types[THIS] = self.cls.name
        for p in self.method.params:
            self.cfg.local_types[p.name] = p.type_name
            self.cfg.params.append(p.name)
        self.to_exit(self.unfold(self.lower_block(self.method.body, [entry])), NORMAL)
        self.cfg.index_edges()
        return self.cfg

    def to_exit(self, tails: Tails, kind: str) -> None:
        """Link `tails` into exit on edges of `kind`. A block that lowered no
        node reaches exit through its own `to-exit` Nop, which keeps a death
        there on an edge that does not enter exit."""
        for t in tails:
            if isinstance(t, int):
                self.link(t, self.cfg.exit, kind)
            else:
                nop = self.node(Nop("to-exit"))
                self.connect([t], nop)
                self.link(nop, self.cfg.exit, kind)

    # statements; every lower_* takes the current tails and returns the new ones

    def lower_block(self, block: sx.Block, tails: Tails) -> Tails:
        for stmt in block.stmts:
            if not tails:
                break  # unreachable trailing code is not lowered
            tails = self.lower_stmt(stmt, tails)
        return tails

    def lower_stmt(self, stmt: sx.Stmt, tails: Tails) -> Tails:
        if isinstance(stmt, sx.LocalDecl):
            if self.names.redeclares(stmt):
                raise self.fail(stmt, f"duplicate local {stmt.name}")
            self.cfg.local_types.setdefault(stmt.name, stmt.type_name)
            if stmt.init is not None:
                return self.assign_local(stmt.name, stmt.init, tails)
            return self.connect(tails, self.node(Const(stmt.name)))
        if isinstance(stmt, sx.Assign):
            return self.lower_assign(stmt, tails)
        if isinstance(stmt, sx.ExprStmt):
            tails, _ = self.lower_expr(stmt.expr, tails, want_value=False)
            return tails
        if isinstance(stmt, sx.If):
            branch = self.lower_cond(stmt.cond, tails)
            then_tails = self.lower_block(stmt.then_block, [[(branch, NORMAL, True)]])
            else_tails: Tails = [[(branch, NORMAL, False)]]
            if stmt.else_block is not None:
                else_tails = self.lower_block(stmt.else_block, else_tails)
            return then_tails + else_tails
        if isinstance(stmt, sx.While):
            head = len(self.cfg.nodes)  # the condition's first node, where the body loops back
            branch = self.lower_cond(stmt.cond, tails)
            self.connect(self.lower_block(stmt.body, [[(branch, NORMAL, True)]]), head)
            return [[(branch, NORMAL, False)]]
        if isinstance(stmt, sx.Try):
            return self.lower_try(stmt, tails)
        if isinstance(stmt, sx.Return):
            src = None
            if stmt.value is not None:
                tails, src = self.lower_expr(stmt.value, tails)
            tails = self.run_finallies_for_return(tails)
            if tails:  # else a finally block returned first
                ret = self.node(ReturnVal(src))
                self.connect(tails, ret)
                self.link(ret, self.cfg.exit)
            return []
        raise AssertionError(f"unloweredable statement {stmt!r}")  # pragma: no cover

    def lower_assign(self, stmt: sx.Assign, tails: Tails) -> Tails:
        target = stmt.target
        if isinstance(target, sx.VarRef):
            kind, info = self.resolve_name(target)
            if kind == "local":
                return self.assign_local(target.name, stmt.value, tails)
            if kind == "field":
                return self.store_field(stmt, tails, THIS, self.cls.name)
            if kind == "static-field":
                return self.store_field(stmt, tails, None, info)
            raise self.fail(target, f"cannot assign to {target.name}")
        # FieldRef target
        recv = target.receiver
        if isinstance(recv, sx.VarRef):
            kind, info = self.resolve_name(recv)
            if kind == "class":
                return self.store_field(stmt, tails, None, info)
        tails, recv_op = self.lower_expr(recv, tails)
        return self.store_field(stmt, tails, recv_op, self.operand_type(recv, recv_op))

    def assign_local(self, name: str, value: sx.Expr, tails: Tails) -> Tails:
        """`name = value`: a new, a call, a field load or null defines `name`
        itself, and any other value (a local, a literal) is copied into it."""
        tails, src = self.lower_expr(value, tails, into=name)
        if src is None:
            return tails
        return self.connect(tails, self.node(CopyLocal(name, src)))

    def store_field(self, stmt: sx.Assign, tails: Tails, recv: Optional[str], field_class: str) -> Tails:
        """Lower `stmt`'s value into its target's field of `field_class` through `recv` (None if static)."""
        tails, src = self.lower_expr(stmt.value, tails)
        ordinal = self.store_ordinal(stmt, field_class)
        return self.connect(tails, self.node(StoreField(recv, stmt.target.name, src, field_class, stmt.nid, ordinal)))

    def lower_try(self, stmt: sx.Try, tails: Tails) -> Tails:
        body_frame = _TryFrame(stmt, catch_active=stmt.catch_block is not None)
        self.frames.append(body_frame)
        out = self.lower_block(stmt.body, tails)
        self.frames.pop()
        catch_frame: Optional[_TryFrame] = None
        if body_frame.caught:
            # while inside the catch block, this try's catch no longer applies
            # but its finally (if any) still must run on every exit path
            catch_frame = _TryFrame(stmt, catch_active=False)
            self.frames.append(catch_frame)
            self.cfg.local_types.setdefault(stmt.catch_name or "e", stmt.catch_type or "Exception")
            out = out + self.lower_block(stmt.catch_block, [body_frame.caught])
            self.frames.pop()
        if stmt.finally_block is not None and out:
            # the normal-completion duplicate, entered by everything that
            # completes the body or the catch
            out = self.lower_block(stmt.finally_block, [_pending(out)])
        body_frame.seal(self)
        if catch_frame is not None:
            catch_frame.seal(self)
        return out

    def run_finallies_for_return(self, tails: Tails) -> Tails:
        """Duplicate every enclosing finally block (innermost first) on a return path."""
        active = self.frames
        for idx in range(len(active) - 1, -1, -1):
            frame = active[idx]
            if frame.stmt.finally_block is not None:
                # exceptions thrown inside a finally propagate outward, never
                # back into the same finally
                self.frames = active[:idx]
                if tails:
                    tails = self.lower_block(frame.stmt.finally_block, [_pending(tails)])
                self.frames = active
        return tails

    def throw(self, tails: Tails, level: int) -> None:
        """Send `tails` on exceptional edges to the handler of an exception
        raised while `level` frames are active: the innermost active catch,
        else the innermost finally's exception-propagation duplicate, which
        then keeps unwinding outward, else method exit."""
        for idx in range(level - 1, -1, -1):
            frame = self.frames[idx]
            if frame.catch_active or frame.stmt.finally_block is not None:
                edges = _pending(tails, EXCEPTIONAL)
                if frame.catch_active:
                    frame.caught.extend(edges)
                else:
                    frame.unwinding.extend(edges)
                    frame.level = idx
                return
        self.to_exit(tails, EXCEPTIONAL)

    def unfold(self, tails: Tails) -> Tails:
        """`tails` with each node among them that defines a named local
        itself given a temporary again, and a copy into the local after it
        on its way on. A throwing node writes its local on its normal
        out-edges only, so the copy keeps the shape the lowering had before
        the fold where the node's completion
        - ends the body, so that a death there is pruned on an edge that
          does not enter exit;
        - ends an exception path, whose exceptional edge carries no write,
          nor, into exit, any fact."""
        out: Tails = []
        for t in tails:
            if isinstance(t, int):
                out.append(self.copy_after(t) if t in self.folded else t)
            else:
                out.append([(self.copy_after(p[0]), *p[1:]) if p[1] == NORMAL and p[0] in self.folded else p for p in t])
        return out

    def copy_after(self, n: int) -> int:
        """Give the node `n` that defines a named local a temporary instead,
        and copy it into the local in a node after `n`; returns the copy."""
        ins = self.cfg.nodes[n]
        local, ins.dst = ins.dst, self.temp(self.folded.pop(n))  # type: ignore[attr-defined]
        copy = self.node(CopyLocal(local, ins.dst))  # type: ignore[attr-defined]
        self.link(n, copy)
        return copy

    # expressions; return (tails, operand)

    def define(self, make: Callable[[str], Instr], type_name: str, into: Optional[str]) -> tuple[int, Optional[str]]:
        """The node `make(dst)` defining the local `into`, or a fresh
        temporary of `type_name` when `into` is None: its id, and the
        temporary (None when it defines `into`)."""
        if into is None:
            t = self.temp(type_name)
            return self.node(make(t)), t
        n = self.node(make(into))
        self.folded[n] = type_name
        return n, None

    def lower_expr(
        self, expr: sx.Expr, tails: Tails, into: Optional[str] = None, want_value: bool = True
    ) -> tuple[Tails, Optional[str]]:
        """Lower `expr`; returns the tails and the operand that holds its
        value: a local, a literal or a temporary. Given a local `into`, a
        new, a call, a field load or null defines it, and the operand is
        None. So it is for a call whose value is not wanted (`want_value`
        false), which defines a temporary only when its callee's return
        type is known and not void, as the checker may track what it
        returns."""
        if isinstance(expr, sx.NullLit):
            n, t = self.define(Const, "?", into)
            return self.connect(tails, n), t
        if isinstance(expr, (sx.IntLit, sx.StrLit)):
            return tails, expr_text(expr)  # a literal operand: no node, no local
        if isinstance(expr, sx.VarRef):
            kind, info = self.resolve_name(expr)
            if kind == "local":
                return tails, expr.name
            if kind == "field":
                return self.load_field(expr, tails, THIS, self.cls.name, into)
            if kind == "static-field":
                return self.load_field(expr, tails, None, info, into)
            raise self.fail(expr, f"unresolved name {expr.name}")
        if isinstance(expr, sx.FieldRef):
            recv = expr.receiver
            if isinstance(recv, sx.VarRef):
                kind, info = self.resolve_name(recv)
                if kind == "class":
                    return self.load_field(expr, tails, None, info, into)
            tails, recv_op = self.lower_expr(recv, tails)
            return self.load_field(expr, tails, recv_op, self.operand_type(recv, recv_op), into)
        if isinstance(expr, sx.New):
            arg_ops: list[str] = []
            for a in expr.args:
                tails, op = self.lower_expr(a, tails)
                arg_ops.append(op)
            n, t = self.define(
                lambda dst: Alloc(dst, expr.class_name, expr.site, arg_ops, expr.nid, self.ordinals[expr.nid]),
                expr.class_name,
                into,
            )
            tails = self.connect(tails, n)
            self.throw([n], len(self.frames))
            return tails, t
        if isinstance(expr, sx.Call):
            recv = expr.receiver
            static_class: Optional[str] = None
            recv_op: Optional[str] = None
            if isinstance(recv, sx.VarRef):
                kind, info = self.resolve_name(recv)
                if kind == "class":
                    static_class = info
                else:
                    tails, recv_op = self.lower_expr(recv, tails)
            else:
                tails, recv_op = self.lower_expr(recv, tails)
            arg_ops = []
            for a in expr.args:
                tails, op = self.lower_expr(a, tails)
                arg_ops.append(op)
            owner = static_class or self.operand_type(recv, recv_op or "")
            ret_type = self.callee_return_type(owner, expr.method)
            result_type = ret_type if ret_type != "void" else "?"

            def invoke(dst: Optional[str]) -> Invoke:
                ordinal = self.ordinals[expr.nid]
                return Invoke(recv_op, static_class, owner, expr.method, arg_ops, dst, result_type, expr.nid, ordinal)

            if want_value or ret_type not in ("void", "?"):
                n, t = self.define(invoke, result_type, into)
            else:
                n, t = self.node(invoke(None)), None
            tails = self.connect(tails, n)
            self.throw([n], len(self.frames))
            return tails, t
        if isinstance(expr, sx.Eq):
            raise self.fail(expr, "equality tests are only legal as conditions")
        raise AssertionError(f"unlowerable expression {expr!r}")  # pragma: no cover

    def load_field(
        self,
        expr: Union[sx.VarRef, sx.FieldRef],
        tails: Tails,
        recv: Optional[str],
        field_class: str,
        into: Optional[str],
    ) -> tuple[Tails, Optional[str]]:
        """Load `expr`'s field of `field_class` through `recv` (None if static)
        into the local `into`, or else a temporary of the field's declared
        type ("?" when unknown)."""
        decl_cls = self.program.class_named(field_class)
        fld = decl_cls.field_named(expr.name) if decl_cls else None
        n, t = self.define(
            lambda dst: LoadField(dst, recv, expr.name, field_class, ast_nid=expr.nid),
            fld.declared_type if fld else "?",
            into,
        )
        return self.connect(tails, n), t

    def operand_type(self, expr: sx.Expr, op: str) -> str:
        """The declared type of `expr`, lowered to `op`: a local's by block
        scope (`sx.local_refs`), a literal's read off it, a temporary's as
        it was made."""
        if isinstance(expr, sx.VarRef) and self.names.is_local(expr):
            return self.names.local_type(expr) or self.cls.name  # `this` has type ""
        return literal_type(op) or self.cfg.local_types.get(op, "?")

    def callee_return_type(self, owner: str, method: str) -> str:
        cls = self.program.class_named(owner)
        if cls is not None:
            m = cls.method_named(method)
            return m.return_type if m else "?"
        if self.libspec.has_class(owner):
            lm = self.libspec.method(owner, method)
            if lm is not None:
                return "void" if lm.return_ownership == "void" else "?"
        return "?"

    def lower_cond(self, cond: sx.Expr, tails: Tails) -> int:
        """Lower a condition to a Branch node, its last; returns the branch's id."""
        if isinstance(cond, sx.Eq):
            tails, lhs = self.cond_operand(cond.lhs, tails)
            tails, rhs = self.cond_operand(cond.rhs, tails)
            branch = Branch(lhs, rhs, cond.negated)
        else:
            # bare condition: truthy means non-null
            tails, op = self.cond_operand(cond, tails)
            branch = Branch(op, NULL, negated=True)
        n = self.node(branch)
        self.connect(tails, n)
        return n

    def cond_operand(self, expr: sx.Expr, tails: Tails) -> tuple[Tails, str]:
        """A Branch operand: `NULL` for a null literal, no node."""
        if isinstance(expr, sx.NullLit):
            return tails, NULL
        return self.lower_expr(expr, tails)  # type: ignore[return-value]

    def resolve_name(self, ref: sx.VarRef) -> tuple[str, str]:
        """Classify a bare name: local (per `sx.local_refs`), field (of this), static-field, or class."""
        if self.names.is_local(ref):
            return "local", ""
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
    """Bookkeeping for one active try statement during lowering: the
    exceptional edges into its catch block and into its finally block's
    exception-propagation duplicate, pending until that block is lowered."""

    def __init__(self, stmt: sx.Try, catch_active: bool):
        self.stmt = stmt
        self.catch_active = catch_active
        self.caught: Group = []
        self.unwinding: Group = []
        self.level = 0  # the frame's index in the active frames

    def seal(self, lowerer: Lowerer) -> None:
        """Lower the exception-propagation duplicate once the try has been
        lowered, outside this frame, and unwind from its end."""
        if not self.unwinding:
            return
        saved = lowerer.frames
        lowerer.frames = saved[: self.level]
        tails = lowerer.lower_block(self.stmt.finally_block, [self.unwinding])  # type: ignore[arg-type]
        lowerer.throw(lowerer.unfold(tails), self.level)
        lowerer.frames = saved


def lower(program: sx.Program, cls: sx.ClassDecl, method: sx.MethodDecl, libspec: LibrarySpec) -> Cfg:
    """Lower one method body to a Cfg satisfying the module invariants."""
    return Lowerer(program, cls, method, libspec).lower()


# --- dataflow solver ----------------------------------------------------------

# a node visited this many times per CFG node means the flow does not converge
MAX_VISITS_PER_NODE = 500


def solve(
    cfg: Cfg,
    seeds: dict[int, Fact],
    flow: Callable[[int, Fact], dict[int, Fact]],
    meet: Callable[[Fact, Fact], Fact],
    backward: bool = False,
) -> tuple[dict[int, Fact], dict[int, dict[int, Fact]]]:
    """Worklist fixpoint over `cfg` (Kildall 1973) keeping each node's out-facts.

    `flow(node, in_fact)` maps successors (predecessors when `backward`) to
    out-facts, and the dict it returns is the node's out-facts until its
    next visit; an edge it leaves out keeps the fact an earlier visit gave
    it (a branch side the checker finds infeasible), so a node whose
    in-edges all turn infeasible still meets a fact. A node's in-fact is
    the meet of its seed and what its predecessors' out-facts (successors'
    when `backward`) hold for it; it is computed when the node is popped,
    in reverse postorder (postorder when `backward`), and a node whose
    in-fact has not changed is skipped. The ranks only schedule the
    visits: a monotone flow and meet reach one fixpoint in any order
    (Kam & Ullman 1977), and `test_checker_fixpoint` checks the checker's
    against random rank orders. Returns the in-fact and the out-facts of
    every visited node. Raises RuntimeError when the flow does not
    converge.
    """
    rank = cfg._ranks[backward]
    sources = cfg._succ[None] if backward else cfg._pred
    heap = sorted((rank[n], n) for n in seeds)
    queued = set(seeds)
    facts: dict[int, Fact] = {}
    outs: list[dict[int, Fact]] = [_NO_FACTS] * len(cfg.nodes)
    visits_left = MAX_VISITS_PER_NODE * len(cfg.nodes)
    while heap:
        _rank, n = heapq.heappop(heap)
        queued.discard(n)
        fact = seeds.get(n, _UNSET)  # then met, in order, with what each source holds for n
        for m in sources[n]:
            o = outs[m]
            if n in o:
                fact = o[n] if fact is _UNSET else meet(fact, o[n])
        if n in facts and facts[n] == fact:
            continue
        visits_left -= 1
        if visits_left < 0:
            raise RuntimeError(f"dataflow fixpoint diverged in {cfg.class_name}.{cfg.method_name}")
        facts[n] = fact
        old = outs[n]
        new = flow(n, fact)
        for m, out in new.items():
            if m not in queued and (m not in old or old[m] != out):
                queued.add(m)
                heapq.heappush(heap, (rank[m], m))
        outs[n] = new if old.keys() <= new.keys() else {**old, **new}
    return facts, {n: outs[n] for n in facts}


_NO_FACTS: dict = {}  # the out-facts of a node not yet visited; never written
_UNSET = object()  # no in-fact yet


# --- escape taint ------------------------------------------------------------

# (node, local): the value `local` gets at `node`
TaintStart = tuple[int, str]
# local -> the bits of the starts whose value it may hold; never mutated once built
TaintFact = dict[str, int]

_NO_TAINT: TaintFact = {}


def taint_starts(cfg: Cfg) -> list[TaintStart]:
    """The values the escape analysis asks about: the parameters at entry,
    then, in node order, each allocation, each call's result and each field
    load."""
    starts = [(cfg.entry, p) for p in cfg.params]
    for n, instr in enumerate(cfg.nodes):
        if isinstance(instr, (Alloc, Invoke, LoadField)) and instr.dst:
            starts.append((n, instr.dst))
    return starts


def taint(cfg: Cfg, starts: list[TaintStart]) -> tuple[TaintFact, ...]:
    """May-alias taint of the values `starts` name, by node id (state before
    the node), start i as bit i: one forward union fixpoint in which each
    bit flows on its own (`_taint_transfer`), so a start's bit is where its
    value would reach when solved alone."""
    gen: dict[int, list[tuple[str, int]]] = {}
    for i, (node, local) in enumerate(starts):
        gen.setdefault(node, []).append((local, 1 << i))

    def flow(n: int, fact: TaintFact) -> dict[int, TaintFact]:
        instr = cfg.nodes[n]
        out = _taint_transfer(instr, fact)
        if n in gen:
            out = dict(out)
            for local, bit in gen[n]:
                out[local] = out.get(local, 0) | bit
        if out is fact or not isinstance(instr, (Alloc, Invoke)):
            return dict.fromkeys(cfg.succs(n), out)
        return cfg.split_out(n, out, fact)

    before, _outs = solve(cfg, dict.fromkeys(gen, _NO_TAINT), flow, _taint_meet)
    return tuple(before.get(n, _NO_TAINT) for n in range(len(cfg.nodes)))


def _taint_transfer(instr: Instr, fact: TaintFact) -> TaintFact:
    """A copy gives its target exactly the values its source may hold; any
    other definition of a local (allocation, constant, load, call result)
    drops the values it held."""
    if isinstance(instr, CopyLocal):
        held = fact.get(instr.src, 0)
        if fact.get(instr.dst, 0) == held:
            return fact
        out = dict(fact)
        if held:
            out[instr.dst] = held
        else:
            del out[instr.dst]
        return out
    if isinstance(instr, (Alloc, Const, LoadField, Invoke)) and instr.dst in fact:
        out = dict(fact)
        del out[instr.dst]
        return out
    return fact


def _taint_meet(a: TaintFact, b: TaintFact) -> TaintFact:
    """Union, sharing `a` when `b` adds nothing to it."""
    if not a:
        return b
    if a is b:
        return a
    out = a
    for local, bits in b.items():
        held = a.get(local, 0)
        if held | bits != held:
            if out is a:
                out = dict(a)
            out[local] = held | bits
    return out


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
    """Per-program-point must-alias partitions (facts before each node, and
    after it on its normal edges)."""

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
        if literal_type(instr.src) is not None:
            kill(instr.dst)  # a value no other local holds
        elif instr.dst != instr.src:
            src_gid = parts.get(instr.src)
            if src_gid is None:
                src_gid = kill(instr.src)
            parts[instr.dst] = src_gid
    elif isinstance(instr, Const):
        tags[kill(instr.dst)] = ("null",)
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
        instr = cfg.nodes[n]
        after[n] = _alias_transfer(fact, instr, locals_, n)
        if isinstance(instr, (Alloc, Invoke)):
            return cfg.split_out(n, after[n], fact)
        return dict.fromkeys(cfg.succs(n), after[n])

    before, _outs = solve(cfg, {cfg.entry: init}, flow, lambda f1, f2: _alias_meet(f1, f2, locals_))
    return AliasSets(before, after)


# --- liveness ----------------------------------------------------------------


def instr_uses(instr: Instr) -> set[str]:
    """The locals `instr` reads; a literal operand is none."""
    if isinstance(instr, Alloc):
        ops: list[Optional[str]] = instr.args
    elif isinstance(instr, CopyLocal):
        ops = [instr.src]
    elif isinstance(instr, LoadField):
        ops = [instr.recv]
    elif isinstance(instr, StoreField):
        ops = [instr.src, instr.recv]
    elif isinstance(instr, Invoke):
        ops = [*instr.args, instr.recv]
    elif isinstance(instr, ReturnVal):
        ops = [instr.src]
    elif isinstance(instr, Branch):
        ops = [instr.lhs, instr.rhs]
    else:
        return set()
    return {op for op in ops if op and literal_type(op) is None}


def instr_defs(instr: Instr) -> set[str]:
    """The local `instr` writes, its `dst`: a temporary, or a named local an
    allocation, call, field load or null defines itself. A throwing node
    (Alloc, Invoke) writes it on its normal out-edges only: on an
    exceptional one the local keeps the value it held."""
    dst = getattr(instr, "dst", None)
    return {dst} if dst else set()


def liveness(cfg: Cfg) -> dict[int, frozenset[str]]:
    """May-liveness of locals before each node (backward union fixpoint).
    A node sends each predecessor its live-in minus what that predecessor
    defines, but whole along a throwing node's exceptional edge, where its
    def does not happen. The solve is seeded only at the nodes that use a
    local, so it visits only the nodes from which a path reaches a use; any
    other keeps ∅. `Cfg.live_in` keeps the result with the CFG."""
    live_in: dict[int, frozenset[str]] = {n: frozenset() for n in range(len(cfg.nodes))}
    uses = [frozenset(instr_uses(instr)) for instr in cfg.nodes]
    defs = [frozenset(instr_defs(instr)) for instr in cfg.nodes]
    # the exceptional edges of throwing nodes that define a local
    thrown = {
        (f, t)
        for f, instr in enumerate(cfg.nodes)
        if defs[f] and isinstance(instr, (Alloc, Invoke))
        for t in cfg._succ[EXCEPTIONAL][f]
    }

    def flow(n: int, live_out: frozenset[str]) -> dict[int, frozenset[str]]:
        live = live_in[n] = uses[n] | live_out
        return {m: live - defs[m] if defs[m] and (m, n) not in thrown else live for m in cfg.preds(n)}

    solve(cfg, {n: frozenset() for n, used in enumerate(uses) if used}, flow, frozenset.union, backward=True)
    return live_in
