"""MiniJ abstract syntax and the one place that names, finds and rewrites
its nodes.

Node identity (``nid``) and allocation-site ids are excluded from structural
equality, so ``parse(pretty_print(p)) == p`` holds position-free. Source
positions live in ``Program.line_index`` keyed by node id, never on the nodes
themselves.

Shape: ``SHAPE`` is the only list of the fields that hold each node type's
children; every walk, search and rewrite here reads it, and so does
``flatten``, which spells a tree out as one flat tuple of its classes and
fields, the memo's key of a member.

Names: ``local_refs`` resolves a method's bare names by block scope, once for
the CFG lowering and ``stores_to_field`` alike, and in the same walk lists
the ``New``s, ``Call``s and ``Assign``s from which the lowering numbers
warning ordinals.

Navigation: ``member_key``/``ClassDecl.member`` name a method the way CFGs
and warnings do; an ``AstIndex`` maps each node id to its node and the node
holding it, and each bare name to its references and assignments, so it
gives a node by id and the statement holding it (``stmt_path``), or the
statements naming a local, without a walk, and the edits that add or move
nodes keep it current; ``evaluated_before`` tells a statement of a body
itself and what runs before it completes (a constructor's first write);
``map_exprs`` swaps expressions; ``Program.adopt`` positions a synthesized
subtree.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Union, get_args, get_origin, get_type_hints

_node_counter = itertools.count(1)

# the member name of a constructor; `member_key` appends `#<arity>`
CONSTRUCTOR = "<init>"
THIS = "this"


def fresh_nid() -> int:
    return next(_node_counter)


@dataclass
class Node:
    nid: int = field(default_factory=fresh_nid, compare=False, repr=False, kw_only=True)


# --- annotations -----------------------------------------------------------

MUST_CALL = "MustCall"
OWNING = "Owning"
NOT_OWNING = "NotOwning"
ENSURES_CALLED_METHODS = "EnsuresCalledMethods"

ANNOTATION_KINDS = (MUST_CALL, OWNING, NOT_OWNING, ENSURES_CALLED_METHODS)


@dataclass
class Annotation(Node):
    """One @-annotation. ``methods`` holds MustCall's list or ECM's methods;
    ``target_field`` is ECM's value= field."""

    kind: str
    methods: tuple[str, ...] = ()
    target_field: Optional[str] = None


# --- expressions -----------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class New(Expr):
    class_name: str
    args: list["Expr"]
    site: int = field(default=-1, compare=False)


@dataclass
class Call(Expr):
    receiver: "Expr"
    method: str
    args: list["Expr"]


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class FieldRef(Expr):
    receiver: "Expr"
    name: str


@dataclass
class NullLit(Expr):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class Eq(Expr):
    """Equality test; only legal as an if/while condition."""

    lhs: "Expr"
    rhs: "Expr"
    negated: bool


# --- statements ------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Node):
    stmts: list[Stmt]


@dataclass
class LocalDecl(Stmt):
    type_name: str
    name: str
    init: Optional[Expr]


@dataclass
class Assign(Stmt):
    target: Union[VarRef, FieldRef]
    value: Expr


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_block: Block
    else_block: Optional[Block]


@dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclass
class Try(Stmt):
    body: Block
    catch_type: Optional[str]
    catch_name: Optional[str]
    catch_block: Optional[Block]
    finally_block: Optional[Block]


@dataclass
class Return(Stmt):
    value: Optional[Expr]


# --- declarations ----------------------------------------------------------


@dataclass
class Param(Node):
    type_name: str
    name: str
    annotations: list[Annotation] = field(default_factory=list)


@dataclass
class FieldDecl(Node):
    name: str
    declared_type: str
    modifiers: tuple[str, ...] = ()  # subset of private/static/final
    initializer: Optional[Expr] = None
    annotations: list[Annotation] = field(default_factory=list)

    def has(self, modifier: str) -> bool:
        return modifier in self.modifiers


@dataclass
class MethodDecl(Node):
    name: str
    params: list[Param]
    return_type: str  # class name, "void", or "" for constructors
    body: Block
    annotations: list[Annotation] = field(default_factory=list)
    modifiers: tuple[str, ...] = ()  # subset of public/private/static

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers

    @property
    def is_constructor(self) -> bool:
        return self.return_type == ""


def member_key(meth: MethodDecl) -> str:
    """How CFGs and warnings name a member: `<init>#<arity>` for a constructor
    (arities are unique within a class), the name for a method."""
    return f"{CONSTRUCTOR}#{len(meth.params)}" if meth.is_constructor else meth.name


@dataclass
class ClassDecl(Node):
    name: str
    implements: Optional[str]
    annotations: list[Annotation]
    fields: list[FieldDecl]
    constructors: list[MethodDecl]
    methods: list[MethodDecl]

    def field_named(self, name: str) -> Optional[FieldDecl]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def method_named(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def constructor(self, arity: int) -> Optional[MethodDecl]:
        return next((c for c in self.constructors if len(c.params) == arity), None)

    def member(self, key: str) -> Optional[MethodDecl]:
        """The constructor or method `member_key` names `key`."""
        if key.startswith(CONSTRUCTOR + "#"):
            return self.constructor(int(key[len(CONSTRUCTOR) + 1 :]))
        return self.method_named(key)

    def all_methods(self) -> list[MethodDecl]:
        return list(self.constructors) + list(self.methods)


@dataclass
class Program(Node):
    classes: list[ClassDecl]
    source_name: str = field(default="<memory>", compare=False)
    line_index: dict[int, tuple[int, int]] = field(default_factory=dict, compare=False)

    def __deepcopy__(self, memo: dict) -> "Program":
        """A pickle round trip: done in C, it keeps nids, positions and
        internal sharing as `copy.deepcopy` would."""
        out = memo[id(self)] = pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))
        return out

    def class_named(self, name: str) -> Optional[ClassDecl]:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def pos_of(self, nid: int) -> tuple[int, int]:
        return self.line_index.get(nid, (0, 0))

    def inherit_pos(self, node: Node, anchor: Node) -> None:
        """Give a synthesized node the position of the original node it hangs off."""
        self.line_index[node.nid] = self.pos_of(anchor.nid)

    def adopt(self, root: Node, anchor: Node) -> None:
        """Give every node of a synthesized subtree the position of `anchor`."""
        pos = self.pos_of(anchor.nid)
        for node in walk_nodes(root):
            self.line_index[node.nid] = pos


# --- the AST's shape and the one walker over it ------------------------------

# Each node type -> the fields that hold its child nodes (a node, a list of
# nodes, or None), in field order: the one description of the AST's shape
# that every walk, search and rewrite below reads.
SHAPE: dict[type, tuple[str, ...]] = {
    Annotation: (),
    New: ("args",),
    Call: ("receiver", "args"),
    VarRef: (),
    FieldRef: ("receiver",),
    NullLit: (),
    IntLit: (),
    StrLit: (),
    Eq: ("lhs", "rhs"),
    Block: ("stmts",),
    LocalDecl: ("init",),
    Assign: ("target", "value"),
    ExprStmt: ("expr",),
    If: ("cond", "then_block", "else_block"),
    While: ("cond", "body"),
    Try: ("body", "catch_block", "finally_block"),
    Return: ("value",),
    Param: ("annotations",),
    FieldDecl: ("initializer", "annotations"),
    MethodDecl: ("params", "body", "annotations"),
    ClassDecl: ("annotations", "fields", "constructors", "methods"),
    Program: ("classes",),
}


_FIELD_TYPES = {t: get_type_hints(t) for t in SHAPE}


def _slots(*kinds: type) -> dict[type, tuple[str, ...]]:
    """`SHAPE` cut to the fields whose declared type can hold one of `kinds`,
    each in reverse field order, the order `_walk` pushes them in."""

    def holds(hint) -> bool:
        if get_origin(hint) is None and isinstance(hint, type):
            return issubclass(hint, kinds)
        return any(holds(arg) for arg in get_args(hint))

    return {t: tuple(f for f in reversed(fields) if holds(_FIELD_TYPES[t][f])) for t, fields in SHAPE.items()}


_ALL_SLOTS = _slots(Node)
_STMT_SLOTS = _slots(Stmt, Block)


def _walk(root: Optional[Node], slots: dict[type, tuple[str, ...]], kind: type) -> Iterator[Node]:
    """The nodes of type `kind` among root and the nodes under it that
    `slots` leads to, preorder, children in field order."""
    if root is None:
        return
    stack = [root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        if isinstance(node, kind):
            yield node
        for name in slots[node.__class__]:
            child = getattr(node, name)
            if child.__class__ is list:
                extend(reversed(child))
            elif child is not None:
                push(child)


def walk_nodes(root: Node) -> Iterator[Node]:
    """root and every node under it, preorder, children in field order."""
    return _walk(root, _ALL_SLOTS, Node)


def walk_exprs(root: Union[Expr, Stmt, Block, None]) -> Iterator[Expr]:
    """All expression nodes under root, preorder."""
    return _walk(root, _ALL_SLOTS, Expr)  # type: ignore[return-value]


def walk_stmts(root: Union[Block, Stmt, None]) -> Iterator[Stmt]:
    """All statement nodes under root, preorder."""
    return _walk(root, _STMT_SLOTS, Stmt)  # type: ignore[return-value]


def children(node: Node) -> Iterator[Node]:
    """The nodes directly under `node`, in field order."""
    for name in SHAPE[node.__class__]:
        child = getattr(node, name)
        if child.__class__ is list:
            yield from child
        elif child is not None:
            yield child


def _flat_plan(kind: type) -> tuple[Callable[[Node], tuple], tuple[str, ...], Optional[Callable[[Node], tuple]]]:
    """A getter of the class and the scalar fields of a `kind` node, in
    field order (`nid` first), and its child slots in reverse field order,
    with a getter of them all when there are two or more."""
    slots = tuple(reversed(SHAPE[kind]))
    scalars = [f.name for f in fields(kind) if f.name not in slots]
    return attrgetter("__class__", *scalars), slots, attrgetter(*slots) if len(slots) > 1 else None


_FLAT_PLANS = {kind: _flat_plan(kind) for kind in SHAPE}


def flatten(root: Node, head: Iterable = ()) -> tuple:
    """`head`, then root and every node under it in one preorder walk: for
    each node its class and its scalar fields in field order, `nid` and
    `site` included, then each child slot in field order, a list as its
    length and then its items, an empty slot as None. A node's class fixes
    how many scalars follow it and which slots come next, so the tuple reads
    back one way: two trees give equal tuples exactly when they are equal
    field by field, `nid` and `site` included."""
    out = list(head)
    add, put = out.extend, out.append
    stack: list = [root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        if node is None:
            put(None)
        elif node.__class__ is list:
            put(len(node))
            extend(node[::-1])
        else:
            scalars, slots, every_slot = _FLAT_PLANS[node.__class__]
            add(scalars(node))
            if every_slot is not None:
                extend(every_slot(node))
            elif slots:
                push(getattr(node, slots[0]))
    return tuple(out)


def annotation_named(annotations: list[Annotation], kind: str) -> Optional[Annotation]:
    for a in annotations:
        if a.kind == kind:
            return a
    return None


# --- naming, finding and rewriting ------------------------------------------


@dataclass
class LocalRefs:
    """What `local_refs` found in one method, in its one walk: the names it
    resolved, as `id`s of the method's nodes, and its `New`s, `Call`s and
    `Assign`s in AST order, whence the lowering numbers warning ordinals."""

    # VarRefs naming `this`, a parameter or a local -> its declared type ("" for `this`)
    locals: dict[int, str] = field(default_factory=dict)
    redeclared: set[int] = field(default_factory=set)  # LocalDecls of a name their block declared
    news: list[New] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    assigns: list[Assign] = field(default_factory=list)

    def is_local(self, ref: VarRef) -> bool:
        return id(ref) in self.locals

    def local_type(self, ref: VarRef) -> str:
        """The declared type of the local `ref` names; `is_local(ref)` must hold."""
        return self.locals[id(ref)]

    def redeclares(self, decl: LocalDecl) -> bool:
        return id(decl) in self.redeclared


def local_refs(method: MethodDecl) -> LocalRefs:
    """Resolve the bare names of a method by block scope, as lowering does,
    and list its `New`s, `Call`s and `Assign`s, in one walk of its body.

    `this` (in an instance method) and the parameters are in scope
    throughout; a local from its declaration, its own initializer included,
    to the end of its block; a catch variable (default `e`) in its catch
    block. A finally block sees the names in scope at its `try`. Redeclaring
    a parameter, or a name of an enclosing block, is allowed; redeclaring a
    name of the same block is recorded in `redeclared`."""
    out = LocalRefs()

    def visit(node: Node, scope: dict[str, str]) -> None:  # scope: name -> declared type
        kind = node.__class__
        if kind is VarRef:
            if node.name in scope:
                out.locals[id(node)] = scope[node.name]
            return
        if kind is Block:
            inner = dict(scope)
            declared: set[str] = set()
            for s in node.stmts:
                if s.__class__ is LocalDecl:
                    if s.name in declared:
                        out.redeclared.add(id(s))
                    declared.add(s.name)
                    inner[s.name] = s.type_name
                visit(s, inner)
            return
        if kind is New:
            out.news.append(node)
        elif kind is Call:
            out.calls.append(node)
        elif kind is Assign:
            out.assigns.append(node)
        for name in SHAPE[kind]:
            child = getattr(node, name)
            if child.__class__ is list:
                for item in child:
                    visit(item, scope)
            elif kind is Try and name == "catch_block" and child is not None:
                visit(child, {**scope, node.catch_name or "e": node.catch_type or "Exception"})
            elif child is not None:
                visit(child, scope)

    scope = {} if method.is_static else {THIS: ""}
    visit(method.body, {**scope, **{p.name: p.type_name for p in method.params}})
    return out


def stores_to_field(
    cls: ClassDecl, method: MethodDecl, field_class: str, field_name: str, names: Optional[LocalRefs] = None
) -> list[Assign]:
    """Assign statements of `method`, a member of `cls`, that write field
    `field_name` of class `field_class`, in AST order. The class written is
    `cls` for a bare `f = e;` whose `f` is not a local there (`local_refs`)
    and for `this.f = e;`. For `x.f = e;` it is the declared type of `x` when
    `x` is a local, of the field `x` of `cls` when it is one, and else the
    class `x` (a static store). A store through any other receiver, a call
    or a field path, counts for every class. `names` is the method's
    `local_refs`, taken here when not given."""
    if names is None:
        names = local_refs(method)

    def writes_field_class(target: Union[VarRef, FieldRef]) -> bool:
        if isinstance(target, VarRef):
            return not names.is_local(target) and cls.name == field_class
        recv = target.receiver
        if not isinstance(recv, VarRef):
            return True  # a call or a field path: its class is not resolved here
        if recv.name == THIS:
            owner = cls.name
        elif names.is_local(recv):
            owner = names.local_type(recv)
        else:
            fld = cls.field_named(recv.name)
            owner = fld.declared_type if fld is not None else recv.name
        return owner == field_class

    return [s for s in names.assigns if s.target.name == field_name and writes_field_class(s.target)]


def evaluated_before(body: Block, stmt: Stmt) -> Optional[list[Expr]]:
    """When `stmt` is a statement of `body` itself (not of a nested block),
    the expressions evaluated before it completes: those of the statements
    before it and its own, in order; None when it is not."""
    for i, s in enumerate(body.stmts):
        if s is stmt:
            return [e for before in body.stmts[: i + 1] for e in walk_exprs(before)]
    return None


StmtPath = list[tuple[Block, int]]


class AstIndex:
    """Each node under a root by its id, with the node that holds it, and
    the references and assignments to each bare name: built in one pass over
    `SHAPE`, and kept current by whoever edits the tree through `add`, `move`
    and `drop`. A node's statement path is read off its parents (`stmt_path`),
    so finding a node and its statement walks no tree. Node ids are unique
    in a program: a deep copy keeps them, and a new node takes a fresh one."""

    def __init__(self, root: Node):
        self.nodes: dict[int, Node] = {}
        self.parents: dict[int, Node] = {}  # nid -> the node holding it; the root has none
        self.refs: dict[str, list[VarRef]] = {}  # name -> the VarRefs naming it
        self.assigns: dict[str, list[Assign]] = {}  # name -> the Assigns whose target is that bare name
        self.add(root, None)

    def add(self, root: Node, parent: Optional[Node]) -> None:
        """Index `root` and every node under it, `root` as held by `parent`.
        A node indexed already (one an edit moved under `root`) keeps its
        entries and those of the nodes it holds."""
        nodes, parents = self.nodes, self.parents
        if parent is not None:
            parents[root.nid] = parent
        stack = [root]
        while stack:  # the order of visits does not matter: each node is indexed once
            node = stack.pop()
            if nodes.get(node.nid) is node:
                continue
            nodes[node.nid] = node
            for name in SHAPE[node.__class__]:
                child = getattr(node, name)
                if child.__class__ is list:
                    for item in child:
                        parents[item.nid] = node
                    stack.extend(child)
                elif child is not None:
                    parents[child.nid] = node
                    stack.append(child)
            if node.__class__ is VarRef:
                self.refs.setdefault(node.name, []).append(node)
            elif node.__class__ is Assign and node.target.__class__ is VarRef:
                self.assigns.setdefault(node.target.name, []).append(node)

    def move(self, nodes: list[Node], parent: Node) -> None:
        """`nodes`, already indexed, are now held by `parent`."""
        for node in nodes:
            self.parents[node.nid] = parent

    def drop(self, node: Node) -> None:
        """`node` itself has left the tree (what it held is indexed apart)."""
        del self.nodes[node.nid]
        self.parents.pop(node.nid, None)
        if node.__class__ is VarRef:
            self.refs[node.name].remove(node)
        elif node.__class__ is Assign and node.target.__class__ is VarRef:
            self.assigns[node.target.name].remove(node)

    def slot(self, stmt: Stmt) -> tuple[Block, int]:
        """The block that holds `stmt`, and its index there."""
        block = self.parents[stmt.nid]
        return block, next(i for i, s in enumerate(block.stmts) if s is stmt)  # type: ignore[attr-defined]

    def stmt_path(self, node: Node) -> Optional[StmtPath]:
        """(block, index) pairs from the outermost block that holds `node`
        (its member's body, or the root) down to the innermost statement
        that is `node` or holds it in its own expressions (an `if`
        condition counts, a nested block does not); None when `node` is not
        a statement or an expression of one."""
        while not isinstance(node, Stmt):
            if not isinstance(node, Expr):
                return None
            node = self.parents.get(node.nid)  # type: ignore[assignment]
            if node is None:
                return None
        path = []
        while True:
            block, i = self.slot(node)
            path.append((block, i))
            owner = self.parents.get(block.nid)
            if not isinstance(owner, Stmt):
                break
            node = owner
        path.reverse()
        return path

    def find(self, nid: int) -> Optional[tuple[Node, StmtPath]]:
        """The node with id `nid` and its `stmt_path`; None when no
        statement or expression of the tree has that id."""
        node = self.nodes.get(nid)
        path = self.stmt_path(node) if node is not None else None
        return None if path is None else (node, path)  # type: ignore[return-value]


def stmt_path(body: Block, node: Node) -> Optional[StmtPath]:
    """(block, index) pairs from `body` down to the innermost statement that
    is `node` or holds it in its own expressions (an `if` condition counts,
    a nested block does not), matched by identity; None if body lacks it.
    Builds a one-off `AstIndex` of `body`."""
    index = AstIndex(body)
    return index.stmt_path(node) if index.nodes.get(node.nid) is node else None


def try_slots(path: StmtPath) -> StmtPath:
    """The pairs of `path` at a `Try` whose body (not catch or finally) the
    path goes on into, outermost first."""
    return [
        (block, i)
        for (block, i), (inner, _j) in zip(path, path[1:])
        if isinstance(block.stmts[i], Try) and inner is block.stmts[i].body
    ]


def map_exprs(root: Node, fn: Callable[[Expr], Optional[Expr]]) -> int:
    """Put `fn(e)` into each expression slot under root whose expression `e`
    it maps to a new node, preorder; an expression kept (`fn` gives None or
    `e`) is searched on, a replacement is not. Returns the slots replaced."""
    replaced = 0

    def slot(value: Node) -> Node:
        nonlocal replaced
        if isinstance(value, Expr):
            new = fn(value)
            if new is not None and new is not value:
                replaced += 1
                return new
        visit(value)
        return value

    def visit(node: Node) -> None:
        for name in SHAPE[node.__class__]:
            value = getattr(node, name)
            if value.__class__ is list:
                value[:] = [slot(item) for item in value]
            elif value is not None:
                setattr(node, name, slot(value))

    visit(root)
    return replaced
