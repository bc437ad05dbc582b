"""Repair planning and plan application.

Planning a warning has two parts. `screen_fix` makes the decisions that read
escape results, against an `EscapeAnalyzer` built with the run's
`enhancements` flag: the escape of the warned value, the pre-close
conditions, the finalizers and the classic close-only rule. `plan_fix` then
anchors the template in the program as it is now: it reads the warned node
and its statement path off a `syntax.AstIndex` of the program by the
warning's `ast_nid`, and the plan holds those live nodes and the index,
which applying the plan keeps current. The fix stage
screens a whole round's warnings with one analyzer before the round's first
edit, so the analyzer may be on an earlier version of the program than
`plan_fix`'s; its results still hold, since no template writes a field or
adds a return, an argument pass or a collection store of a tracked value.
Template selection per warning:

  UnsatisfiedObligation, value does not escape
      -> TryFinallyWrap: declare the holder null before a try, move the
         allocation's range inside (`_wrap_range`: from the allocation to
         the last statement of its block that names a local the range
         declares or assigns), close in a finally under a null guard;
      -> CloseInFinally when the allocation already sits in a try body: hoist
         the declaration if needed and add the guarded close to that try's
         finally.
  OwningFieldOverwrite and `pre_close_check` holds
      -> PreCloseInsertion: a guarded try/close/catch(printStackTrace) block
         immediately before the overwriting store.
  anything else -> Unfixable with the failing route or condition.
A wrap whose holder local is assigned again before its finally runs is
Unfixable(NoIrMatch, "holder reassigned before the finally"), one whose
holder a later statement of an enclosing block names is Unfixable(NoIrMatch,
"holder used after the wrapped block"), and a template that would nest the
method past `parser.MAX_NESTING` is Unfixable(NoIrMatch, "nesting limit").

With `enhancements` off (the classic close-only repair) no class is a
resource alias or accessor, so a resource passed into a wrapper escapes and
a field read into one is not contained, and a plan whose first finalizer is
not `close()` is Unfixable(NoIrMatch).

`apply_plan_in_place` edits exactly the nodes its plan holds, so a plan is
applied to the program it was made on, before any other edit; the caller
copies first and diffs the canonical prints with `unified_diff_text`.
Node ids stay valid through the fix stage: a `Program` deep copy keeps them,
and every re-check reads the patched program itself. Only a warning that
crosses a parse (`rebind_warning`) is found by its structural descriptor,
on its member's CFG in a `ProgramVersion` of the new parse (`locate_anchor`).
"""

from __future__ import annotations

import copy
import difflib
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from . import cfg as C
from . import syntax as sx
from .checker import UNSATISFIED_OBLIGATION, OWNING_FIELD_OVERWRITE, Warning, anchor_name
from .errors import StaleWarning
from .escape import EscapeAnalyzer, PASSED_AS_ARG, RETURNED, STORED_IN_COLLECTION, TO_FIELD
from .memo import ProgramVersion
from .parser import MAX_NESTING, nesting
from .specs import finalizer_order, resource_must_call
from .transforms import FreshNames, finalizer_calls

TRY_FINALLY_WRAP = "TryFinallyWrap"
CLOSE_IN_FINALLY = "CloseInFinally"
PRE_CLOSE_INSERTION = "PreCloseInsertion"

ESCAPES_TO_FIELD = "EscapesToField"
ESCAPES_RETURN = "EscapesReturn"
ESCAPES_ARG = "EscapesArg"
PRE_CLOSE_CONDITIONS_FAIL = "PreCloseConditionsFail"
NO_IR_MATCH = "NoIrMatch"

_ROUTE_TO_REASON = {
    TO_FIELD: ESCAPES_TO_FIELD,
    RETURNED: ESCAPES_RETURN,
    PASSED_AS_ARG: ESCAPES_ARG,
    STORED_IN_COLLECTION: ESCAPES_TO_FIELD,  # escapes into a longer-lived structure
}


@dataclass
class RepairPlan:
    """A template anchored in one program: the nodes its application edits."""

    template: str
    method: sx.MethodDecl  # the warned member
    anchor: sx.Node  # the allocation or call a wrap holds, or the store a pre-close precedes
    path: sx.StmtPath  # `stmt_path` from the member's body to the anchor's statement
    # a wrap's range ends before this index of the anchor's block: `_wrap_range`
    # for a TryFinallyWrap, the block's end for a CloseInFinally
    stop: int
    finalizer_methods: tuple[str, ...]
    resource_class: str
    # the index the plan was found in, which applying it keeps current
    index: sx.AstIndex = field(compare=False, repr=False)


@dataclass
class Unfixable:
    reason: str
    detail: str = ""


# --- anchor lookup -----------------------------------------------------------


def locate_anchor(warning: Warning, version: ProgramVersion) -> C.Anchor:
    """The first anchor on the warned member's CFG in `version` whose kind,
    token and ordinal are the warning's descriptor's."""
    cls = version.program.class_named(warning.class_name)
    if cls is None:
        raise StaleWarning(f"{warning.id}: class {warning.class_name} is gone")
    method = cls.member(warning.method_name)
    if method is None:
        raise StaleWarning(f"{warning.id}: method {warning.method_name} is gone")
    cfg = version.cfg(cls, method)
    for instr in cfg.nodes:
        if anchor_name(cfg, instr) == (warning.anchor_kind, warning.anchor_token) and instr.ordinal == warning.ordinal:
            return instr  # type: ignore[return-value]
    raise StaleWarning(f"{warning.id}: no anchor matches {warning.descriptor()}")


def rebind_warning(data: dict, version: ProgramVersion) -> Warning:
    """Reconstruct a Warning (with anchors) from its JSON form against a program version."""
    kind, file, class_name, method_name, anchor_kind, anchor_token, ordinal = data["descriptor"].split("|")
    w = Warning(
        id=data["id"],
        kind=data["kind"],
        file=data["file"],
        line=data["line"],
        resource_class=data["resourceClass"],
        message=data.get("message", ""),
        class_name=class_name,
        method_name=method_name,
        anchor_kind=anchor_kind,
        anchor_token=anchor_token,
        ordinal=int(ordinal),
    )
    anchor = locate_anchor(w, version)  # raises StaleWarning if unmatched
    return replace(w, ast_nid=anchor.ast_nid, site=anchor.site if isinstance(anchor, C.Alloc) else -1)


def find_anchor(
    warning: Warning, program: sx.Program, index: sx.AstIndex
) -> tuple[sx.MethodDecl, sx.Node, sx.StmtPath]:
    """The warned member of `program`, the node with the warning's
    `ast_nid` in its body, and that node's statement path, read off
    `index`, a current `AstIndex` of `program`. Raises StaleWarning when no
    such node is there."""
    cls = program.class_named(warning.class_name)
    method = cls.member(warning.method_name) if cls else None
    found = index.find(warning.ast_nid) if method is not None else None
    if found is None or found[1][0][0] is not method.body:  # its path starts in another member
        raise StaleWarning(f"{warning.id}: no node {warning.ast_nid} in {warning.class_name}.{warning.method_name}")
    return method, *found


# --- eligibility -------------------------------------------------------------


def pre_close_check(class_name: str, field_name: str, analyzer: EscapeAnalyzer) -> tuple[bool, str]:
    """(eligible, failing-condition) for `analyzer`'s program. Conditions:
    (1) field private, (2) every write stores a freshly allocated resource
    (null writes are benign), (3) field containment holds."""
    cls = analyzer.program.class_named(class_name)
    fld = cls.field_named(field_name) if cls else None
    if cls is None or fld is None:
        return False, "NoSuchField"
    if not fld.has("private"):
        return False, "FieldNotPrivate"
    writes: list[sx.Expr] = []
    if fld.initializer is not None:
        writes.append(fld.initializer)
    for m in cls.all_methods():
        writes.extend(s.value for s in sx.stores_to_field(cls, m, class_name, field_name))
    for value in writes:
        if isinstance(value, sx.NullLit):
            continue
        if not isinstance(value, sx.New):
            return False, "NonFreshWrite"
    if not analyzer.field_containment(class_name, field_name):
        return False, "ContainmentFails"
    return True, ""


# --- planning ----------------------------------------------------------------


def screen_fix(warning: Warning, analyzer: EscapeAnalyzer) -> Union[tuple[str, ...], Unfixable]:
    """The decisions on `warning` that read escape results, made on the
    analyzer's version of the program: the warned value's escape, or the
    pre-close conditions for an overwrite; the finalizers; the classic
    close-only rule. The finalizers a repair calls, in order, or why there is
    no repair."""
    if warning.kind == OWNING_FIELD_OVERWRITE:
        owner, _, fname = warning.anchor_token.partition(".")
        ok, which = pre_close_check(owner, fname, analyzer)
        if not ok:
            return Unfixable(f"{PRE_CLOSE_CONDITIONS_FAIL}({which})", detail=which)
    else:
        escape = analyzer.escapes_at(warning.class_name, warning.method_name, warning.ast_nid)
        if escape is not None and escape.escapes:
            route = escape.primary_route()
            reason = _ROUTE_TO_REASON.get(route.kind, ESCAPES_ARG) if route else ESCAPES_ARG
            return Unfixable(reason, detail=route.detail if route else "")
    finalizers = finalizer_order(resource_must_call(warning.resource_class, analyzer.specs, analyzer.libspec))
    if not finalizers:
        return Unfixable(NO_IR_MATCH, detail="resource has no finalizer")
    if not analyzer.enhancements and finalizers[0] != "close":
        return Unfixable(NO_IR_MATCH, detail="classic repair inserts only close()")
    return finalizers


def plan_fix(
    warning: Warning, program: sx.Program, screened: Union[tuple[str, ...], Unfixable], index: sx.AstIndex
) -> Union[RepairPlan, Unfixable]:
    """The repair of one warning on `program` as it is now, given its
    `screen_fix` result: the screen's Unfixable, or a template anchored in
    `program`. `index` is a current `AstIndex` of `program`, which the plan
    keeps and its application updates. Raises StaleWarning when the
    warning's node is gone from `program` (`find_anchor`)."""
    method, anchor, path = find_anchor(warning, program, index)
    if isinstance(screened, Unfixable):
        return screened
    stop = 0
    if warning.kind == OWNING_FIELD_OVERWRITE:
        template = PRE_CLOSE_INSERTION
        if _pre_close_nesting(path, anchor, screened) > MAX_NESTING:
            return Unfixable(NO_IR_MATCH, detail="nesting limit")
    else:
        assert warning.kind == UNSATISFIED_OBLIGATION
        no_slot = _no_slot(path)
        if no_slot:
            return Unfixable(NO_IR_MATCH, detail=no_slot)
        tries = sx.try_slots(path)
        if tries and _holder_declared_in_try(path, tries, anchor):
            tries = []  # the try's finally cannot name the holder: wrap it in its own block instead
        template = CLOSE_IN_FINALLY if tries else TRY_FINALLY_WRAP
        block, idx = path[-1]
        stop = len(block.stmts) if tries else _wrap_range(block, idx, index)
        if _holder_reassigned(path, tries, anchor, stop, index):
            return Unfixable(NO_IR_MATCH, detail="holder reassigned before the finally")
        if _holder_used_after(path, tries, anchor):
            return Unfixable(NO_IR_MATCH, detail="holder used after the wrapped block")
        if _wrap_nesting(path, tries, stop) > MAX_NESTING:
            return Unfixable(NO_IR_MATCH, detail="nesting limit")
    return RepairPlan(
        template=template,
        method=method,
        anchor=anchor,
        path=path,
        stop=stop,
        finalizer_methods=screened,
        resource_class=warning.resource_class,
        index=index,
    )


# the finally block, the guard's if block, and its `v.close();` (an
# expression and one `.` link), opened in the block that holds the try
_GUARD_NESTING = 4


def _wrap_range(block: sx.Block, idx: int, index: sx.AstIndex) -> int:
    """Where a TryFinallyWrap of the allocation at `block.stmts[idx]` ends:
    the index after the last statement of `block` that names a local
    written (declared or assigned) in the range, grown until no later
    statement of `block` names one. So nothing the try body writes (the
    holder, an alias such as `t = s`, a later holder whose fix joins this
    finally) is read after the try, and the finally closes the holder once
    its block is done with it. The names' references come from `index`."""
    stop, done, written, here = idx + 1, idx, set(), {id(block): 0}
    while done < stop:
        new = {name for s in block.stmts[done:stop] for name in _written(s)} - written
        written |= new
        done = stop
        for ref in (ref for name in new for ref in index.refs.get(name, ())):
            placed = _placed(ref, here, index)
            if placed is not None:
                stop = max(stop, placed[1] + 1)
    return stop


def _written(stmt: sx.Stmt) -> set[str]:
    """The locals declared or assigned in `stmt`, nested blocks included."""
    return {
        s.name if isinstance(s, sx.LocalDecl) else s.target.name
        for s in sx.walk_stmts(stmt)
        if isinstance(s, sx.LocalDecl) or (isinstance(s, sx.Assign) and isinstance(s.target, sx.VarRef))
    }


def _wrap_nesting(path: sx.StmtPath, tries: sx.StmtPath, stop: int) -> int:
    """How deep, in the parser's levels, the method's blocks and expressions
    nest where a wrap template edits them: the guarded close in a finally
    and, for a TryFinallyWrap, the statements of its range, which it moves
    into the try body."""
    if tries:  # CloseInFinally: the guard joins the innermost try's finally
        try_block = tries[-1][0]
        depth = 1 + next(j for j, (b, _i) in enumerate(path) if b is try_block)
        return depth + _GUARD_NESTING
    block, idx = path[-1]
    depth = len(path)  # blocks open around the anchor statement
    return max(depth + _GUARD_NESTING, depth + 1 + max(nesting(s) for s in block.stmts[idx:stop]))


def _pre_close_nesting(path: sx.StmtPath, store: sx.Assign, finalizers: tuple[str, ...]) -> int:
    """How deep, in the parser's levels, a PreCloseInsertion's guard nests:
    its block and the try body's, opened in the store's block, around a
    finalizer call on the store's target (a catch block and a null test
    nest less)."""
    close = sx.Call(receiver=store.target, method=finalizers[0], args=[])
    return len(path) + 2 + nesting(close)


def _holder(path: sx.StmtPath, anchor: sx.Node) -> Optional[str]:
    """The local that the anchor's statement stores the allocation in, or
    None when the allocation is nested (a wrap gives it a fresh holder)."""
    block, idx = path[-1]
    stmt = block.stmts[idx]
    if isinstance(stmt, sx.LocalDecl) and stmt.init is anchor:
        return stmt.name
    if isinstance(stmt, sx.Assign) and isinstance(stmt.target, sx.VarRef) and stmt.value is anchor:
        return stmt.target.name
    return None


def _covered_from(path: sx.StmtPath, tries: sx.StmtPath) -> int:
    """Where on `path` the blocks a wrap's finally covers start: the
    innermost try body for a CloseInFinally, the anchor's block for a
    TryFinallyWrap."""
    return (1 + next(k for k, (b, _i) in enumerate(path) if b is tries[-1][0])) if tries else len(path) - 1


def _holder_declared_in_try(path: sx.StmtPath, tries: sx.StmtPath, anchor: sx.Node) -> bool:
    """Is the local a CloseInFinally would close declared inside the try
    body, out of the finally's scope? A declaration at the anchor itself is
    hoisted before the try; an earlier one is not, and a TryFinallyWrap
    closes the local in its own block instead."""
    var = _holder(path, anchor)
    if var is None:
        return False
    earlier = [s for b, i in path[_covered_from(path, tries) :] for s in b.stmts[:i]]
    return any(isinstance(s, sx.LocalDecl) and s.name == var for s in earlier)


def _holder_reassigned(
    path: sx.StmtPath, tries: sx.StmtPath, anchor: sx.Node, stop: int, index: sx.AstIndex
) -> bool:
    """Is the local a wrap closes in its finally assigned again before the
    finally runs, so that the finally would close a later value instead?
    That is the wrap's range for a TryFinallyWrap, and the rest of each block
    from the innermost try body down to the anchor for a CloseInFinally
    (`_covered_from`); in the anchor's block, the statements before `stop`.

    Each assignment to the local in `index` is placed by its parents: the
    innermost block of `path` that holds it decides, by whether it comes
    after the path's statement there (and, in the anchor's block, before
    `stop`)."""
    var = _holder(path, anchor)
    if var is None:
        return False
    start = _covered_from(path, tries)
    levels = {id(b): k for k, (b, _i) in enumerate(path)}
    for assign in index.assigns.get(var, ()):
        placed = _placed(assign, levels, index)
        if placed is None or placed[0] < start:
            continue  # in another member, or outside the blocks the finally covers
        level, at = placed
        if path[level][1] < at and (level < len(path) - 1 or at < stop):
            return True
    return False


def _placed(node: sx.Node, blocks: dict[int, int], index: sx.AstIndex) -> Optional[tuple[int, int]]:
    """Where the innermost of `blocks` (a block's id -> its level) that holds
    `node` holds it: that block's level, and the index there of the
    statement that is or holds `node`; None when none of them does. Read
    off `index`'s parents."""
    holder = index.parents.get(node.nid)
    while holder is not None and id(holder) not in blocks:
        node, holder = holder, index.parents.get(holder.nid)
    return None if holder is None else (blocks[id(holder)], index.slot(node)[1])


def _holder_used_after(path: sx.StmtPath, tries: sx.StmtPath, anchor: sx.Node) -> bool:
    """Does a statement after the blocks a wrap's finally covers name its
    holder, in the holder's scope? It would use the closed value."""
    var, start = _holder(path, anchor), _covered_from(path, tries)
    for k in reversed(range(len(path) if var else 0)):
        block, i = path[k]
        later = block.stmts[i + 1 :] if k < start else []
        if any(isinstance(e, sx.VarRef) and e.name == var for s in later for e in sx.walk_exprs(s)):
            return True
        if any(isinstance(s, sx.LocalDecl) and s.name == var for s in block.stmts[: i + 1]):
            return False  # declared here: out of scope further out
    return False


def _no_slot(path: sx.StmtPath) -> str:
    """Why no statement slot on an allocation's statement path takes a wrap
    template, or "" when one does: the allocation is in an if or while
    condition, or has a loop on its path (loop-allocated values need a
    template we do not provide)."""
    stmts = [block.stmts[i] for block, i in path]
    if isinstance(stmts[-1], sx.If):
        return "allocation is in an if condition"
    if isinstance(stmts[-1], sx.While):
        return "allocation is in a while condition"
    if any(isinstance(s, sx.While) for s in stmts):
        return "allocation is inside a loop"
    return ""


# --- plan application --------------------------------------------------------


def apply_plan_in_place(program: sx.Program, plan: RepairPlan) -> None:
    """Apply a plan's template to `program`, the program it was made on, as
    it was then, and keep the plan's index current: the nodes the template
    adds are indexed, and the statements it moves get their new parent."""
    if plan.template == PRE_CLOSE_INSERTION:
        _apply_pre_close(program, plan)
    else:
        _apply_wrap(program, plan)


def unified_diff_text(before: str, after: str, name: str) -> str:
    lines = difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True), fromfile=f"a/{name}", tofile=f"b/{name}"
    )
    return "".join(lines)


def _apply_pre_close(program: sx.Program, plan: RepairPlan) -> None:
    store = plan.anchor
    block, idx = plan.path[-1]
    exc_name = _exception_name(plan.method)
    calls: list[sx.Stmt] = []
    for m in plan.finalizer_methods:
        target = copy.deepcopy(store.target)
        _strip_nids(target)
        calls.append(sx.ExprStmt(expr=sx.Call(receiver=target, method=m, args=[])))
    trace = sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name=exc_name), method="printStackTrace", args=[]))
    try_stmt = sx.Try(
        body=sx.Block(stmts=calls),
        catch_type="Exception",
        catch_name=exc_name,
        catch_block=sx.Block(stmts=[trace]),
        finally_block=None,
    )
    cond_lhs = copy.deepcopy(store.target)
    _strip_nids(cond_lhs)
    guard = sx.If(
        cond=sx.Eq(lhs=cond_lhs, rhs=sx.NullLit(), negated=True),
        then_block=sx.Block(stmts=[try_stmt]),
        else_block=None,
    )
    program.adopt(guard, store)
    block.stmts.insert(idx, guard)
    plan.index.add(guard, block)


def _strip_nids(root: sx.Expr) -> None:
    for e in sx.walk_exprs(root):
        e.nid = sx.fresh_nid()


def _exception_name(method: sx.MethodDecl) -> str:
    taken = {p.name for p in method.params}
    for s in sx.walk_stmts(method.body):
        if isinstance(s, sx.LocalDecl):
            taken.add(s.name)
        if isinstance(s, sx.Try) and s.catch_name:
            taken.add(s.catch_name)
    if "e" not in taken:
        return "e"
    i = 2
    while f"e{i}" in taken:
        i += 1
    return f"e{i}"


def _apply_wrap(program: sx.Program, plan: RepairPlan) -> None:
    index = plan.index
    expr = plan.anchor
    block, idx = plan.path[-1]
    stmt = block.stmts[idx]
    stop = plan.stop

    # normalize the anchor statement so a named local holds the resource
    var: str
    if isinstance(stmt, sx.LocalDecl) and stmt.init is not None and stmt.init.nid == expr.nid:
        var = stmt.name
        assign = sx.Assign(target=sx.VarRef(name=var), value=stmt.init)
        decl = sx.LocalDecl(type_name=stmt.type_name, name=var, init=sx.NullLit())
        program.adopt(assign, stmt)
        program.adopt(decl, stmt)
        block.stmts[idx] = assign
        index.drop(stmt)
        index.add(assign, block)
        hoisted: Optional[sx.LocalDecl] = decl
    elif isinstance(stmt, sx.Assign) and isinstance(stmt.target, sx.VarRef) and stmt.value.nid == expr.nid:
        var = stmt.target.name
        hoisted = None
    else:
        # the allocation is nested: extract it into a fresh temporary
        var = FreshNames(program).next(hint="tmp")
        decl = sx.LocalDecl(type_name=plan.resource_class, name=var, init=sx.NullLit())
        assign = sx.Assign(target=sx.VarRef(name=var), value=expr)
        ref = sx.VarRef(name=var)
        holder = index.parents[expr.nid]
        sx.map_exprs(stmt, lambda e: ref if e is expr else None)
        program.adopt(decl, stmt)
        program.adopt(assign, stmt)
        if isinstance(stmt, sx.ExprStmt) and isinstance(stmt.expr, sx.VarRef):
            block.stmts[idx] = assign  # the statement was just the extracted expression
            index.drop(stmt)
        else:
            block.stmts.insert(idx, assign)
            stop += 1
            index.add(ref, holder)
        index.add(assign, block)
        hoisted = decl
        stmt = assign

    (guard,) = finalizer_calls(var, plan.finalizer_methods, guarded=True)
    program.adopt(guard, stmt)

    if plan.template == CLOSE_IN_FINALLY:
        try_block, try_idx = sx.try_slots(plan.path)[-1]
        try_stmt = try_block.stmts[try_idx]
        if hoisted is not None:
            try_block.stmts.insert(try_idx, hoisted)
            index.add(hoisted, try_block)
        if try_stmt.finally_block is None:
            try_stmt.finally_block = sx.Block(stmts=[guard])
            program.inherit_pos(try_stmt.finally_block, try_stmt)
            index.add(try_stmt.finally_block, try_stmt)
        else:
            try_stmt.finally_block.stmts.append(guard)
            index.add(guard, try_stmt.finally_block)
        return

    # TryFinallyWrap: move the allocation's range (`_wrap_range`) into a new
    # try, close in the finally; the block's later statements follow the try
    moved = block.stmts[idx:stop]
    try_stmt = sx.Try(
        body=sx.Block(stmts=[]),
        catch_type=None,
        catch_name=None,
        catch_block=None,
        finally_block=sx.Block(stmts=[guard]),
    )
    program.inherit_pos(try_stmt, stmt)
    program.inherit_pos(try_stmt.body, stmt)
    program.inherit_pos(try_stmt.finally_block, stmt)
    block.stmts[idx:stop] = [try_stmt] if hoisted is None else [hoisted, try_stmt]
    if hoisted is not None:
        index.add(hoisted, block)
    index.add(try_stmt, block)  # with its body still empty: the moved statements are indexed already
    try_stmt.body.stmts = moved
    index.move(moved, try_stmt.body)
