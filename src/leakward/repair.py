"""Repair planning and patch materialization.

Template selection per warning:

  UnsatisfiedObligation, value does not escape
      -> TryFinallyWrap: declare the holder null before a try, move the
         allocation and everything after it inside, close in a finally under
         a null guard;
      -> CloseInFinally when the allocation already sits in a try body: hoist
         the declaration if needed and add the guarded close to that try's
         finally.
  OwningFieldOverwrite and pre_close_eligible
      -> PreCloseInsertion: a guarded try/close/catch(printStackTrace) block
         immediately before the overwriting store.
  anything else -> Unfixable with the failing route or condition.

Materialization edits a private AST copy and emits a unified diff against the
canonical print of the original; byte-identical across runs.
"""

from __future__ import annotations

import copy
import difflib
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

from . import cfg as C
from . import syntax as sx
from .checker import UNSATISFIED_OBLIGATION, OWNING_FIELD_OVERWRITE, Warning, stores_to_field
from .errors import MaterializationFailure, StaleWarning
from .escape import EscapeAnalyzer, EscapeResult, PASSED_AS_ARG, RETURNED, STORED_IN_COLLECTION, TO_FIELD
from .libspec import LibrarySpec
from .printer import pretty_print
from .specs import SpecSet, resource_must_call
from .transforms import FreshNames

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
    warning_id: str
    template: str
    anchors: dict[str, int]  # role -> ast node id
    finalizer_method: str
    finalizer_methods: tuple[str, ...]
    fresh_names: list[str] = dc_field(default_factory=list)
    resource_class: str = ""
    class_name: str = ""
    method_name: str = ""

    def to_json(self) -> dict:
        return {"warningId": self.warning_id, "template": self.template, "finalizer": self.finalizer_method}


@dataclass
class Unfixable:
    warning_id: str
    reason: str
    detail: str = ""

    def to_json(self) -> dict:
        return {"warningId": self.warning_id, "unfixableReason": self.reason, "detail": self.detail}


@dataclass
class Patch:
    file: str
    diff: str
    structured_edits: list[dict]
    status: str  # Materialized | Unfixable(<reason>)
    patched_program: Optional[sx.Program] = None


# --- anchor lookup -----------------------------------------------------------


def method_by_cfg_name(cls: sx.ClassDecl, cfg_name: str) -> Optional[sx.MethodDecl]:
    if cfg_name.startswith("<init>#"):
        arity = int(cfg_name.split("#", 1)[1])
        for ctor in cls.constructors:
            if len(ctor.params) == arity:
                return ctor
        return None
    return cls.method_named(cfg_name)


def locate_anchor(warning: Warning, program: sx.Program) -> sx.Node:
    """Find the AST node a warning names, via its structural descriptor."""
    cls = program.class_named(warning.class_name)
    if cls is None:
        raise StaleWarning(f"{warning.id}: class {warning.class_name} is gone")
    method = method_by_cfg_name(cls, warning.method_name)
    if method is None:
        raise StaleWarning(f"{warning.id}: method {warning.method_name} is gone")
    if warning.anchor_kind == "new":
        count = 0
        for e in sx.walk_exprs(method.body):
            if isinstance(e, sx.New) and e.class_name == warning.anchor_token:
                if count == warning.ordinal:
                    return e
                count += 1
    elif warning.anchor_kind == "call":
        count = 0
        for e in sx.walk_exprs(method.body):
            if isinstance(e, sx.Call):
                if count == warning.ordinal:
                    return e
                count += 1
    elif warning.anchor_kind == "store":
        _, _, fname = warning.anchor_token.partition(".")
        stores = stores_to_field(method, fname)
        if warning.ordinal < len(stores):
            return stores[warning.ordinal]
    raise StaleWarning(f"{warning.id}: no anchor matches {warning.descriptor()}")


def rebind_warning(data: dict, program: sx.Program) -> Warning:
    """Reconstruct a Warning (with anchors) from its JSON form against a program."""
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
    node = locate_anchor(w, program)  # raises StaleWarning if unmatched
    site = node.site if isinstance(node, sx.New) else -1
    return Warning(
        id=w.id,
        kind=w.kind,
        file=w.file,
        line=w.line,
        resource_class=w.resource_class,
        message=w.message,
        class_name=class_name,
        method_name=method_name,
        anchor_kind=anchor_kind,
        anchor_token=anchor_token,
        ordinal=int(ordinal),
        ast_nid=node.nid,
        site=site,
    )


# --- eligibility -------------------------------------------------------------


def pre_close_eligible(
    class_name: str,
    field_name: str,
    program: sx.Program,
    specs: Optional[SpecSet] = None,
    libspec: Optional[LibrarySpec] = None,
) -> bool:
    ok, _which = pre_close_check(class_name, field_name, program, specs, libspec)
    return ok


def pre_close_check(
    class_name: str,
    field_name: str,
    program: sx.Program,
    specs: Optional[SpecSet] = None,
    libspec: Optional[LibrarySpec] = None,
) -> tuple[bool, str]:
    """(eligible, failing-condition). Conditions: (1) field private, (2) every
    write stores a freshly allocated resource (null writes are benign),
    (3) field containment holds."""
    specs = specs or SpecSet.from_declared(program)
    libspec = libspec or LibrarySpec()
    cls = program.class_named(class_name)
    fld = cls.field_named(field_name) if cls else None
    if cls is None or fld is None:
        return False, "NoSuchField"
    if not fld.has("private"):
        return False, "FieldNotPrivate"
    writes: list[sx.Expr] = []
    if fld.initializer is not None:
        writes.append(fld.initializer)
    for m in cls.all_methods():
        writes.extend(s.value for s in stores_to_field(m, field_name))
    for value in writes:
        if isinstance(value, sx.NullLit):
            continue
        if not isinstance(value, sx.New):
            return False, "NonFreshWrite"
    analyzer = EscapeAnalyzer(program, specs, libspec)
    if not analyzer.field_containment(class_name, field_name):
        return False, "ContainmentFails"
    return True, ""


# --- planning ----------------------------------------------------------------


def plan_fix(
    warning: Warning,
    program: sx.Program,
    specs: SpecSet,
    escape_result: Optional[EscapeResult],
    libspec: Optional[LibrarySpec] = None,
) -> Union[RepairPlan, Unfixable]:
    libspec = libspec or LibrarySpec()
    anchor = locate_anchor(warning, program)  # StaleWarning if the id no longer matches
    if warning.kind == OWNING_FIELD_OVERWRITE:
        _, _, fname = warning.anchor_token.partition(".")
        owner = warning.anchor_token.split(".", 1)[0]
        ok, which = pre_close_check(owner, fname, program, specs, libspec)
        if not ok:
            return Unfixable(warning.id, f"{PRE_CLOSE_CONDITIONS_FAIL}({which})", detail=which)
        finalizers = _finalizers_for(warning.resource_class, specs, libspec)
        if not finalizers:
            return Unfixable(warning.id, NO_IR_MATCH, detail="resource has no finalizer")
        return RepairPlan(
            warning_id=warning.id,
            template=PRE_CLOSE_INSERTION,
            anchors={"store": anchor.nid},
            finalizer_method=finalizers[0],
            finalizer_methods=finalizers,
            resource_class=warning.resource_class,
            class_name=warning.class_name,
            method_name=warning.method_name,
        )
    assert warning.kind == UNSATISFIED_OBLIGATION
    if escape_result is not None and escape_result.escapes:
        route = escape_result.primary_route()
        reason = _ROUTE_TO_REASON.get(route.kind, ESCAPES_ARG) if route else ESCAPES_ARG
        return Unfixable(warning.id, reason, detail=route.detail if route else "")
    finalizers = _finalizers_for(warning.resource_class, specs, libspec)
    if not finalizers:
        return Unfixable(warning.id, NO_IR_MATCH, detail="resource has no finalizer")
    cls = program.class_named(warning.class_name)
    method = method_by_cfg_name(cls, warning.method_name) if cls else None
    if method is None:
        return Unfixable(warning.id, NO_IR_MATCH, detail="enclosing method not found")
    located = _locate_stmt(method.body, anchor)
    if located is None:
        return Unfixable(warning.id, NO_IR_MATCH, detail="allocation is not inside a statement list")
    block, idx, try_chain = located
    stmt = block.stmts[idx]
    in_try_body = bool(try_chain)
    template = CLOSE_IN_FINALLY if in_try_body else TRY_FINALLY_WRAP
    anchors = {"expr": anchor.nid, "stmt": stmt.nid, "block": block.nid}
    if in_try_body:
        anchors["try"] = try_chain[-1].nid
    return RepairPlan(
        warning_id=warning.id,
        template=template,
        anchors=anchors,
        finalizer_method=finalizers[0],
        finalizer_methods=finalizers,
        resource_class=warning.resource_class,
        class_name=warning.class_name,
        method_name=warning.method_name,
    )


def _finalizers_for(resource_class: str, specs: SpecSet, libspec: LibrarySpec) -> tuple[str, ...]:
    mc = resource_must_call(resource_class, specs, libspec)
    if not mc:
        return ()
    names = sorted(mc)
    if "close" in mc:
        names.remove("close")
        names.insert(0, "close")
    return tuple(names)


def _locate_stmt(
    body: sx.Block, anchor: sx.Node
) -> Optional[tuple[sx.Block, int, list[sx.Try]]]:
    """Find (block, index, enclosing-try-bodies) of the statement containing anchor."""

    def stmt_contains(s: sx.Stmt) -> bool:
        if s.nid == anchor.nid:
            return True
        return any(e.nid == anchor.nid for e in sx.walk_exprs(s))

    def direct_exprs(s: sx.Stmt) -> bool:
        # anchor must belong to the statement itself, not a nested block
        if isinstance(s, sx.LocalDecl):
            return s.init is not None and any(e.nid == anchor.nid for e in sx.walk_exprs_of_expr(s.init))
        if isinstance(s, sx.Assign):
            return any(
                e.nid == anchor.nid for e in list(sx.walk_exprs_of_expr(s.value)) + list(sx.walk_exprs_of_expr(s.target))
            )
        if isinstance(s, sx.ExprStmt):
            return any(e.nid == anchor.nid for e in sx.walk_exprs_of_expr(s.expr))
        if isinstance(s, sx.Return):
            return s.value is not None and any(e.nid == anchor.nid for e in sx.walk_exprs_of_expr(s.value))
        return False

    def search(block: sx.Block, tries: list[sx.Try]) -> Optional[tuple[sx.Block, int, list[sx.Try]]]:
        for i, s in enumerate(block.stmts):
            if direct_exprs(s):
                return block, i, list(tries)
            if isinstance(s, sx.If) and stmt_contains(s):
                for sub in (s.then_block, s.else_block):
                    if sub is not None:
                        r = search(sub, tries)
                        if r is not None:
                            return r
                if s.cond is not None and any(e.nid == anchor.nid for e in sx.walk_exprs_of_expr(s.cond)):
                    return None  # allocation in a condition: no statement slot
            elif isinstance(s, sx.While) and stmt_contains(s):
                return None  # loop-allocated: needs a template we do not provide
            elif isinstance(s, sx.Try) and stmt_contains(s):
                r = search(s.body, tries + [s])
                if r is not None:
                    return r
                for sub in (s.catch_block, s.finally_block):
                    if sub is not None:
                        r = search(sub, tries)
                        if r is not None:
                            return r
        return None

    return search(body, [])


# --- materialization ---------------------------------------------------------


def materialize(program: sx.Program, plan: RepairPlan, libspec: Optional[LibrarySpec] = None) -> Patch:
    """Apply the plan's template to a private copy and diff the canonical prints."""
    before = pretty_print(program)
    patched = copy.deepcopy(program)
    edits = _apply_plan(patched, plan)
    after = pretty_print(patched)
    diff = unified_diff_text(before, after, program.source_name)
    return Patch(
        file=program.source_name,
        diff=diff,
        structured_edits=edits,
        status="Materialized",
        patched_program=patched,
    )


def apply_plan_in_place(program: sx.Program, plan: RepairPlan) -> list[dict]:
    """Apply a plan to an already-copied program (pipeline batching)."""
    return _apply_plan(program, plan)


def unified_diff_text(before: str, after: str, name: str) -> str:
    lines = difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True), fromfile=f"a/{name}", tofile=f"b/{name}"
    )
    return "".join(lines)


def _find_node(program: sx.Program, nid: int) -> Optional[sx.Node]:
    for cls in program.classes:
        for meth in cls.all_methods():
            if meth.nid == nid:
                return meth
            for s in sx.walk_stmts(meth.body):
                if s.nid == nid:
                    return s
            for e in sx.walk_exprs(meth.body):
                if e.nid == nid:
                    return e
        for f in cls.fields:
            if f.nid == nid:
                return f
    return None


def _apply_plan(program: sx.Program, plan: RepairPlan) -> list[dict]:
    if plan.template == PRE_CLOSE_INSERTION:
        return _apply_pre_close(program, plan)
    if plan.template in (TRY_FINALLY_WRAP, CLOSE_IN_FINALLY):
        return _apply_wrap(program, plan)
    raise MaterializationFailure("UnknownTemplate", plan.template)


def _guarded_close(program: sx.Program, anchor: sx.Node, var: str, methods: tuple[str, ...]) -> sx.If:
    calls: list[sx.Stmt] = []
    for m in methods:
        call = sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name=var), method=m, args=[]))
        calls.append(call)
    guard = sx.If(
        cond=sx.Eq(lhs=sx.VarRef(name=var), rhs=sx.NullLit(), negated=True),
        then_block=sx.Block(stmts=calls),
        else_block=None,
    )
    _note_new_subtree(program, guard, anchor)
    return guard


def _note_new_subtree(program: sx.Program, root: sx.Node, anchor: sx.Node) -> None:
    program.inherit_pos(root, anchor)
    if isinstance(root, sx.Stmt):
        for s in sx.walk_stmts(root):
            program.inherit_pos(s, anchor)
        for e in sx.walk_exprs(root):
            program.inherit_pos(e, anchor)
        if isinstance(root, sx.If):
            for b in (root.then_block, root.else_block):
                if b is not None:
                    program.inherit_pos(b, anchor)
        if isinstance(root, sx.Try):
            for b in (root.body, root.catch_block, root.finally_block):
                if b is not None:
                    program.inherit_pos(b, anchor)


def _apply_pre_close(program: sx.Program, plan: RepairPlan) -> list[dict]:
    store = _find_node(program, plan.anchors["store"])
    if store is None or not isinstance(store, sx.Assign):
        raise MaterializationFailure("StaleAnchor", f"store anchor for {plan.warning_id}")
    cls = program.class_named(plan.class_name)
    method = method_by_cfg_name(cls, plan.method_name) if cls else None
    if method is None:
        raise MaterializationFailure("StaleAnchor", f"method for {plan.warning_id}")
    located = _locate_stmt_by_identity(method.body, store)
    if located is None:
        raise MaterializationFailure("StaleAnchor", "store not in a statement list")
    block, idx = located
    if _already_pre_closed(block, idx, store):
        raise MaterializationFailure("StaleAnchor", "pre-close already present")
    exc_name = _exception_name(method)
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
    _note_new_subtree(program, guard, store)
    block.stmts.insert(idx, guard)
    return [
        {
            "edit": "pre-close",
            "warningId": plan.warning_id,
            "before": store.nid,
            "finalizers": list(plan.finalizer_methods),
        }
    ]


def _already_pre_closed(block: sx.Block, idx: int, store: sx.Assign) -> bool:
    if idx == 0:
        return False
    prev = block.stmts[idx - 1]
    if not isinstance(prev, sx.If) or prev.else_block is not None or not isinstance(prev.cond, sx.Eq):
        return False
    cond = prev.cond
    return cond.negated and isinstance(cond.rhs, sx.NullLit) and _expr_matches(cond.lhs, store.target)


def _expr_matches(a: sx.Expr, b: sx.Expr) -> bool:
    stripped_a, stripped_b = copy.deepcopy(a), copy.deepcopy(b)
    _strip_nids(stripped_a)
    _strip_nids(stripped_b)
    return stripped_a == stripped_b


def _strip_nids(root: sx.Expr) -> None:
    for e in sx.walk_exprs_of_expr(root):
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


def _locate_stmt_by_identity(body: sx.Block, target: sx.Stmt) -> Optional[tuple[sx.Block, int]]:
    def search(block: sx.Block) -> Optional[tuple[sx.Block, int]]:
        for i, s in enumerate(block.stmts):
            if s is target:
                return block, i
            subs: list[Optional[sx.Block]] = []
            if isinstance(s, sx.If):
                subs = [s.then_block, s.else_block]
            elif isinstance(s, sx.While):
                subs = [s.body]
            elif isinstance(s, sx.Try):
                subs = [s.body, s.catch_block, s.finally_block]
            for sub in subs:
                if sub is not None:
                    r = search(sub)
                    if r is not None:
                        return r
        return None

    return search(body)


def _apply_wrap(program: sx.Program, plan: RepairPlan) -> list[dict]:
    expr = _find_node(program, plan.anchors["expr"])
    if expr is None or not isinstance(expr, (sx.New, sx.Call)):
        raise MaterializationFailure("StaleAnchor", f"expression anchor for {plan.warning_id}")
    cls = program.class_named(plan.class_name)
    method = method_by_cfg_name(cls, plan.method_name) if cls else None
    if method is None:
        raise MaterializationFailure("StaleAnchor", f"method for {plan.warning_id}")
    located = _locate_stmt(method.body, expr)
    if located is None:
        raise MaterializationFailure("StaleAnchor", "allocation is not inside a statement list")
    block, idx, try_chain = located
    stmt = block.stmts[idx]
    fresh = FreshNames(program)
    edits: list[dict] = []

    # normalize the anchor statement so a named local holds the resource
    var: str
    if isinstance(stmt, sx.LocalDecl) and stmt.init is not None and stmt.init.nid == expr.nid:
        var = stmt.name
        assign = sx.Assign(target=sx.VarRef(name=var), value=stmt.init)
        decl = sx.LocalDecl(type_name=stmt.type_name, name=var, init=sx.NullLit())
        _note_new_subtree(program, assign, stmt)
        _note_new_subtree(program, decl, stmt)
        block.stmts[idx] = assign
        hoisted: Optional[sx.LocalDecl] = decl
    elif isinstance(stmt, sx.Assign) and isinstance(stmt.target, sx.VarRef) and stmt.value.nid == expr.nid:
        var = stmt.target.name
        hoisted = None
    else:
        # the allocation is nested: extract it into a fresh temporary
        var = fresh.next(hint="tmp")
        plan.fresh_names.append(var)
        decl = sx.LocalDecl(type_name=plan.resource_class, name=var, init=sx.NullLit())
        assign = sx.Assign(target=sx.VarRef(name=var), value=expr)
        _note_new_subtree(program, decl, stmt)
        _note_new_subtree(program, assign, stmt)
        replaced = _replace_expr(stmt, expr, sx.VarRef(name=var))
        if not replaced:
            raise MaterializationFailure("StaleAnchor", "could not extract the allocation")
        if isinstance(stmt, sx.ExprStmt) and isinstance(stmt.expr, sx.VarRef):
            block.stmts[idx] = assign  # the statement was just the extracted expression
        else:
            block.stmts.insert(idx, assign)
        hoisted = decl
        stmt = assign

    guard = _guarded_close(program, stmt, var, plan.finalizer_methods)

    if plan.template == CLOSE_IN_FINALLY:
        try_stmt = try_chain[-1]
        if hoisted is not None:
            outer = _locate_stmt_by_identity(method.body, try_stmt)
            if outer is None:
                raise MaterializationFailure("StaleAnchor", "enclosing try vanished")
            outer_block, outer_idx = outer
            outer_block.stmts.insert(outer_idx, hoisted)
        if try_stmt.finally_block is None:
            try_stmt.finally_block = sx.Block(stmts=[guard])
            program.inherit_pos(try_stmt.finally_block, try_stmt)
        else:
            try_stmt.finally_block.stmts.append(guard)
        edits.append({"edit": "close-in-finally", "warningId": plan.warning_id, "var": var})
        return edits

    # TryFinallyWrap: move the allocation statement and the rest of its block
    # into a new try, close in the finally
    suffix = block.stmts[idx:]
    del block.stmts[idx:]
    try_stmt = sx.Try(
        body=sx.Block(stmts=suffix),
        catch_type=None,
        catch_name=None,
        catch_block=None,
        finally_block=sx.Block(stmts=[guard]),
    )
    program.inherit_pos(try_stmt, stmt)
    program.inherit_pos(try_stmt.body, stmt)
    program.inherit_pos(try_stmt.finally_block, stmt)
    if hoisted is not None:
        block.stmts.append(hoisted)
    block.stmts.append(try_stmt)
    edits.append({"edit": "try-finally-wrap", "warningId": plan.warning_id, "var": var, "moved": len(suffix)})
    return edits


def _replace_expr(stmt: sx.Stmt, old: sx.Expr, new: sx.Expr) -> bool:
    """Swap one expression node for another within a statement."""

    def fix(e: sx.Expr) -> sx.Expr:
        if e.nid == old.nid:
            return new
        if isinstance(e, sx.New):
            e.args = [fix(a) for a in e.args]
        elif isinstance(e, sx.Call):
            e.receiver = fix(e.receiver)
            e.args = [fix(a) for a in e.args]
        elif isinstance(e, sx.FieldRef):
            e.receiver = fix(e.receiver)
        elif isinstance(e, sx.Eq):
            e.lhs = fix(e.lhs)
            e.rhs = fix(e.rhs)
        return e

    found = any(e.nid == old.nid for e in sx.walk_exprs(stmt))
    if not found:
        return False
    if isinstance(stmt, sx.LocalDecl) and stmt.init is not None:
        stmt.init = fix(stmt.init)
    elif isinstance(stmt, sx.Assign):
        stmt.target = fix(stmt.target)  # type: ignore[assignment]
        stmt.value = fix(stmt.value)
    elif isinstance(stmt, sx.ExprStmt):
        stmt.expr = fix(stmt.expr)
    elif isinstance(stmt, sx.Return) and stmt.value is not None:
        stmt.value = fix(stmt.value)
    return True
