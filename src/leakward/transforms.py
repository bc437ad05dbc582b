"""Semantics-preserving code transformations.

Three rewrites reshape code so inference and repair see clearer ownership:

  finalize_fields   adds `final` to private fields assigned exactly once, at
                    declaration or in constructors; a lone assignment inside a
                    try gets the temp-variable rewrite (assign a fresh temp in
                    the try, copy it to the field in a finally);
  field_to_local    demotes a private field read by a single method into a
                    local of that method, shrinking the value's lifetime;
  inject_finalizers adds `implements AutoCloseable` plus a close() method to
                    warning-flagged wrapper classes that allocate a resource
                    in a constructor, store it in a field, and never dispose
                    it.

Each edits the program it is given and returns an EditLog of the edits it
made. `finalize_fields` and `inject_finalizers`, which analyse, read CFGs
and checker runs from a version and return the version of the program as it
now is: a new one after an edit a key reads (a temp rewrite, an injected
close()), else the given one, or a fresh one of a bare program; `final`
alone keeps it. `field_to_local`, which does not analyse, returns the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional

from . import cfg as C
from . import syntax as sx
from .checker import Warning
from .escape import tainted_stores
from .inference import disposes
from .libspec import LibrarySpec
from .memo import ProgramOrVersion, ProgramVersion, version_of
from .specs import SpecSet, finalizer_order, resource_must_call


@dataclass
class EditEntry:
    transform: str
    class_name: str
    member: str
    description: str
    nodes: list[int] = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        # node ids are process-local handles into the in-memory AST; the wire
        # form carries only their count so reports stay byte-reproducible
        return {
            "transform": self.transform,
            "class": self.class_name,
            "member": self.member,
            "description": self.description,
            "touchedNodes": len(self.nodes),
            "meta": self.meta,
        }


@dataclass
class EditLog:
    entries: list[EditEntry] = dc_field(default_factory=list)

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


class FreshNames:
    """Deterministic collision-free identifiers, one counter per file."""

    def __init__(self, program: sx.Program):
        self.used = set()
        for cls in program.classes:
            self.used.add(cls.name)
            for f in cls.fields:
                self.used.add(f.name)
            for m in cls.all_methods():
                self.used.add(m.name)
                for p in m.params:
                    self.used.add(p.name)
                for s in sx.walk_stmts(m.body):
                    if isinstance(s, sx.LocalDecl):
                        self.used.add(s.name)
        self.counter = 0

    def next(self, hint: str = "tmp") -> str:
        while True:
            self.counter += 1
            name = f"__lw_{hint}{self.counter}"
            if name not in self.used:
                self.used.add(name)
                return name


# --- finalize_fields ---------------------------------------------------------


def finalize_fields(program: ProgramOrVersion, libspec: LibrarySpec) -> tuple[ProgramVersion, EditLog]:
    log = EditLog()
    version = version_of(program, libspec)
    fresh = FreshNames(version.program)
    for cls in version.program.classes:
        for fld in cls.fields:
            if fld.has("final") or not fld.has("private"):
                continue
            if not _finalize_eligible(version, cls, fld):
                continue
            if _apply_finalize(version.program, cls, fld, fresh, log):
                version = version.edited()
    return version, log


def _finalize_eligible(version: ProgramVersion, cls: sx.ClassDecl, fld: sx.FieldDecl) -> bool:
    method_writers = [m for m in cls.methods if sx.stores_to_field(cls, m, cls.name, fld.name)]
    if method_writers:
        return False
    ctor_writers = [c for c in cls.constructors if sx.stores_to_field(cls, c, cls.name, fld.name)]
    if fld.has("static"):
        return fld.initializer is not None and not ctor_writers
    if fld.initializer is not None:
        return not ctor_writers
    if not ctor_writers or len(ctor_writers) != len(cls.constructors):
        return False  # some constructor leaves the field unassigned
    for ctor in cls.constructors:
        if not _writes_exactly_once_per_normal_path(version, cls, ctor, fld.name):
            return False
    return True


def _writes_exactly_once_per_normal_path(
    version: ProgramVersion, cls: sx.ClassDecl, ctor: sx.MethodDecl, field_name: str
) -> bool:
    cfg = version.cfg(cls, ctor)
    stores, doubled = cfg.field_stores(cls.name, field_name)
    if not stores or doubled:
        return False  # max <= 1: no store reaches another store (or itself through a cycle)
    # min >= 1 along pure-normal paths: exit unreachable once stores are removed
    return cfg.exit not in cfg.reachable([cfg.entry], C.NORMAL, blocked=set(stores))


def _apply_finalize(
    program: sx.Program, cls: sx.ClassDecl, fld: sx.FieldDecl, fresh: FreshNames, log: EditLog
) -> bool:
    """Add `final` to `fld`; whether a temp rewrite edited a constructor body,
    the one part of the edit a key reads."""
    touched = [fld.nid]
    rewrites = []
    for ctor in cls.constructors:
        store = next(iter(sx.stores_to_field(cls, ctor, cls.name, fld.name)), None)
        if store is None:
            continue
        tries = sx.try_slots(sx.stmt_path(ctor.body, store))
        if tries:
            rewrites.append((store, tries[-1]))
    for store, try_slot in rewrites:
        temp = fresh.next(hint=fld.name)
        touched += _temp_rewrite(program, store, try_slot, fld, temp)
    fld.modifiers = tuple([m for m in fld.modifiers] + ["final"])
    log.entries.append(
        EditEntry(
            transform="finalize_field",
            class_name=cls.name,
            member=fld.name,
            description=f"added final to {cls.name}.{fld.name}"
            + (" with try/finally temp rewrite" if rewrites else ""),
            nodes=touched,
            meta={"temp_rewrites": len(rewrites)},
        )
    )
    return bool(rewrites)


def _temp_rewrite(
    program: sx.Program, store: sx.Assign, try_slot: tuple[sx.Block, int], fld: sx.FieldDecl, temp: str
) -> list[int]:
    """Null-initialized temp before the try (in the try's own block), assign
    the temp inside the try, copy the temp into the field in a (possibly new)
    finally."""
    block, idx = try_slot
    try_stmt = block.stmts[idx]
    temp_decl = sx.LocalDecl(type_name=fld.declared_type, name=temp, init=sx.NullLit())
    block.stmts.insert(idx, temp_decl)
    # retarget the original store
    store.target = sx.VarRef(name=temp)
    field_assign = sx.Assign(target=sx.VarRef(name=fld.name), value=sx.VarRef(name=temp))
    if try_stmt.finally_block is None:
        try_stmt.finally_block = sx.Block(stmts=[])
        program.inherit_pos(try_stmt.finally_block, try_stmt)
    try_stmt.finally_block.stmts.append(field_assign)
    for node in (temp_decl, store.target, field_assign):
        program.adopt(node, try_stmt)
    return [temp_decl.nid, field_assign.nid]


# --- field_to_local ----------------------------------------------------------


def field_to_local(program: sx.Program) -> tuple[sx.Program, EditLog]:
    log = EditLog()
    for cls in program.classes:
        for fld in list(cls.fields):
            target = _demote_target(cls, fld)
            if target is None:
                continue
            _apply_demote(program, cls, fld, *target, log)
    return program, log


def _is_this_ref(e: sx.Expr, field_name: str) -> bool:
    return isinstance(e, sx.FieldRef) and e.name == field_name and isinstance(e.receiver, sx.VarRef) and e.receiver.name == C.THIS


def _reads_of_field(method: sx.MethodDecl, field_name: str) -> list[sx.Expr]:
    names = sx.local_refs(method)
    targets = {id(s.target) for s in names.assigns}
    return [
        e
        for e in sx.walk_exprs(method.body)
        if id(e) not in targets
        and (_is_this_ref(e, field_name) or isinstance(e, sx.VarRef) and e.name == field_name and not names.is_local(e))
    ]


def _demote_target(cls: sx.ClassDecl, fld: sx.FieldDecl) -> Optional[tuple[sx.MethodDecl, sx.Assign]]:
    """The one member that writes `fld`, when no other member reads it, and
    its first write, when that write is a statement of the member's own body
    that no read of `fld` is evaluated before."""
    if not fld.has("private") or fld.initializer is not None:
        return None
    readers = [(m, reads) for m in cls.all_methods() if (reads := _reads_of_field(m, fld.name))]
    writers = [(m, stores) for m in cls.all_methods() if (stores := sx.stores_to_field(cls, m, cls.name, fld.name))]
    if len(readers) > 1 or len(writers) != 1:
        return None
    m, stores = writers[0]
    if readers and readers[0][0] is not m:
        return None
    before = sx.evaluated_before(m.body, stores[0])
    if before is None:
        return None
    read_ids = {id(e) for _m, reads in readers for e in reads}
    if any(id(e) in read_ids for e in before):
        return None
    return m, stores[0]


def _apply_demote(
    program: sx.Program, cls: sx.ClassDecl, fld: sx.FieldDecl, method: sx.MethodDecl, store: sx.Assign, log: EditLog
) -> None:
    decl = sx.LocalDecl(type_name=fld.declared_type, name=fld.name, init=store.value)
    program.inherit_pos(decl, store)
    idx = next(i for i, s in enumerate(method.body.stmts) if s is store)
    method.body.stmts[idx] = decl

    def local_ref(e: sx.Expr) -> Optional[sx.Expr]:
        if not _is_this_ref(e, fld.name):
            return None
        ref = sx.VarRef(name=fld.name)
        program.inherit_pos(ref, e)
        return ref

    sx.map_exprs(method.body, local_ref)
    cls.fields.remove(fld)
    log.entries.append(
        EditEntry(
            transform="field_to_local",
            class_name=cls.name,
            member=fld.name,
            description=f"demoted {cls.name}.{fld.name} to a local of {method.name}",
            nodes=[decl.nid],
            meta={"method": method.name},
        )
    )


# --- inject_finalizers -------------------------------------------------------


def inject_finalizers(
    program: ProgramOrVersion,
    warnings: list[Warning],
    specs: SpecSet,
    libspec: LibrarySpec,
) -> tuple[ProgramVersion, EditLog]:
    """Add `implements AutoCloseable` and a close() method to classes where a
    first-pass warning flags a constructor allocation stored into an instance
    field no method disposes. Warning-driven by design."""
    log = EditLog()
    version = version_of(program, libspec)
    for cls in version.program.classes:
        if cls.method_named("close") is not None:
            continue
        flagged = _warned_ctor_fields(version, cls, warnings)
        undisposed = [
            (fname, wids)
            for fname, wids in flagged
            if not any(disposes(version, cls, m, fname, specs) for m in cls.methods)
        ]
        if not undisposed:
            continue
        _apply_inject(version, cls, undisposed, specs, log)
        version = version.edited()
    return version, log


def _warned_ctor_fields(
    version: ProgramVersion, cls: sx.ClassDecl, warnings: list[Warning]
) -> list[tuple[str, list[str]]]:
    """Instance fields of cls receiving a warned constructor allocation, in
    field declaration order, with the driving warning ids. Each warning is
    read in its own constructor's CFG, at every copy of its allocation."""
    ctors = {sx.member_key(c): c for c in cls.constructors}
    hits: dict[str, list[str]] = {}
    for w in warnings:
        ctor = ctors.get(w.method_name)
        if w.kind != "UnsatisfiedObligation" or w.class_name != cls.name or ctor is None or w.anchor_kind != "new":
            continue
        cfg = version.cfg(cls, ctor)
        for node in cfg.copies(w.ast_nid):
            for ins in tainted_stores(cfg, node, cfg.nodes[node].dst):  # type: ignore[union-attr]
                if ins.recv == C.THIS and ins.field_class == cls.name:
                    fld = cls.field_named(ins.field)
                    if fld is not None and not fld.has("static"):
                        hits.setdefault(ins.field, []).append(w.id)
    order = {f.name: i for i, f in enumerate(cls.fields)}
    return sorted(((f, sorted(set(ids))) for f, ids in hits.items()), key=lambda kv: order.get(kv[0], 99))


def finalizer_calls(var: str, methods: Iterable[str], guarded: bool) -> list[sx.Stmt]:
    """`var.m();` for each of `methods`, in order; when `guarded`, one
    `if (var != null) { … }` around them. An injected close() and a
    repair's close build their calls here."""
    calls: list[sx.Stmt] = [
        sx.ExprStmt(expr=sx.Call(receiver=sx.VarRef(name=var), method=m, args=[])) for m in methods
    ]
    if not guarded:
        return calls
    cond = sx.Eq(lhs=sx.VarRef(name=var), rhs=sx.NullLit(), negated=True)
    return [sx.If(cond=cond, then_block=sx.Block(stmts=calls), else_block=None)]


def _apply_inject(
    version: ProgramVersion,
    cls: sx.ClassDecl,
    fields_with_ids: list[tuple[str, list[str]]],
    specs: SpecSet,
    log: EditLog,
) -> None:
    """Add the close() method to `version`'s program, which ends the version."""
    stmts: list[sx.Stmt] = []
    guarded = []
    for fname, _ids in fields_with_ids:
        fld = cls.field_named(fname)
        assert fld is not None
        # unguarded only when every constructor stores a fresh object exactly once
        never_null = bool(cls.constructors) and all(
            _writes_exactly_once_per_normal_path(version, cls, ctor, fname)
            and all(isinstance(st.value, sx.New) for st in sx.stores_to_field(cls, ctor, cls.name, fname))
            for ctor in cls.constructors
        )
        methods = finalizer_order(resource_must_call(fld.declared_type, specs, version.libspec))
        stmts.extend(finalizer_calls(fname, methods, guarded=not never_null))
        if not never_null:
            guarded.append(fname)
    body = sx.Block(stmts=stmts)
    close = sx.MethodDecl(
        name="close", params=[], return_type="void", body=body, annotations=[], modifiers=("public",)
    )
    version.program.adopt(close, cls)
    cls.methods.append(close)
    implements_set = False
    if cls.implements is None:
        cls.implements = "AutoCloseable"
        implements_set = True
    log.entries.append(
        EditEntry(
            transform="inject_finalizer",
            class_name=cls.name,
            member="close",
            description=f"injected close() covering {', '.join(f for f, _ in fields_with_ids)}",
            nodes=[close.nid],
            meta={
                "fields": [f for f, _ in fields_with_ids],
                "warning_ids": {f: ids for f, ids in fields_with_ids},
                "guarded": guarded,
                "implements_set": implements_set,
            },
        )
    )
