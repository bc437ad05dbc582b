"""Leak checking: must-call obligations and the called-methods dataflow.

For every allocation of a resource class, a warning is emitted unless every
path discharges the obligation before the value's lifetime ends:

  (a) every must-call method was invoked on some alias,
  (b) the value was stored into an @Owning field,
  (c) the value was passed at an @Owning parameter position,
  (d) the value was returned and the method's return is owning (the default).

A store to an @Owning field whose previous content is not known-satisfied
additionally raises an OwningFieldOverwrite warning; the six-condition
constructor filter later removes provably-first writes. Final fields cannot
be overwritten (the compile gate enforces the single write), so their stores
never raise overwrite warnings.

Obligation states live in a lattice per allocation origin: (called-set,
resolved-flag) with meet = (intersection, and). Each local carries the set of
origins whose value it may hold plus a definitely-non-null flag; crediting a
call or discharge to every origin a receiver may hold is path-wise sound
because obligations whose last live reference disappears are warned at that
death point (liveness-driven), mirroring the lifetime-end rule ("scope exit
or variable overwrite"). A method invocation registers on both the normal and
exceptional out-edges (the call happened even if it threw); a failed
allocation registers on neither. Values dying on an uncaught-exception edge
out of the method are not leak-reported; only the exit node's normal in-edges
feed the final check.

Warning ids hash a structural descriptor (class, method, resource, ordinal),
never line numbers, so inserting blank lines changes no ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .specs import (
    NOT_OWNING,
    OWNING,
    SpecSet,
    is_resource_type,
    method_return_ownership,
    param_ownership,
    resource_must_call,
)

UNSATISFIED_OBLIGATION = "UnsatisfiedObligation"
OWNING_FIELD_OVERWRITE = "OwningFieldOverwrite"

# Obligation origins: ("new", allocation site) or ("call", invoke ast node).
Origin = tuple


@dataclass(frozen=True)
class Warning:
    id: str
    kind: str
    file: str
    line: int
    resource_class: str
    message: str
    # structural anchor, excluded from identity
    class_name: str = field(compare=False, default="")
    method_name: str = field(compare=False, default="")
    anchor_kind: str = field(compare=False, default="")  # new | call | store
    anchor_token: str = field(compare=False, default="")  # resource class or Class.field
    ordinal: int = field(compare=False, default=0)
    ast_nid: int = field(compare=False, default=-1)
    site: int = field(compare=False, default=-1)

    def descriptor(self) -> str:
        return "|".join(
            [
                self.kind,
                self.file,
                self.class_name,
                self.method_name,
                self.anchor_kind,
                self.anchor_token,
                str(self.ordinal),
            ]
        )

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "file": self.file,
            "line": self.line,
            "resourceClass": self.resource_class,
            "message": self.message,
            "descriptor": self.descriptor(),
        }


@dataclass(frozen=True)
class CompileError:
    file: str
    line: int
    message: str


def warning_id(
    kind: str, file: str, class_name: str, method_name: str, anchor_kind: str, anchor_token: str, ordinal: int
) -> str:
    text = "|".join([kind, file, class_name, method_name, anchor_kind, anchor_token, str(ordinal)])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def make_warning(
    kind: str,
    program: sx.Program,
    class_name: str,
    method_name: str,
    anchor_kind: str,
    anchor_token: str,
    ordinal: int,
    ast_nid: int,
    resource_class: str,
    message: str,
    site: int = -1,
) -> Warning:
    line, _col = program.pos_of(ast_nid)
    return Warning(
        id=warning_id(kind, program.source_name, class_name, method_name, anchor_kind, anchor_token, ordinal),
        kind=kind,
        file=program.source_name,
        line=line,
        resource_class=resource_class,
        message=message,
        class_name=class_name,
        method_name=method_name,
        anchor_kind=anchor_kind,
        anchor_token=anchor_token,
        ordinal=ordinal,
        ast_nid=ast_nid,
        site=site,
    )


def stores_to_field(method: sx.MethodDecl, field_name: str) -> list[sx.Assign]:
    """Assign statements writing the named field, in AST order.

    A bare `f = e;` target counts when no parameter or local shadows f.
    """
    shadowed = any(p.name == field_name for p in method.params) or any(
        isinstance(s, sx.LocalDecl) and s.name == field_name for s in sx.walk_stmts(method.body)
    )
    out = []
    for s in sx.walk_stmts(method.body):
        if not isinstance(s, sx.Assign):
            continue
        t = s.target
        if isinstance(t, sx.FieldRef) and t.name == field_name:
            out.append(s)
        elif isinstance(t, sx.VarRef) and t.name == field_name and not shadowed:
            out.append(s)
    return out


# --- per-method obligation dataflow -----------------------------------------


@dataclass(frozen=True)
class SiteState:
    called: frozenset[str]
    resolved: bool


RefInfo = tuple[tuple[Origin, ...], bool]  # (possible origins, definitely non-null)


@dataclass(frozen=True)
class CheckFact:
    origins: tuple[tuple[Origin, SiteState], ...]  # sorted association list
    refs: tuple[tuple[str, RefInfo], ...]  # local -> origins it may hold
    nulls: frozenset[str]  # locals definitely holding null
    field_called: tuple[tuple[str, frozenset[str]], ...]  # accumulated on the current content
    field_sat: frozenset[str]  # this-fields whose content is known satisfied-or-null
    bindings: tuple[tuple[str, str], ...]  # temp -> this-field it was loaded from
    field_origins: tuple[tuple[str, tuple[Origin, ...]], ...]  # this-field -> stored origins

    def origin_map(self) -> dict[Origin, SiteState]:
        return dict(self.origins)

    def ref_map(self) -> dict[str, RefInfo]:
        return dict(self.refs)


def _pack(
    origins: dict[Origin, SiteState],
    refs: dict[str, RefInfo],
    nulls: set[str],
    field_called: dict[str, frozenset[str]],
    field_sat: set[str],
    bindings: dict[str, str],
    field_origins: dict[str, tuple[Origin, ...]],
) -> CheckFact:
    return CheckFact(
        origins=tuple(sorted(origins.items(), key=lambda kv: repr(kv[0]))),
        refs=tuple(sorted(refs.items())),
        nulls=frozenset(nulls),
        field_called=tuple(sorted(field_called.items())),
        field_sat=frozenset(field_sat),
        bindings=tuple(sorted(bindings.items())),
        field_origins=tuple(sorted((k, v) for k, v in field_origins.items() if v)),
    )


EMPTY_FACT = CheckFact(
    origins=(), refs=(), nulls=frozenset(), field_called=(), field_sat=frozenset(), bindings=(), field_origins=()
)


def _meet(f1: CheckFact, f2: CheckFact) -> CheckFact:
    o1, o2 = f1.origin_map(), f2.origin_map()
    origins: dict[Origin, SiteState] = {}
    for k in set(o1) | set(o2):
        if k in o1 and k in o2:
            origins[k] = SiteState(o1[k].called & o2[k].called, o1[k].resolved and o2[k].resolved)
        else:
            origins[k] = o1[k] if k in o1 else o2[k]  # absent = not allocated on that path
    r1, r2 = f1.ref_map(), f2.ref_map()
    refs: dict[str, RefInfo] = {}
    nulls: set[str] = set()
    for x in set(r1) | set(r2) | set(f1.nulls) | set(f2.nulls):
        in1, in2 = x in r1 or x in f1.nulls, x in r2 or x in f2.nulls
        null1, null2 = x in f1.nulls, x in f2.nulls
        s1 = set(r1.get(x, ((), False))[0])
        s2 = set(r2.get(x, ((), False))[0])
        nn1 = r1[x][1] if x in r1 else False
        nn2 = r2[x][1] if x in r2 else False
        if not in1:  # unbound on side 1: unreadable on those paths, keep side 2
            s, nn, isnull = s2, nn2, null2
        elif not in2:
            s, nn, isnull = s1, nn1, null1
        else:
            s, nn, isnull = s1 | s2, nn1 and nn2, null1 and null2
        if isnull:
            nulls.add(x)
        elif s:
            refs[x] = (tuple(sorted(s, key=repr)), nn and not (null1 or null2))
    fc1, fc2 = dict(f1.field_called), dict(f2.field_called)
    field_called = {k: fc1[k] & fc2[k] for k in set(fc1) & set(fc2)}
    b1, b2 = dict(f1.bindings), dict(f2.bindings)
    bindings = {k: v for k, v in b1.items() if b2.get(k) == v}
    # field-content origins meet by intersection: crediting a close through a
    # field is only sound when the field holds the origin on every path
    fo1, fo2 = dict(f1.field_origins), dict(f2.field_origins)
    field_origins = {
        k: tuple(sorted(set(fo1[k]) & set(fo2[k]), key=repr)) for k in set(fo1) & set(fo2)
    }
    return _pack(origins, refs, nulls, field_called, set(f1.field_sat & f2.field_sat), bindings, field_origins)


class _MethodChecker:
    def __init__(self, cfg: C.Cfg, specs: SpecSet, libspec: LibrarySpec):
        assert cfg.program is not None, "Cfg must carry its program"
        self.cfg = cfg
        self.specs = specs
        self.libspec = libspec
        self.program = cfg.program
        self.cls = cfg.class_ast
        self.method = cfg.method_ast
        assert self.cls is not None and self.method is not None
        self.warnings: dict[str, Warning] = {}  # the visited node's during run(), then all
        self.alloc_class: dict[int, str] = {}
        self.alloc_nid: dict[int, int] = {}
        for instr in cfg.nodes:
            if isinstance(instr, C.Alloc):
                self.alloc_class[instr.site] = instr.class_name
                self.alloc_nid[instr.site] = instr.ast_nid
        self.call_ret_class: dict[int, str] = {}  # invoke ast nid -> returned class
        self.exit_fact: Optional[CheckFact] = None  # meet over exit's normal in-edges; None if none
        self.live_in = C.liveness(cfg)

    # origin helpers

    def origins_of_operand(self, op: str, fact: CheckFact) -> tuple[Origin, ...]:
        for local, (origins, _nn) in fact.refs:
            if local == op:
                return origins
        return ()

    def origin_class(self, origin: Origin) -> str:
        if origin[0] == "new":
            return self.alloc_class.get(origin[1], "?")
        return self.call_ret_class.get(origin[1], "?")

    def must_call_for(self, class_name: str) -> frozenset[str]:
        return resource_must_call(class_name, self.specs, self.libspec)

    def tracked(self, class_name: str) -> bool:
        return is_resource_type(class_name, self.specs, self.libspec)

    def insufficient(self, origin: Origin, st: SiteState) -> bool:
        return not st.resolved and not st.called >= self.must_call_for(self.origin_class(origin))

    # ordinals for stable descriptors

    def new_ordinal(self, ast_nid: int, resource_class: str) -> int:
        count = 0
        for e in sx.walk_exprs(self.method.body):
            if isinstance(e, sx.New) and e.class_name == resource_class:
                if e.nid == ast_nid:
                    return count
                count += 1
        return count

    def call_ordinal(self, ast_nid: int) -> int:
        count = 0
        for e in sx.walk_exprs(self.method.body):
            if isinstance(e, sx.Call):
                if e.nid == ast_nid:
                    return count
                count += 1
        return count

    def store_ordinal(self, ast_nid: int, field_name: str) -> int:
        for i, s in enumerate(stores_to_field(self.method, field_name)):
            if s.nid == ast_nid:
                return i
        return 0

    # warning emission

    def warn_unsatisfied(self, origin: Origin) -> None:
        rclass = self.origin_class(origin)
        mc = sorted(self.must_call_for(rclass))
        if origin[0] == "new":
            ast_nid = self.alloc_nid[origin[1]]
            w = make_warning(
                UNSATISFIED_OBLIGATION,
                self.program,
                self.cfg.class_name,
                self.cfg.method_name,
                "new",
                rclass,
                self.new_ordinal(ast_nid, rclass),
                ast_nid,
                rclass,
                f"{rclass} allocated here may never reach {', '.join(mc)}()",
                site=origin[1],
            )
        else:
            ast_nid = origin[1]
            w = make_warning(
                UNSATISFIED_OBLIGATION,
                self.program,
                self.cfg.class_name,
                self.cfg.method_name,
                "call",
                rclass,
                self.call_ordinal(ast_nid),
                ast_nid,
                rclass,
                f"{rclass} returned by this call may never reach {', '.join(mc)}()",
            )
        self.warnings.setdefault(w.id, w)

    def warn_overwrite(self, store: C.StoreField) -> None:
        decl_cls = self.program.class_named(store.field_class)
        fld = decl_cls.field_named(store.field) if decl_cls else None
        ftype = fld.declared_type if fld else "?"
        w = make_warning(
            OWNING_FIELD_OVERWRITE,
            self.program,
            self.cfg.class_name,
            self.cfg.method_name,
            "store",
            f"{store.field_class}.{store.field}",
            self.store_ordinal(store.ast_nid, store.field),
            store.ast_nid,
            ftype,
            f"overwriting @Owning field {store.field} may leak its current {ftype}",
        )
        self.warnings.setdefault(w.id, w)

    # transfer function

    def transfer(self, node: int, fact: CheckFact) -> dict[int, CheckFact]:
        """Out-facts per successor; branches refine null knowledge per edge and
        a throwing allocation registers nothing on its exceptional edge."""
        instr = self.cfg.nodes[node]
        origins = fact.origin_map()
        refs = fact.ref_map()
        nulls = set(fact.nulls)
        field_called = dict(fact.field_called)
        field_sat = set(fact.field_sat)
        bindings = dict(fact.bindings)
        field_origins = dict(fact.field_origins)

        def kill_local(name: str) -> None:
            refs.pop(name, None)
            nulls.discard(name)
            bindings.pop(name, None)

        def touch_field_contents() -> None:
            # a self-call (or passing `this` away) may rewrite any field
            field_called.clear()
            field_sat.clear()
            bindings.clear()
            field_origins.clear()

        def credit_origin(origin: Origin, method: str) -> None:
            st = origins.get(origin)
            if st is None:
                return
            called = st.called | {method}
            resolved = st.resolved or called >= self.must_call_for(self.origin_class(origin))
            origins[origin] = SiteState(called, resolved)

        def credit(op: str, method: str) -> None:
            for origin in self.origins_of_operand(op, fact):
                credit_origin(origin, method)

        def discharge(op: str) -> None:
            for origin in self.origins_of_operand(op, fact):
                st = origins.get(origin)
                if st is not None:
                    origins[origin] = replace(st, resolved=True)

        def pack() -> CheckFact:
            return _pack(origins, refs, nulls, field_called, field_sat, bindings, field_origins)

        if isinstance(instr, C.Alloc):
            pre = fact
            self._discharge_owning_args(instr.class_name, instr.class_name, instr.args, discharge, is_ctor=True)
            kill_local(instr.dst)
            if self.tracked(instr.class_name):
                origin: Origin = ("new", instr.site)
                prior = origins.get(origin)
                if prior is not None and self.insufficient(origin, prior):
                    self.warn_unsatisfied(origin)  # looped re-allocation rolls over a pending instance
                origins[origin] = SiteState(frozenset(), False)
                refs[instr.dst] = ((origin,), True)
            if C.THIS in instr.args:
                touch_field_contents()
            return self._split_out(node, pack(), pre)  # the allocation never happened on the exceptional edge
        if isinstance(instr, C.CopyLocal):
            if instr.src != instr.dst:
                src_ref = refs.get(instr.src)
                src_null = instr.src in nulls
                src_binding = bindings.get(instr.src)
                kill_local(instr.dst)
                if src_ref is not None:
                    refs[instr.dst] = src_ref
                if src_null:
                    nulls.add(instr.dst)
                if src_binding is not None:
                    bindings[instr.dst] = src_binding
        elif isinstance(instr, C.Const):
            kill_local(instr.dst)
            if instr.is_null:
                nulls.add(instr.dst)
        elif isinstance(instr, C.LoadField):
            kill_local(instr.dst)
            if instr.recv == C.THIS:
                bindings[instr.dst] = instr.field
                held = field_origins.get(instr.field, ())
                if held:
                    refs[instr.dst] = (held, False)
        elif isinstance(instr, C.StoreField):
            ownership = self.specs.ownership(instr.field_class, instr.field)
            if ownership == OWNING:
                if not self._field_is_final(instr):
                    sat = instr.recv == C.THIS and instr.field in field_sat
                    if not sat:
                        self.warn_overwrite(instr)
                discharge(instr.src)
            if instr.recv == C.THIS or instr.recv is None:
                field_called.pop(instr.field, None)
                field_sat.discard(instr.field)
                field_origins.pop(instr.field, None)
                if instr.src in nulls:
                    field_sat.add(instr.field)
                stored = self.origins_of_operand(instr.src, fact)
                if stored:
                    field_origins[instr.field] = stored
                for k in [k for k, v in bindings.items() if v == instr.field]:
                    bindings.pop(k)
        elif isinstance(instr, C.Invoke):
            if instr.recv is not None:
                credit(instr.recv, instr.method)
                bound = bindings.get(instr.recv)
                if bound is not None:
                    field_called[bound] = field_called.get(bound, frozenset()) | {instr.method}
                    for origin in field_origins.get(bound, ()):
                        credit_origin(origin, instr.method)
                    fld = self.cls.field_named(bound)
                    if fld is not None:
                        need = self.must_call_for(fld.declared_type)
                        if need and field_called[bound] >= need:
                            field_sat.add(bound)
            self._discharge_owning_args(
                self._receiver_class(instr), instr.method, instr.args, discharge, is_ctor=False
            )
            if instr.dst:
                kill_local(instr.dst)
            if instr.recv == C.THIS or C.THIS in instr.args:
                touch_field_contents()
            ret_class = self._tracked_return_class(instr)
            if ret_class is None:
                out = pack()
                return {s: out for s in self.cfg.succs(node)}
            # the caller only owns the result on the normal edge; on the
            # exceptional edge the call never returned a value
            pre_ret = pack()
            self.call_ret_class[instr.ast_nid] = ret_class
            origin = ("call", instr.ast_nid)
            prior = origins.get(origin)
            if prior is not None and self.insufficient(origin, prior):
                self.warn_unsatisfied(origin)
            origins[origin] = SiteState(frozenset(), False)
            if instr.dst:
                refs[instr.dst] = ((origin,), False)  # callees may return null
            return self._split_out(node, pack(), pre_ret)
        elif isinstance(instr, C.ReturnVal):
            if instr.src is not None and method_return_ownership(self.method) == OWNING:
                discharge(instr.src)
        elif isinstance(instr, C.Branch):
            return self._branch_out(instr, pack(), node)

        out = pack()
        return {s: out for s in self.cfg.succs(node)}

    def _split_out(self, node: int, normal: CheckFact, exceptional: CheckFact) -> dict[int, CheckFact]:
        """`normal` on the normal out-edges, `exceptional` on the others; a
        successor reached both ways gets `normal`."""
        outs = dict.fromkeys(self.cfg.succs(node, C.NORMAL), normal)
        for s in self.cfg.succs(node, C.EXCEPTIONAL):
            outs.setdefault(s, exceptional)
        return outs

    def _branch_out(self, instr: C.Branch, fact: CheckFact, node: int) -> dict[int, CheckFact]:
        eq_edge = instr.false_succ if instr.negated else instr.true_succ  # taken when lhs == rhs
        ne_edge = instr.true_succ if instr.negated else instr.false_succ
        refs = fact.ref_map()

        def nonnull(op: str) -> bool:
            return op in refs and refs[op][1]

        def isnull(op: str) -> bool:
            return op in fact.nulls

        infeasible: set[int] = set()
        if (isnull(instr.rhs) and nonnull(instr.lhs)) or (isnull(instr.lhs) and nonnull(instr.rhs)):
            infeasible.add(eq_edge)
        if isnull(instr.rhs) and isnull(instr.lhs):
            infeasible.add(ne_edge)
        outs = {s: fact for s in self.cfg.succs(node) if s not in infeasible}

        tested: Optional[str] = None
        if isnull(instr.rhs) and not isnull(instr.lhs):
            tested = instr.lhs
        elif isnull(instr.lhs) and not isnull(instr.rhs):
            tested = instr.rhs
        if tested is None:
            return outs
        bindings = dict(fact.bindings)
        bound = bindings.get(tested)
        if ne_edge in outs:
            # the tested local is non-null here
            refs_ne = dict(refs)
            if tested in refs_ne:
                refs_ne[tested] = (refs_ne[tested][0], True)
            outs[ne_edge] = _pack(
                fact.origin_map(),
                refs_ne,
                set(fact.nulls),
                dict(fact.field_called),
                set(fact.field_sat),
                bindings,
                dict(fact.field_origins),
            )
        if eq_edge in outs:
            # the tested local is null here: its origins are vacuous when no
            # other live reference can still reach them
            origins_eq = fact.origin_map()
            refs_eq = dict(refs)
            field_origins_eq = dict(fact.field_origins)
            tested_origins = refs_eq.pop(tested, ((), False))[0]
            live = self.live_in.get(eq_edge, frozenset())
            field_referenced = {o for held in field_origins_eq.values() for o in held}
            for origin in tested_origins:
                others = [
                    x for x, (oset, _nn) in refs_eq.items() if origin in oset and x in live
                ]
                st = origins_eq.get(origin)
                if not others and origin not in field_referenced and st is not None:
                    origins_eq[origin] = replace(st, resolved=True)
            nulls_eq = set(fact.nulls) | {tested}
            field_sat_eq = set(fact.field_sat)
            if bound is not None:
                field_sat_eq.add(bound)  # the field content itself is proven null
                field_origins_eq.pop(bound, None)
            outs[eq_edge] = _pack(
                origins_eq,
                refs_eq,
                nulls_eq,
                dict(fact.field_called),
                field_sat_eq,
                bindings,
                field_origins_eq,
            )
        return outs

    def _field_is_final(self, store: C.StoreField) -> bool:
        """A final field's single store cannot overwrite a live resource; the
        compile gate (reject_final_writes) enforces the single write."""
        decl_cls = self.program.class_named(store.field_class)
        fld = decl_cls.field_named(store.field) if decl_cls else None
        return fld is not None and fld.has("final")

    def _receiver_class(self, instr: C.Invoke) -> str:
        if instr.static_class is not None:
            return instr.static_class
        return self.cfg.local_types.get(instr.recv or "", "?")

    def _discharge_owning_args(
        self, callee_class: str, method: str, args: list[str], discharge, is_ctor: bool
    ) -> None:
        ownerships = self._param_ownerships(callee_class, method, len(args), is_ctor)
        for op, own in zip(args, ownerships):
            if own == OWNING:
                discharge(op)

    def _param_ownerships(self, callee_class: str, method: str, arity: int, is_ctor: bool) -> list[str]:
        cls = self.program.class_named(callee_class)
        if cls is not None:
            if is_ctor:
                for ctor in cls.constructors:
                    if len(ctor.params) == arity:
                        return [param_ownership(p) for p in ctor.params]
                return [NOT_OWNING] * arity
            m = cls.method_named(method)
            if m is not None and len(m.params) == arity:
                return [param_ownership(p) for p in m.params]
            return [NOT_OWNING] * arity
        lm = self.libspec.method(callee_class, callee_class if is_ctor else method)
        if lm is not None and len(lm.param_ownership) == arity:
            return list(lm.param_ownership)
        return [NOT_OWNING] * arity

    def _tracked_return_class(self, instr: C.Invoke) -> Optional[str]:
        owner = self._receiver_class(instr)
        cls = self.program.class_named(owner)
        if cls is None:
            return None  # library specs carry no return class, so library returns are untracked
        m = cls.method_named(instr.method)
        if m is None or m.return_type in ("void", ""):
            return None
        if not self.tracked(m.return_type):
            return None
        if method_return_ownership(m) != OWNING:
            return None
        return m.return_type

    def _prune(self, fact: CheckFact, succ: int) -> CheckFact:
        """Drop dead locals entering succ; an obligation losing its last live
        reference while unsatisfied is a leak at that point (unless the value
        is leaving through an uncaught exception, which is not checked)."""
        live = self.live_in.get(succ, frozenset())
        refs = {x: info for x, info in fact.refs if x in live}
        nulls = fact.nulls & live
        bindings = {k: v for k, v in fact.bindings if k in live}
        origins = fact.origin_map()
        field_origins = dict(fact.field_origins)
        if succ != self.cfg.exit:
            referenced: set[Origin] = set()
            for _x, (oset, _nn) in refs.items():
                referenced.update(oset)
            for held in field_origins.values():
                referenced.update(held)
            for origin in list(origins):
                st = origins[origin]
                if origin in referenced or not self.insufficient(origin, st):
                    continue
                self.warn_unsatisfied(origin)
                origins[origin] = replace(st, resolved=True)
        return _pack(origins, refs, nulls, dict(fact.field_called), set(fact.field_sat), bindings, field_origins)

    # fixpoint driver

    def run(self) -> list[Warning]:
        """Warnings of the method; a node's are those of its last visit, which
        saw the converged in-fact. Also sets `exit_fact`."""
        cfg = self.cfg
        emitted: dict[int, dict[str, Warning]] = {}

        def flow(n: int, fact: CheckFact) -> dict[int, CheckFact]:
            self.warnings = emitted[n] = {}
            return {succ: self._prune(of, succ) for succ, of in self.transfer(n, fact).items()}

        _in_facts, edge_facts = C.solve(cfg, {cfg.entry: EMPTY_FACT}, flow, _meet)
        self.warnings = {wid: w for node_warnings in emitted.values() for wid, w in node_warnings.items()}
        normal_in = [edge_facts[(p, cfg.exit)] for p in cfg.preds(cfg.exit, C.NORMAL) if (p, cfg.exit) in edge_facts]
        if normal_in:
            self.exit_fact = reduce(_meet, normal_in)
            for origin, st in self.exit_fact.origin_map().items():
                if self.insufficient(origin, st):
                    self.warn_unsatisfied(origin)
        return sorted(self.warnings.values(), key=lambda w: (w.file, w.line, w.kind, w.id))


def check_method(cfg: C.Cfg, specs: SpecSet, libspec: LibrarySpec) -> list[Warning]:
    """Warnings for one lowered method; pure function of its inputs."""
    return _MethodChecker(cfg, specs, libspec).run()


def normal_exit_fact(cfg: C.Cfg, specs: SpecSet, libspec: LibrarySpec) -> Optional[CheckFact]:
    """Meet of the checker's facts on the exit node's normal in-edges, or
    None if no normal path completes."""
    checker = _MethodChecker(cfg, specs, libspec)
    checker.run()
    return checker.exit_fact


def check_program(program: sx.Program, specs: SpecSet, libspec: LibrarySpec) -> list[Warning]:
    """Check every method; merged deterministically by (file, line, id)."""
    out: list[Warning] = []
    for cls in program.classes:
        for meth in cls.all_methods():
            cfg = C.lower(program, cls, meth, libspec)
            out.extend(check_method(cfg, specs, libspec))
    return sorted(out, key=lambda w: (w.file, w.line, w.kind, w.id))


# --- six-condition constructor filter ---------------------------------------


def filter_constructor_first_writes(warnings: list[Warning], program: sx.Program) -> list[Warning]:
    """Drop OwningFieldOverwrite warnings that are provably first writes.

    All six conditions must hold: (1) field private, (2) no declaration
    initializer, (3) no instance-initializer write (vacuous in MiniJ),
    (4) assignment directly in a constructor body, (5) that constructor writes
    the field exactly once, (6) no this(...) delegation (inexpressible in
    MiniJ) and no method calls before the assignment.
    """
    kept = []
    for w in warnings:
        if w.kind == OWNING_FIELD_OVERWRITE and _first_write_conditions_hold(w, program):
            continue
        kept.append(w)
    return kept


def _first_write_conditions_hold(w: Warning, program: sx.Program) -> bool:
    field_class, _, field_name = w.anchor_token.partition(".")
    owner = program.class_named(field_class)
    if owner is None:
        return False
    fld = owner.field_named(field_name)
    if fld is None:
        return False
    if not fld.has("private"):
        return False  # condition 1
    if fld.initializer is not None:
        return False  # condition 2
    # condition 3: vacuous, MiniJ has no instance initializer blocks
    ctor = _enclosing_constructor(program, w)
    if ctor is None:
        return False  # condition 4: not a constructor write at all
    stores = stores_to_field(ctor, field_name)
    if w.ordinal >= len(stores):
        return False
    assign = stores[w.ordinal]
    if assign not in ctor.body.stmts:
        return False  # condition 4: nested inside if/while/try
    if len(stores) != 1:
        return False  # condition 5
    # condition 6: no calls before (or within) the assignment
    for stmt in ctor.body.stmts:
        if stmt is assign:
            break
        for e in sx.walk_exprs(stmt):
            if isinstance(e, sx.Call):
                return False
    for e in sx.walk_exprs_of_expr(assign.value):
        if isinstance(e, sx.Call):
            return False
    return True


def _enclosing_constructor(program: sx.Program, w: Warning) -> Optional[sx.MethodDecl]:
    cls = program.class_named(w.class_name)
    if cls is None or not w.method_name.startswith("<init>#"):
        return None
    arity = int(w.method_name.split("#", 1)[1])
    for ctor in cls.constructors:
        if len(ctor.params) == arity:
            return ctor
    return None


# --- final-field write checking ----------------------------------------------


def reject_final_writes(program: sx.Program, libspec: Optional[LibrarySpec] = None) -> list[CompileError]:
    """One error per write to a final field beyond its single initialization site.

    Per constructor, one write along any normal path is legal (each constructor
    is one initialization path); writes in non-constructor methods, second
    writes on a path, and any write when the declaration carries an initializer
    are errors. Used as the recompile-cleanly gate for patch validation.
    """
    libspec = libspec or LibrarySpec()
    errors: list[CompileError] = []
    for cls in program.classes:
        final_fields = [f for f in cls.fields if f.has("final")]
        if not final_fields:
            continue
        for fld in final_fields:
            for meth in cls.all_methods():
                is_ctor = meth.return_type == ""
                cfg = C.lower(program, cls, meth, libspec)
                store_nodes = [
                    i
                    for i, ins in enumerate(cfg.nodes)
                    if isinstance(ins, C.StoreField) and ins.field == fld.name and ins.field_class == cls.name
                ]
                if not store_nodes:
                    continue
                store_nids = sorted({cfg.nodes[i].ast_nid for i in store_nodes})  # type: ignore[union-attr]
                if not is_ctor or (fld.has("static") and is_ctor) or fld.initializer is not None:
                    for nid in store_nids:
                        line, _ = program.pos_of(nid)
                        errors.append(
                            CompileError(
                                program.source_name,
                                line,
                                f"final field {cls.name}.{fld.name} is assigned outside its initialization",
                            )
                        )
                    continue
                for nid in sorted(_doubled_store_nids(cfg, store_nodes)):
                    line, _ = program.pos_of(nid)
                    errors.append(
                        CompileError(
                            program.source_name,
                            line,
                            f"final field {cls.name}.{fld.name} may be assigned twice in a constructor",
                        )
                    )
    return sorted(errors, key=lambda e: (e.file, e.line, e.message))


def _doubled_store_nids(cfg: C.Cfg, store_nodes: list[int]) -> set[int]:
    """Ast nids of stores reachable from another store (same nid via a cycle counts)."""
    doubled: set[int] = set()
    for a in store_nodes:
        reach: set[int] = set()
        work = list(cfg.succs(a))
        while work:
            n = work.pop()
            if n in reach:
                continue
            reach.add(n)
            work.extend(cfg.succs(n))
        for b in store_nodes:
            if b in reach:
                doubled.add(cfg.nodes[b].ast_nid)  # type: ignore[union-attr]
                doubled.add(cfg.nodes[a].ast_nid)  # type: ignore[union-attr]
    return doubled
