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

A fact maps each pending obligation's allocation origin to the methods
called on it. An obligation leaves the fact once it is met (its called-set
covers the must-call set, or its value is discharged), proven null, or
warned (Kellogg et al., ESEC/FSE 2021), so every origin a fact holds may
still leak; exit warns each one left. The meet intersects the called-sets of
an origin pending on both sides and keeps one absent from a side ("not
allocated, or already met, on that path") as the other has it. A local in
`refs` carries the set of origins whose value it may hold plus a
definitely-non-null flag, one in `nulls` holds null, and one in neither
holds a value of unknown nullness (a parameter, an untracked call result, a
field load). Crediting a call or discharge to every origin a receiver may
hold is path-wise sound because obligations whose last live reference
disappears are warned at that death point (liveness-driven), mirroring the
lifetime-end rule ("scope exit or variable overwrite"). A method invocation
registers on both the normal and exceptional out-edges (the call happened
even if it threw), but its result, and the write of the local it goes into,
only on the normal ones; a failed allocation registers on neither, and its
local keeps what it held. Values dying on an uncaught-exception edge out of
the method are not leak-reported: the flow puts no fact on an exceptional
edge into exit, so exit's in-fact is the meet of its normal in-edges, and it
alone feeds the final check.

A fact (`CheckFact`) holds the maps and sets the transfer function works on:
dicts from pending origins to their called-sets, from locals to the
frozenset of origins they may hold, and from this-fields to what was called
on or stored in them, plus frozensets of null locals and satisfied fields. A
fact is an immutable record, a named tuple built and compared in C; facts
compare as maps, with no regard to order. Once built a fact is never
mutated, nor is any map it holds: out-edges share facts, facts share maps,
and the memo keeps exit facts. So a transfer builds its out-fact
copy-on-write (`_OutFact`): it shares with the in-fact every map the
instruction does not write, a `Nop` passes its in-fact on as it is, and a
branch shares all but the maps its null test refines. Its dicts make a
`CheckFact` unhashable.

`_prune` drops the locals that die on an edge and warns the origins that
lose their last holder there. Every origin of a pruned fact has a holder, so
it looks for deaths only among the origins the transfer took a holder from
and those of the dying locals. At a join it also looks at the origins whose
field holders the meet dropped (`_meet` reports them: a local keeps on the
meet every origin it holds on either side). An out-fact on an edge where no
origin lost a holder and no local dies passes through: `_prune` returns it
as it is before any other work.

A run does only the fixed work that can change a fact. Entry is a `Nop`
with no in-edge, so the solve starts at its successors with the empty fact
and never visits it. Only an `Alloc` or an `Invoke` with a `dst` makes an
origin, so in a lowering with neither (`Cfg.starts_values` false) nothing
can die: the run solves no liveness, `_prune` passes every fact through
unchanged but for dropping `nulls` and `bindings` on the edges into exit
(which gives exit the fact a pruned run gives it), and a null test's
branch reads liveness only for the origins of its tested local, which has
none. A node keeps its out-fact for exit only when exit is among its normal
successors (`Cfg.succs(n, NORMAL)`), with no scan of the edges.

A warning is built once, from its anchor instruction: its kind and token
from `anchor_name`, its AST node id and ordinal as the lowering stamped
them, so a run makes no walk of the method.

A run reads its specs only through a `SpecReader`: must-call sets
(`must_call_for`, `tracked`) and the ownership of stored fields. It reads
the ownership facts of the AST through the same reader: a stored field's
`final`, a user callee's parameter ownerships, and the `@NotOwning` of a
callee and of the method itself. Beyond its CFG it reads field types from
the AST, which the memo's lowering key covers, and positions only for
`Warning.line`. The memo keys a run on that key and its member's body,
and reuses it where the reader's reads give the same values (`memo`).

Warning ids hash a structural descriptor (class, method, resource, ordinal),
never line numbers, so inserting blank lines changes no ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .memo import ProgramOrVersion, ProgramVersion, version_of
from .specs import OWNING, SpecReader, SpecSet

UNSATISFIED_OBLIGATION = "UnsatisfiedObligation"
OWNING_FIELD_OVERWRITE = "OwningFieldOverwrite"

# Obligation origins: ("new", allocation site) or ("call", invoke ast node).
Origin = tuple


def anchor_name(cfg: C.Cfg, instr: C.Instr) -> Optional[tuple[str, str]]:
    """(anchor kind, token) of a warning anchored at `instr` of `cfg`: an
    allocation's class, a call's returned class, a store's `Class.field`;
    None where no warning anchors."""
    if isinstance(instr, C.Alloc):
        return "new", instr.class_name
    if isinstance(instr, C.Invoke) and instr.dst is not None:
        return "call", instr.ret_type
    if isinstance(instr, C.StoreField):
        return "store", f"{instr.field_class}.{instr.field}"
    return None


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
        """What the id hashes: the structural anchor, never a line."""
        return _descriptor(
            self.kind, self.file, self.class_name, self.method_name, self.anchor_kind, self.anchor_token, self.ordinal
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


def _descriptor(
    kind: str, file: str, class_name: str, method_name: str, anchor_kind: str, anchor_token: str, ordinal: int
) -> str:
    return "|".join([kind, file, class_name, method_name, anchor_kind, anchor_token, str(ordinal)])


@dataclass(frozen=True)
class CompileError:
    file: str
    line: int
    message: str


# --- per-method obligation dataflow -----------------------------------------


RefInfo = tuple[frozenset[Origin], bool]  # (possible origins, definitely non-null)
_UNBOUND: RefInfo = (frozenset(), False)  # a local in neither `refs` nor `nulls`: a value of unknown nullness


class CheckFact(NamedTuple):
    origins: dict[Origin, frozenset[str]]  # pending origin -> the methods called on it
    refs: dict[str, RefInfo]  # local -> origins it may hold
    nulls: frozenset[str]  # locals definitely holding null
    field_called: dict[str, frozenset[str]]  # accumulated on the current content
    field_sat: frozenset[str]  # this-fields whose content is known satisfied-or-null
    bindings: dict[str, str]  # temp -> this-field it was loaded from
    field_origins: dict[str, frozenset[Origin]]  # this-field -> stored origins, never empty


EMPTY_FACT = CheckFact(
    origins={}, refs={}, nulls=frozenset(), field_called={}, field_sat=frozenset(), bindings={}, field_origins={}
)


def _meet(f1: CheckFact, f2: CheckFact, dropped: set[Origin]) -> CheckFact:
    """The meet of two facts. It is idempotent, since `refs` and `nulls` are
    disjoint and no `refs` or `field_origins` entry is empty, so a fact met
    with itself is that fact, and a map both sides share is the result's. A
    local that holds an origin on one side holds it in the meet, so only a
    field can lose a holder: its origins that the meet drops go into
    `dropped`. An origin pending on both sides keeps what both called on it;
    one absent from a side (not allocated, or met, there) keeps the other's."""
    if f1 is f2:
        return f1
    if f1.origins is f2.origins:
        origins = f1.origins
    else:
        origins = dict(f2.origins)
        for k, called in f1.origins.items():
            c2 = origins.get(k)  # kept when both sides hold the same set
            origins[k] = called if c2 is None or c2 is called else called & c2
    if f1.refs is f2.refs and f1.nulls is f2.nulls:
        refs, nulls = f1.refs, f1.nulls
    else:
        refs, nulls = _meet_refs(f1, f2)
    fc1, fc2 = f1.field_called, f2.field_called
    b1, b2 = f1.bindings, f2.bindings
    # field-content origins meet by intersection: crediting a close through a
    # field is only sound when the field holds the origin on every path
    fo1, fo2 = f1.field_origins, f2.field_origins
    if fo1 is fo2:
        field_origins = fo1
    else:
        field_origins = {k: held for k in fo1.keys() & fo2.keys() if (held := fo1[k] & fo2[k])}
        for fo in (fo1, fo2):
            for k, held in fo.items():
                dropped.update(held.difference(field_origins.get(k, ())))
    return CheckFact(
        origins,
        refs,
        nulls,
        fc1 if fc1 is fc2 else {k: fc1[k] & fc2[k] for k in fc1.keys() & fc2.keys()},
        f1.field_sat if f1.field_sat is f2.field_sat else f1.field_sat & f2.field_sat,
        b1 if b1 is b2 else {k: v for k, v in b1.items() if b2.get(k) == v},
        field_origins,
    )


def _meet_refs(f1: CheckFact, f2: CheckFact) -> tuple[dict[str, RefInfo], frozenset[str]]:
    """A local holds every origin it holds on either side, is non-null where
    it is on both and null where it is on both; absent from a side's maps,
    it holds a value of unknown nullness there (`_UNBOUND`)."""
    r1, r2 = f1.refs, f2.refs
    refs: dict[str, RefInfo] = {}
    nulls: set[str] = set()
    for x in r1.keys() | r2.keys() | f1.nulls | f2.nulls:
        info = r1.get(x)
        if info is not None and info is r2.get(x):  # bound to the same entry on both sides, so null on neither
            refs[x] = info
            continue
        s1, nn1 = r1.get(x, _UNBOUND)
        s2, nn2 = r2.get(x, _UNBOUND)
        if x in f1.nulls and x in f2.nulls:
            nulls.add(x)
        elif s1 or s2:
            refs[x] = (s1 | s2, nn1 and nn2)
    return refs, frozenset(nulls)


class _OutFact:
    """The out-fact of one transfer, built copy-on-write from its in-fact: a
    map is copied on its first write, so the out-fact shares every map the
    instruction leaves alone. `pack` hands the maps over without a copy;
    a write after it copies again, so a packed fact never changes."""

    __slots__ = (
        "_fact", "_owned", "lost", "origins", "refs", "nulls", "field_called", "field_sat", "bindings", "field_origins"
    )

    def __init__(self, fact: CheckFact, lost: set[Origin]):
        self._fact = fact
        self._owned: set[str] = set()  # dict fields copied since the last pack
        # origins that lost a holder: where `_prune` looks for deaths. A fresh
        # origin's one holder is its `dst`, which `_prune` scans if it dies.
        self.lost = lost
        # `nulls` and `field_sat` are frozensets, written by replacing them
        self.origins, self.refs, self.nulls, self.field_called, self.field_sat, self.bindings, self.field_origins = fact

    def write(self, name: str) -> dict:
        """The dict field `name`, ready to be written."""
        if name not in self._owned:
            self._owned.add(name)
            setattr(self, name, dict(getattr(self, name)))
        return getattr(self, name)

    def kill_local(self, name: str) -> None:
        if name in self.refs:
            self.lost.update(self.refs[name][0])
            del self.write("refs")[name]
        if name in self.nulls:
            self.nulls = self.nulls - {name}
        if name in self.bindings:
            del self.write("bindings")[name]

    def touch_field_contents(self) -> None:
        """A self-call (or passing `this` away) may rewrite any field."""
        self.lost.update(*self.field_origins.values())
        self.field_called, self.field_sat, self.bindings, self.field_origins = {}, frozenset(), {}, {}
        self._owned.update(("field_called", "bindings", "field_origins"))

    def pack(self) -> CheckFact:
        """The fact as built so far; the in-fact itself when nothing was written."""
        fact = self._fact
        if (
            self.origins is not fact.origins
            or self.refs is not fact.refs
            or self.nulls is not fact.nulls
            or self.field_called is not fact.field_called
            or self.field_sat is not fact.field_sat
            or self.bindings is not fact.bindings
            or self.field_origins is not fact.field_origins
        ):
            self._fact = fact = CheckFact(
                self.origins,
                self.refs,
                self.nulls,
                self.field_called,
                self.field_sat,
                self.bindings,
                self.field_origins,
            )
            self._owned.clear()
        return fact


class _MethodChecker:
    def __init__(self, program: sx.Program, cls: sx.ClassDecl, cfg: C.Cfg, specs: SpecReader):
        self.cfg = cfg
        self.specs = specs
        self.libspec = specs.libspec
        self.program = program
        self.cls = cls
        self.warnings: dict[str, Warning] = {}  # the visited node's during run(), then all
        self.allocs = {instr.site: instr for instr in cfg.nodes if isinstance(instr, C.Alloc)}
        self.calls: dict[int, tuple[C.Invoke, str]] = {}  # invoke ast nid -> (the call, its returned class)
        self.exit_fact: Optional[CheckFact] = None  # meet over exit's normal in-edges; None if none
        # liveness, solved only where an origin can die: a lowering that starts no value reads none
        self.live_in = cfg.live_in() if cfg.starts_values else ()
        self.lost: set[Origin] = set()  # the origins the last transfer took a holder from

    # origin helpers

    def origins_of_operand(self, op: str, fact: CheckFact) -> frozenset[Origin]:
        return fact.refs.get(op, _UNBOUND)[0]

    def origin_class(self, origin: Origin) -> str:
        return self.allocs[origin[1]].class_name if origin[0] == "new" else self.calls[origin[1]][1]

    def must_call_for(self, class_name: str) -> frozenset[str]:
        return self.specs.must_call(class_name)

    def tracked(self, class_name: str) -> bool:
        return bool(self.specs.must_call(class_name))  # a resource type: a nonempty must-call set

    # warning emission

    def warn(self, kind: str, anchor: C.Anchor, rclass: str, message: str) -> None:
        """Emit a warning anchored at instruction `anchor`; its id hashes its `Warning.descriptor()`."""
        anchor_kind, token = anchor_name(self.cfg, anchor)  # type: ignore[misc]
        file, class_name, method_name = self.program.source_name, self.cfg.class_name, self.cfg.method_name
        descriptor = _descriptor(kind, file, class_name, method_name, anchor_kind, token, anchor.ordinal)
        wid = hashlib.sha256(descriptor.encode()).hexdigest()[:12]
        if wid not in self.warnings:
            self.warnings[wid] = Warning(
                id=wid,
                kind=kind,
                file=file,
                line=self.program.pos_of(anchor.ast_nid)[0],
                resource_class=rclass,
                message=message,
                class_name=class_name,
                method_name=method_name,
                anchor_kind=anchor_kind,
                anchor_token=token,
                ordinal=anchor.ordinal,
                ast_nid=anchor.ast_nid,
                site=anchor.site if isinstance(anchor, C.Alloc) else -1,
            )

    def warn_unsatisfied(self, origin: Origin) -> None:
        rclass = self.origin_class(origin)
        reach = f"may never reach {', '.join(sorted(self.must_call_for(rclass)))}()"
        if origin[0] == "new":
            anchor, message = self.allocs[origin[1]], f"{rclass} allocated here {reach}"
        else:
            anchor, message = self.calls[origin[1]][0], f"{rclass} returned by this call {reach}"
        self.warn(UNSATISFIED_OBLIGATION, anchor, rclass, message)

    def warn_overwrite(self, store: C.StoreField) -> None:
        decl_cls = self.program.class_named(store.field_class)
        fld = decl_cls.field_named(store.field) if decl_cls else None
        ftype = fld.declared_type if fld else "?"
        message = f"overwriting @Owning field {store.field} may leak its current {ftype}"
        self.warn(OWNING_FIELD_OVERWRITE, store, ftype, message)

    # transfer function

    def transfer(self, node: int, fact: CheckFact) -> dict[int, CheckFact]:
        """Out-facts per successor; branches refine null knowledge per edge and
        a throwing allocation registers nothing on its exceptional edge."""
        instr = self.cfg.nodes[node]
        self.lost = set()
        if isinstance(instr, C.Nop):
            return dict.fromkeys(self.cfg.succs(node), fact)
        if isinstance(instr, C.Branch):
            return self._branch_out(instr, fact, node)
        out = _OutFact(fact, self.lost)
        if isinstance(instr, C.Alloc):
            self._discharge_owning_args(out, fact, instr.class_name, instr.class_name, instr.args, is_ctor=True)
            out.kill_local(instr.dst)
            if self.tracked(instr.class_name):
                origin: Origin = ("new", instr.site)
                if origin in out.origins:
                    self.warn_unsatisfied(origin)  # looped re-allocation rolls over a pending instance
                out.write("origins")[origin] = frozenset()
                out.write("refs")[instr.dst] = (frozenset({origin}), True)
            if C.THIS in instr.args:
                out.touch_field_contents()
            return self.cfg.split_out(node, out.pack(), fact)  # no allocation on the exceptional edge
        if isinstance(instr, C.CopyLocal):
            if instr.src != instr.dst:
                src_ref = out.refs.get(instr.src)
                src_null = instr.src in out.nulls
                src_binding = out.bindings.get(instr.src)
                out.kill_local(instr.dst)
                if src_ref is not None:
                    out.write("refs")[instr.dst] = src_ref
                if src_null:
                    out.nulls = out.nulls | {instr.dst}
                if src_binding is not None:
                    out.write("bindings")[instr.dst] = src_binding
        elif isinstance(instr, C.Const):
            out.kill_local(instr.dst)
            out.nulls = out.nulls | {instr.dst}
        elif isinstance(instr, C.LoadField):
            out.kill_local(instr.dst)
            if instr.recv == C.THIS:
                out.write("bindings")[instr.dst] = instr.field
                held = out.field_origins.get(instr.field)
                if held:
                    out.write("refs")[instr.dst] = (held, False)
        elif isinstance(instr, C.StoreField):
            ownership = self.specs.ownership(instr.field_class, instr.field)
            if ownership == OWNING:
                # a final field's single store cannot overwrite a live
                # resource: `reject_final_writes` enforces the single write
                if not self.specs.field_is_final(instr.field_class, instr.field):
                    sat = instr.recv == C.THIS and instr.field in out.field_sat
                    if not sat:
                        self.warn_overwrite(instr)
                self._discharge(out, instr.src, fact)
            if instr.recv == C.THIS or instr.recv is None:
                if instr.field in out.field_called:
                    del out.write("field_called")[instr.field]
                if instr.src in out.nulls:
                    out.field_sat = out.field_sat | {instr.field}
                elif instr.field in out.field_sat:
                    out.field_sat = out.field_sat - {instr.field}
                out.lost.update(out.field_origins.get(instr.field, ()))
                stored = self.origins_of_operand(instr.src, fact)
                if stored:
                    out.write("field_origins")[instr.field] = stored
                elif instr.field in out.field_origins:
                    del out.write("field_origins")[instr.field]
                stale = [k for k, v in out.bindings.items() if v == instr.field]
                if stale:
                    bindings = out.write("bindings")
                    for k in stale:
                        del bindings[k]
        elif isinstance(instr, C.Invoke):
            if instr.recv is not None:
                for origin in self.origins_of_operand(instr.recv, fact):
                    self._credit(out, origin, instr.method)
                bound = out.bindings.get(instr.recv)
                if bound is not None:
                    called = out.field_called.get(bound, frozenset()) | {instr.method}
                    out.write("field_called")[bound] = called
                    for origin in out.field_origins.get(bound, ()):
                        self._credit(out, origin, instr.method)
                    fld = self.cls.field_named(bound)
                    if fld is not None:
                        need = self.must_call_for(fld.declared_type)
                        if need and called >= need:
                            out.field_sat = out.field_sat | {bound}
            self._discharge_owning_args(out, fact, instr.owner, instr.method, instr.args, is_ctor=False)
            if instr.recv == C.THIS or C.THIS in instr.args:
                out.touch_field_contents()
            if instr.dst:
                # the call returns a value on its normal edges only: on the
                # exceptional ones `dst` keeps what it held, and the caller
                # owns no result
                thrown = out.pack()
                out.kill_local(instr.dst)
                ret_class = self._tracked_return_class(instr)
                if ret_class is not None:
                    self.calls[instr.ast_nid] = (instr, ret_class)
                    origin = ("call", instr.ast_nid)
                    if origin in out.origins:
                        self.warn_unsatisfied(origin)
                    out.write("origins")[origin] = frozenset()
                    out.write("refs")[instr.dst] = (frozenset({origin}), False)  # callees may return null
                return self.cfg.split_out(node, out.pack(), thrown)
        elif isinstance(instr, C.ReturnVal):
            if instr.src is not None and self.specs.return_ownership(self.cls.name, self.cfg.method_name) == OWNING:
                self._discharge(out, instr.src, fact)
        return dict.fromkeys(self.cfg.succs(node), out.pack())

    def _branch_out(self, instr: C.Branch, fact: CheckFact, node: int) -> dict[int, CheckFact]:
        eq_edge = instr.false_succ if instr.negated else instr.true_succ  # taken when lhs == rhs
        ne_edge = instr.true_succ if instr.negated else instr.false_succ
        refs = fact.refs
        lhs_null = instr.lhs == C.NULL or instr.lhs in fact.nulls
        rhs_null = instr.rhs == C.NULL or instr.rhs in fact.nulls
        infeasible: set[int] = set()
        if (rhs_null and refs.get(instr.lhs, _UNBOUND)[1]) or (lhs_null and refs.get(instr.rhs, _UNBOUND)[1]):
            infeasible.add(eq_edge)
        if rhs_null and lhs_null:
            infeasible.add(ne_edge)
        outs = {s: fact for s in self.cfg.succs(node) if s not in infeasible}
        if lhs_null == rhs_null:
            return outs
        tested = instr.rhs if lhs_null else instr.lhs  # the side not known null
        if ne_edge in outs and tested in refs:
            # the tested local is non-null here
            ne_refs = {**refs, tested: (refs[tested][0], True)}
            outs[ne_edge] = CheckFact(
                fact.origins, ne_refs, fact.nulls, fact.field_called, fact.field_sat, fact.bindings, fact.field_origins
            )
        if eq_edge in outs:
            # the tested local is null here: its origins are vacuous, and
            # leave the fact, when no other live reference can still reach them
            origins_eq = dict(fact.origins)
            refs_eq = dict(refs)
            tested_origins = refs_eq.pop(tested, _UNBOUND)[0]
            field_referenced = {o for held in fact.field_origins.values() for o in held}
            for origin in tested_origins:
                live = self.live_in[eq_edge]
                others = [x for x, (oset, _nn) in refs_eq.items() if origin in oset and x in live]
                if not others and origin not in field_referenced:
                    origins_eq.pop(origin, None)
            field_sat_eq, field_origins_eq = fact.field_sat, fact.field_origins
            bound = fact.bindings.get(tested)
            if bound is not None:
                field_sat_eq = field_sat_eq | {bound}  # the field content itself is proven null
                # the tested local's origins left the fact above or are still held; only this field's can die
                self.lost.update(field_origins_eq.get(bound, ()))
                field_origins_eq = {k: v for k, v in field_origins_eq.items() if k != bound}
            nulls_eq = fact.nulls | {tested}
            outs[eq_edge] = CheckFact(
                origins_eq, refs_eq, nulls_eq, fact.field_called, field_sat_eq, fact.bindings, field_origins_eq
            )
        return outs

    def _credit(self, out: _OutFact, origin: Origin, method: str) -> None:
        """A call of `method` on `origin`, which leaves the fact once its
        called-set covers the must-call set; nothing if it is not pending."""
        called = out.origins.get(origin)
        if called is None:
            return
        called = called | {method}
        if called >= self.must_call_for(self.origin_class(origin)):
            del out.write("origins")[origin]
        else:
            out.write("origins")[origin] = called

    def _discharge(self, out: _OutFact, op: str, fact: CheckFact) -> None:
        """Drop from the fact every origin the operand `op` may hold in the in-fact `fact`."""
        for origin in self.origins_of_operand(op, fact):
            if origin in out.origins:
                del out.write("origins")[origin]

    def _discharge_owning_args(
        self, out: _OutFact, fact: CheckFact, callee_class: str, method: str, args: list[str], is_ctor: bool
    ) -> None:
        ownerships = self._param_ownerships(callee_class, method, len(args), is_ctor)
        for op, own in zip(args, ownerships):
            if own == OWNING:
                self._discharge(out, op, fact)

    def _param_ownerships(self, callee_class: str, method: str, arity: int, is_ctor: bool) -> Sequence[str]:
        """The callee's parameter ownerships; none (all not owning) when its
        arity does not match."""
        if self.program.class_named(callee_class) is not None:
            member = f"{sx.CONSTRUCTOR}#{arity}" if is_ctor else method
            owns = self.specs.param_ownerships(callee_class, member)
            return owns if owns is not None and len(owns) == arity else ()
        lm = self.libspec.method(callee_class, callee_class if is_ctor else method)
        return lm.param_ownership if lm is not None and len(lm.param_ownership) == arity else ()

    def _tracked_return_class(self, instr: C.Invoke) -> Optional[str]:
        cls = self.program.class_named(instr.owner)
        if cls is None:
            return None  # library specs carry no return class, so library returns are untracked
        m = cls.method_named(instr.method)
        if m is None or m.return_type in ("void", ""):
            return None
        if not self.tracked(m.return_type):
            return None
        if self.specs.return_ownership(instr.owner, instr.method) != OWNING:
            return None
        return m.return_type

    def _prune(self, fact: CheckFact, succ: int, lost: set[Origin]) -> CheckFact:
        """Drop dead locals entering succ; a pending origin losing its last
        live reference is a leak at that point, warned there and dropped from
        the fact. Every origin of a pruned fact has a holder, so only one in
        `lost` or held by a dropped local can die; at a join `lost` also holds
        the origins whose field holders the meet dropped. Emission order never
        shows: an origin is one allocation or call AST node, and its warning
        id comes from that node's anchor ordinal, so origins and warning ids
        map one to one. A fact where no origin lost a holder and no local dies
        is returned as it is. In a run of a lowering that starts no value
        there is no origin, so nothing can die: the fact passes through
        unchanged, but on an edge into exit, where it loses its `nulls` and
        `bindings`, as no local is live at exit; that gives exit the fact a
        pruned run gives it, and no liveness is read."""
        if not self.live_in:  # a lowering that starts no value
            if succ == self.cfg.exit and (fact.nulls or fact.bindings):
                return fact._replace(nulls=frozenset(), bindings={})
            return fact
        live = self.live_in[succ]
        refs, nulls, bindings, origins = fact.refs, fact.nulls, fact.bindings, fact.origins
        if not lost and refs.keys() <= live and nulls <= live and bindings.keys() <= live:
            return fact
        if not refs.keys() <= live:
            lost = lost.union(*(oset for x, (oset, _nn) in refs.items() if x not in live))
            refs = {x: info for x, info in refs.items() if x in live}
        if not nulls <= live:
            nulls = nulls & live
        if not bindings.keys() <= live:
            bindings = {k: v for k, v in bindings.items() if k in live}
        pending = [] if succ == self.cfg.exit else [o for o in lost if o in origins]
        if pending:
            referenced = set().union(*(oset for oset, _nn in refs.values()), *fact.field_origins.values())
            dying = [o for o in pending if o not in referenced]
            if dying:
                origins = dict(origins)
                for origin in dying:
                    self.warn_unsatisfied(origin)
                    del origins[origin]
        if refs is fact.refs and nulls is fact.nulls and bindings is fact.bindings and origins is fact.origins:
            return fact
        return CheckFact(origins, refs, nulls, fact.field_called, fact.field_sat, bindings, fact.field_origins)

    # fixpoint driver

    def run(self) -> list[Warning]:
        """Warnings of the method; a node's are those of its last visit, which
        saw the converged in-fact. Also sets `exit_fact`, exit's in-fact."""
        cfg, exit_ = self.cfg, self.cfg.exit
        emitted: dict[int, dict[str, Warning]] = {}
        # the origins whose field holders the meets since the last visit dropped;
        # those of a node the solve then skipped only widen the next look
        dropped: set[Origin] = set()

        def meet(f1: CheckFact, f2: CheckFact) -> CheckFact:
            return _meet(f1, f2, dropped)

        def flow(n: int, fact: CheckFact) -> dict[int, CheckFact]:
            self.warnings = emitted[n] = {}
            outs = self.transfer(n, fact)
            lost = self.lost
            if dropped:
                lost |= dropped
                dropped.clear()
            if exit_ in outs and exit_ not in cfg.succs(n, C.NORMAL):
                del outs[exit_]
            for s, out in outs.items():  # a transfer's dict is the flow's to edit
                outs[s] = self._prune(out, s, lost)
            return outs

        # entry is a `Nop` with no in-edge: its successors start from the empty fact
        in_facts, _outs = C.solve(cfg, dict.fromkeys(cfg.succs(cfg.entry), EMPTY_FACT), flow, meet)
        self.warnings = {wid: w for node_warnings in emitted.values() for wid, w in node_warnings.items()}
        self.exit_fact = in_facts.get(cfg.exit)
        if self.exit_fact is not None:
            for origin in self.exit_fact.origins:
                self.warn_unsatisfied(origin)
        return sorted(self.warnings.values(), key=lambda w: (w.file, w.line, w.kind, w.id))


def method_run(
    version: ProgramVersion, cls: sx.ClassDecl, meth: sx.MethodDecl, specs: SpecSet
) -> tuple[list[Warning], Optional[CheckFact]]:
    """One checker run of a method of `version`: its warnings, and the meet of
    its facts on the exit node's normal in-edges (None if no normal path
    completes). The memo reuses a run of the same member under specs that
    give each of its spec reads the same value; a warning's line is read
    from `version`'s program, since a reused run may have been made where
    positions differ."""

    def run(reader: SpecReader) -> tuple[list[Warning], Optional[CheckFact]]:
        checker = _MethodChecker(version.program, cls, version.cfg(cls, meth), reader)
        return checker.run(), checker.exit_fact

    warnings, exit_fact = version.remember(cls, meth, specs, run)
    pos_of = version.program.pos_of
    if any(w.line != pos_of(w.ast_nid)[0] for w in warnings):
        moved = (replace(w, line=pos_of(w.ast_nid)[0]) for w in warnings)
        warnings = sorted(moved, key=lambda w: (w.file, w.line, w.kind, w.id))
    return warnings, exit_fact


def check_program(program: ProgramOrVersion, specs: SpecSet, libspec: LibrarySpec) -> list[Warning]:
    """Check every method; merged deterministically by (file, line, id)."""
    version = version_of(program, libspec)
    program = version.program
    out: list[Warning] = []
    for cls in program.classes:
        for meth in cls.all_methods():
            out.extend(method_run(version, cls, meth, specs)[0])
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
    cls = program.class_named(w.class_name)
    ctor = cls.member(w.method_name) if cls else None
    if ctor is None or not ctor.is_constructor:
        return False  # condition 4: not a constructor write at all
    stores = sx.stores_to_field(cls, ctor, field_class, field_name)
    if len(stores) != 1 or w.ordinal != 0:
        return False  # condition 5
    before = sx.evaluated_before(ctor.body, stores[0])
    if before is None:
        return False  # condition 4: nested inside if/while/try
    # condition 6: no calls before (or within) the assignment
    return not any(isinstance(e, sx.Call) for e in before)


# --- final-field write checking ----------------------------------------------


def reject_final_writes(program: ProgramOrVersion, libspec: LibrarySpec) -> list[CompileError]:
    """One error per write to a final field beyond its single initialization site.

    Per constructor, one write along any normal path is legal (each constructor
    is one initialization path); writes in non-constructor methods, second
    writes on a path, and any write when the declaration carries an initializer
    are errors. Used as the recompile-cleanly gate for patch validation.
    """
    version = version_of(program, libspec)
    program = version.program
    errors: list[CompileError] = []
    for cls in program.classes:
        final_fields = [f for f in cls.fields if f.has("final")]
        if not final_fields:
            continue
        for meth in cls.all_methods():
            cfg = version.cfg(cls, meth)
            for fld in final_fields:
                stores, doubled = cfg.field_stores(cls.name, fld.name)
                if not meth.is_constructor or fld.has("static") or fld.initializer is not None:
                    bad, message = stores, "is assigned outside its initialization"
                else:
                    bad, message = doubled, "may be assigned twice in a constructor"
                for nid in sorted({cfg.nodes[i].ast_nid for i in bad}):  # type: ignore[union-attr]
                    line, _ = program.pos_of(nid)
                    errors.append(CompileError(program.source_name, line, f"final field {cls.name}.{fld.name} {message}"))
    return sorted(errors, key=lambda e: (e.file, e.line, e.message))

