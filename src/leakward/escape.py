"""Demand-driven resource escape analysis and field containment.

A tracked value escapes its method through field stores, returns, argument
positions, or collection stores. Passing a value into the constructor of a
resource alias or resource accessor is not an escape; the receiving wrapper
object is then tracked itself and must not escape (recursion bounded by
never revisiting a class).

Field containment (the repair-safety property): a private field f of C is
contained iff no value read from f flows into a field, collection, owning
return, or non-wrapper-sink argument. Computed by running the escape engine
from every load of f inside C.

`EscapeAnalyzer` is the one surface: `escapes_at` answers for a warned
allocation or call, from every CFG node lowered from it (`Cfg.copies`: a
finally block is lowered once per way out of its try), `field_containment`
for a field, and both share the analyzer's wrapper classifications. It
reads every CFG from one `memo.ProgramVersion` of its program, the one it
is handed or one taken of a bare program, so it shares the CFGs the checker
lowered for that version.

Taint (which locals may hold a value, node by node) is solved once per
lowering for every value a query here asks about (`Cfg.taint_of`), and
each query reads its value's bit off that one solve: a route is a use
whose local may hold the value there, at one of the CFG's sink nodes
(`Cfg.sinks`: stores, returns, and allocations and calls with arguments,
listed once per lowering). `taint_fixpoint` and `tainted_stores` are
projections of the same solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .memo import ProgramOrVersion, version_of
from .specs import SpecSet, finalizer_order, member_return_ownership, resource_must_call

TO_FIELD = "ToField"
RETURNED = "Returned"
PASSED_AS_ARG = "PassedAsArg"
STORED_IN_COLLECTION = "StoredInCollection"

RESOURCE_ALIAS = "ResourceAlias"
RESOURCE_ACCESSOR = "ResourceAccessor"
NOT_A_WRAPPER = "NotAWrapper"


@dataclass(frozen=True)
class Route:
    kind: str
    detail: str


@dataclass(frozen=True)
class WrapperClassification:
    kind: str
    finalizer: Optional[str] = None
    witness_field: Optional[str] = None


@dataclass
class EscapeResult:
    escapes: bool
    routes: list[Route]
    wrapper_sinks: list[tuple[str, str]]  # (class, classification kind)

    def primary_route(self) -> Optional[Route]:
        return self.routes[0] if self.routes else None


def taint_fixpoint(cfg: C.Cfg, start_node: int, start_local: str) -> dict[int, frozenset[str]]:
    """May-alias taint of the value `start_local` gets at `start_node`, per
    node (state before the node): the locals that may hold it, read off
    `Cfg.taint_of`. Nodes where no local holds it are absent."""
    facts, bit = cfg.taint_of(start_node, start_local)
    out = {}
    for n, fact in enumerate(facts):
        held = frozenset(local for local, bits in fact.items() if bits & bit)
        if held:
            out[n] = held
    return out


def tainted_stores(cfg: C.Cfg, node: int, local: str) -> list[C.StoreField]:
    """Field stores whose source may hold the value `local` gets at `node`
    (per `Cfg.taint_of`), in node order."""
    facts, bit = cfg.taint_of(node, local)
    return [
        ins for ins, fact in zip(cfg.nodes, facts) if isinstance(ins, C.StoreField) and fact.get(ins.src, 0) & bit
    ]


class EscapeAnalyzer:
    """Escape, containment and wrapper queries on one version of a program,
    with shared caches for wrapper classification and containment. The
    program must stay unedited while the analyzer is in use.

    With `enhancements` false (classic close-only repair) no class is a
    resource alias or accessor, so passing a resource into any wrapper
    constructor is an escape.
    """

    def __init__(self, program: ProgramOrVersion, specs: SpecSet, libspec: LibrarySpec, enhancements: bool = True):
        self.version = version_of(program, libspec)
        self.program = self.version.program
        self.specs = specs
        self.libspec = libspec
        self.enhancements = enhancements
        self._classify_cache: dict[str, WrapperClassification] = {}
        self._containment_cache: dict[tuple[str, str], bool] = {}
        self._containment_in_progress: set[tuple[str, str]] = set()

    # --- field containment (Def. 1) ---

    def field_containment(self, class_name: str, field_name: str) -> bool:
        key = (class_name, field_name)
        if key in self._containment_cache:
            return self._containment_cache[key]
        if key in self._containment_in_progress:
            return False  # cyclic wrapper structure: stay conservative
        cls = self.program.class_named(class_name)
        fld = cls.field_named(field_name) if cls else None
        if cls is None or fld is None or not fld.has("private"):
            self._containment_cache[key] = False
            return False
        self._containment_in_progress.add(key)
        try:
            contained = True
            for meth in cls.all_methods():
                cfg = self.version.cfg(cls, meth)
                for node, instr in enumerate(cfg.nodes):
                    if (
                        isinstance(instr, C.LoadField)
                        and instr.field == field_name
                        and instr.recv == C.THIS
                    ):
                        routes, _sinks = self._collect_routes(cfg, node, instr.dst, set())
                        if routes:
                            contained = False
                            break
                if not contained:
                    break
            self._containment_cache[key] = contained
            return contained
        finally:
            self._containment_in_progress.discard(key)

    # --- wrapper classification ---

    def classify_wrapper(self, class_name: str) -> WrapperClassification:
        if not self.enhancements:
            return WrapperClassification(kind=NOT_A_WRAPPER)
        if class_name in self._classify_cache:
            return self._classify_cache[class_name]
        self._classify_cache[class_name] = WrapperClassification(kind=NOT_A_WRAPPER)  # cycle guard
        result = self._classify(class_name)
        self._classify_cache[class_name] = result
        return result

    def _classify(self, class_name: str) -> WrapperClassification:
        cls = self.program.class_named(class_name)
        if cls is None:
            return WrapperClassification(kind=NOT_A_WRAPPER)
        witness = None
        for fld in cls.fields:
            if not fld.has("private") or fld.has("static"):
                continue
            if not resource_must_call(fld.declared_type, self.specs, self.libspec):
                continue
            if not self._assigned_in_some_ctor(cls, fld.name):
                continue
            if not self.field_containment(class_name, fld.name):
                continue
            witness = fld.name
            break
        if witness is None:
            return WrapperClassification(kind=NOT_A_WRAPPER)
        finalizer = self._finalizer_of(cls)
        if finalizer is not None:
            return WrapperClassification(kind=RESOURCE_ALIAS, finalizer=finalizer, witness_field=witness)
        return WrapperClassification(kind=RESOURCE_ACCESSOR, witness_field=witness)

    def _assigned_in_some_ctor(self, cls: sx.ClassDecl, field_name: str) -> bool:
        return any(sx.stores_to_field(cls, ctor, cls.name, field_name) for ctor in cls.constructors)

    def _finalizer_of(self, cls: sx.ClassDecl) -> Optional[str]:
        mc = self.specs.class_mustcall.get(cls.name)
        if mc:
            return finalizer_order(mc)[0]
        if cls.method_named("close") is not None:
            return "close"
        return None

    def ctor_param_reaches_witness(self, class_name: str, arity: int, position: int) -> bool:
        """Does constructor argument `position` flow into the witness field?"""
        cls = self.program.class_named(class_name)
        wc = self.classify_wrapper(class_name)
        if cls is None or wc.witness_field is None:
            return False
        ctor = cls.constructor(arity)
        if ctor is None or position >= arity:
            return False
        cfg = self.version.cfg(cls, ctor)
        stores = tainted_stores(cfg, cfg.entry, ctor.params[position].name)
        return any(s.field == wc.witness_field and s.recv == C.THIS for s in stores)

    # --- escape engine ---

    def escapes_at(self, class_name: str, method_key: str, ast_nid: int) -> Optional[EscapeResult]:
        """Escape result for the value the allocation or call `ast_nid` defines
        in member `method_key` of `class_name`; None when no node defines one.
        It reads every copy of the node (`Cfg.copies`): the routes and wrapper
        sinks of all copies, each once, in first-seen order."""
        cls = self.program.class_named(class_name)
        meth = cls.member(method_key) if cls else None
        if meth is None:
            return None
        cfg = self.version.cfg(cls, meth)
        results = [
            self.escapes_from(cfg, n)
            for n in cfg.copies(ast_nid)
            if isinstance(cfg.nodes[n], (C.Alloc, C.Invoke)) and cfg.nodes[n].dst  # type: ignore[union-attr]
        ]
        if not results:
            return None
        if len(results) == 1:
            return results[0]
        routes = list(dict.fromkeys(r for res in results for r in res.routes))
        sinks = list(dict.fromkeys(s for res in results for s in res.wrapper_sinks))
        return EscapeResult(escapes=bool(routes), routes=routes, wrapper_sinks=sinks)

    def escapes_from(self, cfg: C.Cfg, node: int) -> EscapeResult:
        """Escape result for the value node defines: an allocation, or the
        value a call returns."""
        instr = cfg.nodes[node]
        assert isinstance(instr, (C.Alloc, C.Invoke)) and instr.dst
        routes, sinks = self._collect_routes(cfg, node, instr.dst, set())
        return EscapeResult(escapes=bool(routes), routes=routes, wrapper_sinks=sinks)

    def _collect_routes(
        self, cfg: C.Cfg, start_node: int, start_local: str, visited_wrappers: set[str]
    ) -> tuple[list[Route], list[tuple[str, str]]]:
        facts, bit = cfg.taint_of(start_node, start_local)
        routes: list[Route] = []
        sinks: list[tuple[str, str]] = []
        seen_routes: set[Route] = set()

        def add(kind: str, detail: str) -> None:
            r = Route(kind, detail)
            if r not in seen_routes:
                seen_routes.add(r)
                routes.append(r)

        returns_owned = member_return_ownership(self.program, cfg.class_name, cfg.method_name) != "notowning"
        # each use asks whether its local may hold the value there
        for node in cfg.sinks:
            fact, instr = facts[node], cfg.nodes[node]
            if not fact:
                continue
            if isinstance(instr, C.StoreField) and fact.get(instr.src, 0) & bit:
                add(TO_FIELD, f"{instr.field_class}.{instr.field}")
            elif isinstance(instr, C.ReturnVal) and fact.get(instr.src, 0) & bit:
                if returns_owned:
                    add(RETURNED, cfg.method_name)
            elif isinstance(instr, (C.Invoke, C.Alloc)):
                positions = [i for i, a in enumerate(instr.args) if fact.get(a, 0) & bit]
                if not positions:
                    continue
                if isinstance(instr, C.Invoke):
                    self._route_invoke(instr, positions, add)
                elif not self._wrapper_sink(cfg, node, instr, positions, visited_wrappers, sinks, add):
                    for i in positions:
                        self._route_library_ctor(instr, i, add)
        return routes, sinks

    def _route_invoke(self, instr: C.Invoke, positions: list[int], add) -> None:
        owner = instr.owner
        for i in positions:
            if self.libspec.is_retaining_sink(owner, instr.method):
                add(STORED_IN_COLLECTION, f"{owner}.{instr.method}")
                continue
            lm = self.libspec.method(owner, instr.method)
            if lm is not None and i < len(lm.param_ownership) and lm.param_ownership[i] == "notowning":
                continue  # notowning-and-non-retaining: safe borrow
            add(PASSED_AS_ARG, f"{owner}.{instr.method}#{i}")

    def _route_library_ctor(self, instr: C.Alloc, position: int, add) -> None:
        lm = self.libspec.method(instr.class_name, instr.class_name)
        if lm is not None and position < len(lm.param_ownership) and lm.param_ownership[position] == "notowning":
            return  # safe borrow
        add(PASSED_AS_ARG, f"{instr.class_name}.{sx.CONSTRUCTOR}#{position}")

    def _wrapper_sink(
        self,
        cfg: C.Cfg,
        node: int,
        instr: C.Alloc,
        positions: list[int],
        visited_wrappers: set[str],
        sinks: list[tuple[str, str]],
        add,
    ) -> bool:
        """Absorb a constructor pass into a resource alias/accessor; the new
        wrapper value is then tracked in place of the resource."""
        if self.program.class_named(instr.class_name) is None:
            return False
        wc = self.classify_wrapper(instr.class_name)
        if wc.kind == NOT_A_WRAPPER:
            return False
        if instr.class_name in visited_wrappers:
            add(PASSED_AS_ARG, f"{instr.class_name}.{sx.CONSTRUCTOR} (wrapper revisited)")
            return True
        arity = len(instr.args)
        for p in positions:
            if not self.ctor_param_reaches_witness(instr.class_name, arity, p):
                add(PASSED_AS_ARG, f"{instr.class_name}.{sx.CONSTRUCTOR}#{p}")
                return True
        sinks.append((instr.class_name, wc.kind))
        sub_routes, sub_sinks = self._collect_routes(
            cfg, node, instr.dst, visited_wrappers | {instr.class_name}
        )
        for r in sub_routes:
            add(r.kind, r.detail)
        sinks.extend(sub_sinks)
        return True
