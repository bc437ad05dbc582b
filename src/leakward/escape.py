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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import cfg as C
from . import syntax as sx
from .libspec import LibrarySpec
from .specs import SpecSet, is_resource_type, method_return_ownership

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

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


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
    """May-alias taint of the value defined at start_node, per node (state
    before the node). Union at joins; nodes the taint never reaches may be
    absent."""

    def flow(n: int, taint: frozenset[str]) -> dict[int, frozenset[str]]:
        out = _taint_transfer(cfg.nodes[n], taint)
        if n == start_node:
            out = out | {start_local}
        return dict.fromkeys(cfg.succs(n), out)

    before, _edges = C.solve(cfg, {start_node: frozenset()}, flow, frozenset.union)
    return before


def _taint_transfer(instr: C.Instr, taint: frozenset[str]) -> frozenset[str]:
    if isinstance(instr, C.CopyLocal):
        if instr.src in taint:
            return taint | {instr.dst}
        return taint - {instr.dst}
    if isinstance(instr, C.Alloc):
        return taint - {instr.dst}
    if isinstance(instr, C.Const):
        return taint - {instr.dst}
    if isinstance(instr, C.LoadField) and instr.dst:
        return taint - {instr.dst}
    if isinstance(instr, C.Invoke) and instr.dst:
        return taint - {instr.dst}
    return taint


class EscapeAnalyzer:
    """Shared caches for wrapper classification and containment queries.

    With `enhancements` false (classic close-only repair) no class is a
    resource alias or accessor, so passing a resource into any wrapper
    constructor is an escape.
    """

    def __init__(self, program: sx.Program, specs: SpecSet, libspec: LibrarySpec, enhancements: bool = True):
        self.program = program
        self.specs = specs
        self.libspec = libspec
        self.enhancements = enhancements
        self._classify_cache: dict[str, WrapperClassification] = {}
        self._containment_cache: dict[tuple[str, str], bool] = {}
        self._containment_in_progress: set[tuple[str, str]] = set()
        self._cfg_cache: dict[int, C.Cfg] = {}

    # --- cfg helpers ---

    def _cfg(self, cls: sx.ClassDecl, meth: sx.MethodDecl) -> C.Cfg:
        key = meth.nid
        if key not in self._cfg_cache:
            self._cfg_cache[key] = C.lower(self.program, cls, meth, self.libspec)
        return self._cfg_cache[key]

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
                cfg = self._cfg(cls, meth)
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
            if not is_resource_type(fld.declared_type, self.specs, self.libspec):
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
        from .checker import stores_to_field

        return any(stores_to_field(ctor, field_name) for ctor in cls.constructors)

    def _finalizer_of(self, cls: sx.ClassDecl) -> Optional[str]:
        mc = self.specs.class_mustcall.get(cls.name)
        if mc is not None and mc.methods:
            names = sorted(mc.methods)
            return "close" if "close" in mc.methods else names[0]
        if cls.method_named("close") is not None:
            return "close"
        return None

    def ctor_param_reaches_witness(self, class_name: str, arity: int, position: int) -> bool:
        """Does constructor argument `position` flow into the witness field?"""
        cls = self.program.class_named(class_name)
        wc = self.classify_wrapper(class_name)
        if cls is None or wc.witness_field is None:
            return False
        for ctor in cls.constructors:
            if len(ctor.params) != arity:
                continue
            if position >= len(ctor.params):
                return False
            cfg = self._cfg(cls, ctor)
            pname = ctor.params[position].name
            return self._flows_to_store(cfg, pname, wc.witness_field)
        return False

    def _flows_to_store(self, cfg: C.Cfg, start_local: str, field_name: str) -> bool:
        taint = taint_fixpoint(cfg, cfg.entry, start_local)
        for node, instr in enumerate(cfg.nodes):
            if (
                isinstance(instr, C.StoreField)
                and instr.field == field_name
                and instr.recv == C.THIS
                and instr.src in taint.get(node, frozenset())
            ):
                return True
        return False

    # --- escape engine ---

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
        taint = taint_fixpoint(cfg, start_node, start_local)
        routes: list[Route] = []
        sinks: list[tuple[str, str]] = []
        seen_routes: set[Route] = set()

        def add(kind: str, detail: str) -> None:
            r = Route(kind, detail)
            if r not in seen_routes:
                seen_routes.add(r)
                routes.append(r)

        for node, instr in enumerate(cfg.nodes):
            t = taint.get(node, frozenset())
            if not t:
                continue
            if isinstance(instr, C.StoreField) and instr.src in t:
                add(TO_FIELD, f"{instr.field_class}.{instr.field}")
            elif isinstance(instr, C.ReturnVal) and instr.src in t:
                if method_return_ownership(cfg.method_ast) != "notowning":
                    add(RETURNED, cfg.method_name)
            elif isinstance(instr, C.Invoke):
                self._route_invoke(cfg, node, instr, t, add)
            elif isinstance(instr, C.Alloc):
                tainted_positions = [i for i, a in enumerate(instr.args) if a in t]
                if not tainted_positions:
                    continue
                handled = self._wrapper_sink(cfg, node, instr, tainted_positions, visited_wrappers, sinks, add)
                if not handled:
                    for i in tainted_positions:
                        self._route_library_ctor(instr, i, add)
        return routes, sinks

    def _route_invoke(self, cfg: C.Cfg, node: int, instr: C.Invoke, taint: frozenset[str], add) -> None:
        owner = instr.static_class or cfg.local_types.get(instr.recv or "", "?")
        for i, a in enumerate(instr.args):
            if a not in taint:
                continue
            if self.libspec.is_retaining_sink(owner, instr.method):
                add(STORED_IN_COLLECTION, f"{owner}.{instr.method}")
                continue
            lm = self.libspec.method(owner, instr.method)
            if lm is not None and i < len(lm.param_ownership):
                if lm.param_ownership[i] == "notowning":
                    continue  # notowning-and-non-retaining: safe borrow
                add(PASSED_AS_ARG, f"{owner}.{instr.method}#{i}")
                continue
            add(PASSED_AS_ARG, f"{owner}.{instr.method}#{i}")

    def _route_library_ctor(self, instr: C.Alloc, position: int, add) -> None:
        lm = self.libspec.method(instr.class_name, instr.class_name)
        if lm is not None and position < len(lm.param_ownership) and lm.param_ownership[position] == "notowning":
            return  # safe borrow
        add(PASSED_AS_ARG, f"{instr.class_name}.<init>#{position}")

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
            add(PASSED_AS_ARG, f"{instr.class_name}.<init> (wrapper revisited)")
            return True
        arity = len(instr.args)
        for p in positions:
            if not self.ctor_param_reaches_witness(instr.class_name, arity, p):
                add(PASSED_AS_ARG, f"{instr.class_name}.<init>#{p}")
                return True
        sinks.append((instr.class_name, wc.kind))
        sub_routes, sub_sinks = self._collect_routes(
            cfg, node, instr.dst, visited_wrappers | {instr.class_name}
        )
        for r in sub_routes:
            add(r.kind, r.detail)
        sinks.extend(sub_sinks)
        return True


# --- module-level operation surface -------------------------------------------


def field_containment(
    class_name: str, field_name: str, program: sx.Program, specs: SpecSet | None = None, libspec: LibrarySpec | None = None
) -> bool:
    specs = specs or SpecSet.from_declared(program)
    analyzer = EscapeAnalyzer(program, specs, libspec or LibrarySpec())
    return analyzer.field_containment(class_name, field_name)


def classify_wrapper(
    class_name: str, program: sx.Program, specs: SpecSet | None = None, libspec: LibrarySpec | None = None
) -> WrapperClassification:
    specs = specs or SpecSet.from_declared(program)
    analyzer = EscapeAnalyzer(program, specs, libspec or LibrarySpec())
    return analyzer.classify_wrapper(class_name)


def escapes(
    alloc_site: int,
    cfg: C.Cfg,
    program: sx.Program,
    specs: SpecSet | None = None,
    libspec: LibrarySpec | None = None,
) -> EscapeResult:
    """Escape result for the New with the given allocation-site id in cfg."""
    specs = specs or SpecSet.from_declared(program)
    analyzer = EscapeAnalyzer(program, specs, libspec or LibrarySpec())
    for node, instr in enumerate(cfg.nodes):
        if isinstance(instr, C.Alloc) and instr.site == alloc_site:
            return analyzer.escapes_from(cfg, node)
    raise ValueError(f"allocation site {alloc_site} not in cfg {cfg.class_name}.{cfg.method_name}")
