"""Eight-step leak-repair pipeline and evaluation metrics.

Per file: infer -> check (plus a spec-free check recorded as w_orig) ->
transform -> infer -> check (w_xform) -> plan+materialize -> validate, with
the fix+validate stage iterated (re-checking patched code can surface
deferred plans and fresh warnings).

Metrics: shifted warnings in w_xform are mapped back to their root library
warnings by following @Owning field assignment chains through constructors
(and injected finalizers recorded in the edit log). Roots present in both
sets are core leaks (CL); new roots are transformation-exposed (XE); original
warnings with no surviving root are transformation-resolved (XR). Each root
with n shifted warnings of which k were fixed contributes k/n, in exact
rational arithmetic, and the resolution rate is
R = (F_CL + F_XE + XR) / (CL + XE + XR), with R = 1 when there is nothing to
fix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from . import cfg as C
from . import syntax as sx
from .checker import (
    OWNING_FIELD_OVERWRITE,
    UNSATISFIED_OBLIGATION,
    Warning,
    check_program,
    filter_constructor_first_writes,
    warning_id,
)
from .errors import AmbiguousMapping, MaterializationFailure, StaleWarning
from .escape import EscapeAnalyzer, EscapeResult, taint_fixpoint
from .inference import infer_specs, write_specs
from .interp import ValidationVerdict, validate_patch
from .libspec import LibrarySpec
from .printer import pretty_print
from .repair import (
    Unfixable,
    apply_plan_in_place,
    method_by_cfg_name,
    plan_fix,
    unified_diff_text,
)
from .specs import OWNING, SpecSet
from .transforms import EditLog, field_to_local, finalize_fields, inject_finalizers


@dataclass
class PipelineConfig:
    max_iterations: int = 3
    enable_transforms: bool = True
    enable_fixer_enhancements: bool = True
    enable_overwrite_handling: bool = True
    step_limit: int = 100_000


@dataclass
class WarningSetPair:
    w_orig: list[Warning]
    w_xform: list[Warning]


@dataclass
class ShiftMap:
    pairs: dict[str, str]  # shifted warning id -> root id
    multiplicity: dict[str, int]  # root -> n
    fixed_counts: dict[str, int]  # root -> k

    def to_json(self) -> dict:
        return {
            "pairs": dict(sorted(self.pairs.items())),
            "multiplicity": dict(sorted(self.multiplicity.items())),
            "fixed": dict(sorted(self.fixed_counts.items())),
        }


@dataclass
class MetricsReport:
    cl: int
    xe: int
    xr: int
    f_cl: Fraction
    f_xe: Fraction

    @property
    def total(self) -> int:
        return self.cl + self.xe + self.xr

    @property
    def resolution_rate(self) -> Fraction:
        if self.total == 0:
            return Fraction(1)  # nothing to fix is success
        return (self.f_cl + self.f_xe + self.xr) / self.total

    @property
    def percent(self) -> int:
        return int(self.resolution_rate * 100 + Fraction(1, 2))

    @classmethod
    def from_counts(cls, cl: int, xe: int, xr: int, f_cl, f_xe) -> "MetricsReport":
        return cls(cl=cl, xe=xe, xr=xr, f_cl=Fraction(f_cl), f_xe=Fraction(f_xe))

    def to_json(self) -> dict:
        return {
            "CL": self.cl,
            "XE": self.xe,
            "XR": self.xr,
            "F_CL": str(self.f_cl),
            "F_XE": str(self.f_xe),
            "T": self.total,
            "R": str(self.resolution_rate),
            "percent": self.percent,
        }

    def summary_table(self, label: str = "leakward") -> str:
        head = f"{'Configuration':<14} | {'CL':>5} {'XE':>5} {'XR':>5} | {'F_CL':>8} {'F_XE':>8} | Repair rate"
        rule = "-" * len(head)
        f_cl = f"{float(self.f_cl):.2f}".rstrip("0").rstrip(".")
        f_xe = f"{float(self.f_xe):.2f}".rstrip("0").rstrip(".")
        row = f"{label:<14} | {self.cl:>5} {self.xe:>5} {self.xr:>5} | {f_cl:>8} {f_xe:>8} | {self.percent}%"
        return "\n".join([head, rule, row]) + "\n"


def compute_metrics(
    pair: WarningSetPair, shift_map: ShiftMap, dispositions: dict[str, tuple[str, str]]
) -> MetricsReport:
    """Weighted scoring: each root contributes k/n; XR counts resolved
    originals. `dispositions` maps each w_xform warning id to
    ("fixed", template) or ("unfixable", reason)."""
    orig_ids = {w.id for w in pair.w_orig}
    roots: dict[str, int] = {}
    fixed: dict[str, int] = {}
    for w in pair.w_xform:
        root = shift_map.pairs.get(w.id, w.id)
        roots[root] = roots.get(root, 0) + 1
        state = dispositions.get(w.id, ("unfixable", "unplanned"))[0]
        if state == "fixed":
            fixed[root] = fixed.get(root, 0) + 1
    cl_roots = sorted(r for r in roots if r in orig_ids)
    xe_roots = sorted(r for r in roots if r not in orig_ids)
    xr = len([i for i in orig_ids if i not in roots])
    f_cl = sum((Fraction(fixed.get(r, 0), roots[r]) for r in cl_roots), Fraction(0))
    f_xe = sum((Fraction(fixed.get(r, 0), roots[r]) for r in xe_roots), Fraction(0))
    return MetricsReport(cl=len(cl_roots), xe=len(xe_roots), xr=xr, f_cl=f_cl, f_xe=f_xe)


# --- shift map ---------------------------------------------------------------


def build_shift_map(
    w_orig: list[Warning],
    w_xform: list[Warning],
    edit_log: EditLog,
    specs_by_file: dict[str, SpecSet],
    programs_by_file: dict[str, sx.Program],
    libspec: LibrarySpec,
) -> ShiftMap:
    """Map each w_xform warning to its root: a wrapper-allocation warning maps
    to the w_orig warning at the library allocation its @Owning field chain
    reaches inside the wrapper's constructors; overwrite warnings and library
    warnings map to themselves."""
    from .repair import locate_anchor

    orig_ids = {w.id for w in w_orig}
    pairs: dict[str, str] = {}
    mult: dict[str, int] = {}
    for w in w_xform:
        root = w.id
        if w.kind == UNSATISFIED_OBLIGATION:
            program = programs_by_file.get(w.file)
            specs = specs_by_file.get(w.file)
            if program is not None and specs is not None and program.class_named(w.resource_class) is not None:
                arity: Optional[int] = None
                if w.anchor_kind == "new":
                    try:
                        node = locate_anchor(w, program)
                        if isinstance(node, sx.New):
                            arity = len(node.args)
                    except StaleWarning:
                        arity = None
                found = _chain_roots(w.resource_class, arity, w.file, program, specs, libspec, orig_ids, set())
                if len(found) > 1:
                    raise AmbiguousMapping(
                        f"warning {w.id} on {w.resource_class} reaches roots {sorted(found)}"
                    )
                if len(found) == 1:
                    root = next(iter(found))
        pairs[w.id] = root
        mult[root] = mult.get(root, 0) + 1
    return ShiftMap(pairs=pairs, multiplicity=mult, fixed_counts={})


def _chain_roots(
    wrapper: str,
    arity: Optional[int],
    file: str,
    program: sx.Program,
    specs: SpecSet,
    libspec: LibrarySpec,
    orig_ids: set[str],
    seen: set[str],
) -> set[str]:
    """w_orig ids of library allocations reachable from the wrapper's @Owning
    field assignments in the constructor of the given arity (transformed
    coordinates share ordinals with the original program, so descriptors line
    up)."""
    if wrapper in seen:
        return set()
    seen.add(wrapper)
    cls = program.class_named(wrapper)
    if cls is None:
        return set()
    owning_fields = [f.name for f in cls.fields if specs.ownership(wrapper, f.name) == OWNING]
    roots: set[str] = set()
    for ctor in cls.constructors:
        if arity is not None and len(ctor.params) != arity:
            continue
        cfg = C.lower(program, cls, ctor, libspec)
        allocs = [(i, ins) for i, ins in enumerate(cfg.nodes) if isinstance(ins, C.Alloc)]
        seen_nids: set[int] = set()
        for node, alloc in allocs:
            if alloc.ast_nid in seen_nids:
                continue  # finally duplication repeats instructions
            seen_nids.add(alloc.ast_nid)
            if not _alloc_flows_to_owning_store(cfg, node, alloc, owning_fields, wrapper):
                continue
            if program.class_named(alloc.class_name) is not None:
                roots |= _chain_roots(
                    alloc.class_name, len(alloc.args), file, program, specs, libspec, orig_ids, seen
                )
                continue
            ordinal = _ctor_new_ordinal(ctor, alloc.ast_nid, alloc.class_name)
            wid = warning_id(
                UNSATISFIED_OBLIGATION, file, wrapper, cfg.method_name, "new", alloc.class_name, ordinal
            )
            if wid in orig_ids:
                roots.add(wid)
    return roots


def _alloc_flows_to_owning_store(cfg: C.Cfg, node: int, alloc: C.Alloc, owning_fields: list[str], wrapper: str) -> bool:
    taint = taint_fixpoint(cfg, node, alloc.dst)
    for i, ins in enumerate(cfg.nodes):
        if (
            isinstance(ins, C.StoreField)
            and ins.field in owning_fields
            and ins.field_class == wrapper
            and ins.src in taint.get(i, frozenset())
        ):
            return True
    return False


def _ctor_new_ordinal(ctor: sx.MethodDecl, ast_nid: int, class_name: str) -> int:
    count = 0
    for e in sx.walk_exprs(ctor.body):
        if isinstance(e, sx.New) and e.class_name == class_name:
            if e.nid == ast_nid:
                return count
            count += 1
    return count


# --- per-file pipeline -------------------------------------------------------


@dataclass
class FileResult:
    name: str
    original: sx.Program
    transformed: sx.Program
    patched: sx.Program
    w_orig: list[Warning]
    w_xform: list[Warning]
    edit_log: EditLog
    specs: SpecSet
    fix_status: dict[str, tuple[str, str]]  # warning id -> (state, detail)
    verdict: Optional[ValidationVerdict]
    diff: str
    iterations_used: int


@dataclass
class PipelineReport:
    files: dict[str, FileResult]
    pair: WarningSetPair
    shift_map: ShiftMap
    metrics: MetricsReport
    dispositions_orig: dict[str, tuple[str, str]]
    exit_code: int
    errors: list[str] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "files": {
                name: {
                    "warningsOriginal": [w.to_json() for w in fr.w_orig],
                    "warningsTransformed": [w.to_json() for w in fr.w_xform],
                    "editLog": fr.edit_log.to_json(),
                    "fixes": {wid: {"state": st, "detail": d} for wid, (st, d) in sorted(fr.fix_status.items())},
                    "validation": fr.verdict.to_json() if fr.verdict else None,
                    "iterations": fr.iterations_used,
                }
                for name, fr in sorted(self.files.items())
            },
            "shiftMap": self.shift_map.to_json(),
            "metrics": self.metrics.to_json(),
            "dispositionsOriginal": {
                wid: {"state": st, "detail": d} for wid, (st, d) in sorted(self.dispositions_orig.items())
            },
            "exitCode": self.exit_code,
            "errors": list(self.errors),
        }


def _checked(program: sx.Program, specs: SpecSet, libspec: LibrarySpec, config: PipelineConfig) -> list[Warning]:
    warnings = check_program(program, specs, libspec)
    if config.enable_overwrite_handling:
        warnings = filter_constructor_first_writes(warnings, program)
    return warnings


def escape_for(
    w: Warning, program: sx.Program, specs: SpecSet, libspec: LibrarySpec, config: PipelineConfig
) -> Optional[EscapeResult]:
    """Escape result for the value an UnsatisfiedObligation warning tracks;
    None for other warnings or when the warned node is gone."""
    if w.kind != UNSATISFIED_OBLIGATION:
        return None
    cls = program.class_named(w.class_name)
    meth = method_by_cfg_name(cls, w.method_name) if cls else None
    if meth is None:
        return None
    cfg = C.lower(program, cls, meth, libspec)
    analyzer = EscapeAnalyzer(program, specs, libspec, enhancements=config.enable_fixer_enhancements)
    for node, ins in enumerate(cfg.nodes):
        if isinstance(ins, (C.Alloc, C.Invoke)) and ins.ast_nid == w.ast_nid and ins.dst:
            return analyzer.escapes_from(cfg, node)
    return None


def run_file_pipeline(
    program: sx.Program, libspec: LibrarySpec, config: PipelineConfig
) -> FileResult:
    declared = SpecSet.from_declared(program)
    # w_orig: the checker alone, no inferred specifications
    w_orig = _checked(program, declared, libspec, config)

    # stage 1-3: inference, first check (drives the transforms)
    specs1 = infer_specs(program, libspec)
    w_first = _checked(program, specs1, libspec, config)

    # stage 4: code transformations
    edit_log = EditLog()
    current = copy.deepcopy(program)
    if config.enable_transforms:
        current, log1 = finalize_fields(current, libspec)
        edit_log.extend(log1)
        current, log2 = field_to_local(current, libspec)
        edit_log.extend(log2)
        current, log3 = inject_finalizers(current, w_first, specs1, libspec)
        edit_log.extend(log3)

    # stage 5-6: re-infer, write annotations, updated warnings
    specs2 = infer_specs(current, libspec)
    annotated = write_specs(current, specs2)
    w_xform = _checked(annotated, specs2, libspec, config)

    # stage 7-8: plan, materialize, validate; iterate for deferred plans
    patched = copy.deepcopy(annotated)
    fix_status: dict[str, tuple[str, str]] = {}
    pending = list(w_xform)
    iterations = 0
    while pending and iterations < config.max_iterations:
        iterations += 1
        progressed = False
        deferred: list[Warning] = []
        specs_now = infer_specs(patched, libspec)
        for w in sorted(pending, key=lambda w: (w.line, w.id)):
            if not config.enable_overwrite_handling and w.kind == OWNING_FIELD_OVERWRITE:
                fix_status[w.id] = ("unfixable", "PreCloseConditionsFail(disabled)")
                continue
            er = escape_for(w, patched, specs_now, libspec, config)
            try:
                plan = plan_fix(w, patched, specs_now, er, libspec)
            except StaleWarning:
                fix_status.setdefault(w.id, ("unfixable", "NoIrMatch"))
                continue
            if isinstance(plan, Unfixable):
                fix_status[w.id] = ("unfixable", plan.reason)
                continue
            if not config.enable_fixer_enhancements and plan.finalizer_method != "close":
                fix_status[w.id] = ("unfixable", "NoIrMatch")  # classic mode only inserts close()
                continue
            try:
                apply_plan_in_place(patched, plan)
                fix_status[w.id] = ("fixed", plan.template)
                progressed = True
            except MaterializationFailure as mf:
                fix_status[w.id] = ("deferred", f"MaterializationFailure({mf.reason})")
                deferred.append(w)
        # surface fresh warnings on the patched code
        if progressed:
            specs_next = infer_specs(patched, libspec)
            fresh = [
                w
                for w in _checked(patched, specs_next, libspec, config)
                if w.id not in fix_status and all(w.id != p.id for p in w_xform)
            ]
        else:
            fresh = []
        pending = deferred + fresh
        if not progressed and not fresh:
            break
    for w in pending:
        state, detail = fix_status.get(w.id, ("deferred", "MaterializationFailure(iterations exhausted)"))
        if state == "deferred":
            fix_status[w.id] = ("unfixable", detail)

    fixed_ids = tuple(sorted(wid for wid, (st, _d) in fix_status.items() if st == "fixed"))
    verdict = validate_patch(annotated, patched, libspec, fixed_ids=fixed_ids, step_limit=config.step_limit)
    if not verdict.ok:
        for wid in fixed_ids:
            fix_status[wid] = ("validation-failed", verdict.label)
    diff = unified_diff_text(pretty_print(annotated), pretty_print(patched), program.source_name)
    return FileResult(
        name=program.source_name,
        original=program,
        transformed=annotated,
        patched=patched,
        w_orig=w_orig,
        w_xform=w_xform,
        edit_log=edit_log,
        specs=specs2,
        fix_status=fix_status,
        verdict=verdict,
        diff=diff,
        iterations_used=iterations,
    )


def run_pipeline(
    sources: list[tuple[str, str]], libspec: LibrarySpec, config: Optional[PipelineConfig] = None
) -> PipelineReport:
    """Full pipeline over (name, text) sources; deterministic and pure."""
    from .parser import parse

    config = config or PipelineConfig()
    files: dict[str, FileResult] = {}
    errors: list[str] = []
    for name, text in sorted(sources):
        program = parse(text, name)
        files[name] = run_file_pipeline(program, libspec, config)

    w_orig_all = [w for fr in files.values() for w in fr.w_orig]
    w_xform_all = [w for fr in files.values() for w in fr.w_xform]
    pair = WarningSetPair(w_orig=w_orig_all, w_xform=w_xform_all)

    merged_log = EditLog()
    for fr in files.values():
        merged_log.extend(fr.edit_log)
    specs_by_file = {fr.name: fr.specs for fr in files.values()}
    programs_by_file = {fr.name: fr.transformed for fr in files.values()}
    try:
        shift_map = build_shift_map(w_orig_all, w_xform_all, merged_log, specs_by_file, programs_by_file, libspec)
    except AmbiguousMapping as e:
        errors.append(f"shift-map: {e}")
        shift_map = ShiftMap(pairs={w.id: w.id for w in w_xform_all}, multiplicity={}, fixed_counts={})
        for w in w_xform_all:
            shift_map.multiplicity[w.id] = shift_map.multiplicity.get(w.id, 0) + 1

    dispositions_xform: dict[str, tuple[str, str]] = {}
    for fr in files.values():
        for w in fr.w_xform:
            dispositions_xform[w.id] = fr.fix_status.get(w.id, ("unfixable", "unplanned"))
    for root in shift_map.multiplicity:
        shift_map.fixed_counts[root] = sum(
            1
            for wid, r in shift_map.pairs.items()
            if r == root and dispositions_xform.get(wid, ("", ""))[0] == "fixed"
        )
    metrics = compute_metrics(pair, shift_map, dispositions_xform)

    # per-original-warning dispositions: fixed / resolved-by-transform / unfixable
    roots = set(shift_map.pairs.values())
    dispositions_orig: dict[str, tuple[str, str]] = {}
    for w in w_orig_all:
        if w.id not in roots:
            dispositions_orig[w.id] = ("resolved-by-transform", "")
            continue
        n = shift_map.multiplicity.get(w.id, 0)
        k = shift_map.fixed_counts.get(w.id, 0)
        if n > 0 and k == n:
            dispositions_orig[w.id] = ("fixed", f"{k}/{n}")
        else:
            reasons = sorted(
                dispositions_xform.get(wid, ("", ""))[1]
                for wid, r in shift_map.pairs.items()
                if r == w.id and dispositions_xform.get(wid, ("", ""))[0] != "fixed"
            )
            dispositions_orig[w.id] = ("unfixable", reasons[0] if reasons else "unknown")

    any_validation_failure = any(fr.verdict is not None and not fr.verdict.ok for fr in files.values())
    any_unfixable = any(st in ("unfixable",) for fr in files.values() for st, _ in fr.fix_status.values()) or any(
        st == "unfixable" for st, _ in dispositions_orig.values()
    )
    exit_code = 3 if any_validation_failure else (2 if any_unfixable else 0)
    return PipelineReport(
        files=files,
        pair=pair,
        shift_map=shift_map,
        metrics=metrics,
        dispositions_orig=dispositions_orig,
        exit_code=exit_code,
        errors=errors,
    )
