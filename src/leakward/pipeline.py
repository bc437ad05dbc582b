"""Eight-step leak-repair pipeline and evaluation metrics.

Per file: infer -> check (plus a spec-free check recorded as w_orig) ->
transform -> infer -> check (w_xform) -> plan+apply -> validate, with
the plan+apply step iterated while re-checking the patched code finds fresh
warnings.

`run_file_pipeline` is a sequence of stage calls, and the CLI calls the
same stages: `check_stage`, `transform_stage` and `fix_stage`.

Metrics: shifted warnings in w_xform are mapped back to their root library
warnings by following @Owning field assignment chains through constructors
(`build_shift_map`, per file); `score` groups a batch's w_xform warnings by
root once, for the shift map, the metrics and the original warnings'
dispositions. Roots present in both sets are core leaks (CL); new roots are
transformation-exposed (XE); original warnings with no surviving root are
transformation-resolved (XR). Each root with n shifted warnings of which k
were fixed contributes k/n, in exact rational arithmetic, and the resolution
rate is R = (F_CL + F_XE + XR) / (CL + XE + XR), with R = 1 when there is
nothing to fix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from . import cfg as C
from . import memo
from . import syntax as sx
from .checker import (
    OWNING_FIELD_OVERWRITE,
    UNSATISFIED_OBLIGATION,
    Warning,
    check_program,
    filter_constructor_first_writes,
)
from .errors import FILE_ERRORS, AmbiguousMapping, StaleWarning
from .escape import EscapeAnalyzer, tainted_stores
from .inference import infer_specs, write_specs
from .interp import ValidationVerdict, validate_patch
from .libspec import LibrarySpec
from .parser import parse
from .printer import pretty_print
from .repair import Unfixable, apply_plan_in_place, plan_fix, screen_fix, unified_diff_text
from .specs import OWNING, SpecSet
from .transforms import EditLog, field_to_local, finalize_fields, inject_finalizers


MAX_FIX_ITERATIONS = 3  # rounds of repair and re-check per file


@dataclass
class PipelineConfig:
    enable_transforms: bool = True
    enable_fixer_enhancements: bool = True
    enable_overwrite_handling: bool = True


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


def score(
    w_orig: list[Warning], w_xform: list[Warning], roots: dict[str, str], fix_status: dict[str, tuple[str, str]]
) -> tuple[ShiftMap, MetricsReport, dict[str, tuple[str, str]]]:
    """Weighted scoring of a batch: `roots` maps each w_xform warning id to
    its root, and `fix_status` each to (state, detail). Groups each w_xform
    warning's state under its root once; a root with n of them, k "fixed",
    contributes k/n. Returns the shift map, the metrics, and each original
    warning's disposition: ("fixed", "k/n") when all n were fixed, else
    ("unfixable", the least detail of one not fixed), or
    ("resolved-by-transform", "") when no w_xform warning has it as root."""
    shifted: dict[str, list[tuple[str, str]]] = {}
    for w in w_xform:
        shifted.setdefault(roots[w.id], []).append(fix_status[w.id])
    mult = {root: len(states) for root, states in shifted.items()}
    fixed = {root: sum(st == "fixed" for st, _d in states) for root, states in shifted.items()}
    orig_ids = {w.id for w in w_orig}
    cl = len(orig_ids & mult.keys())
    f_cl = sum((Fraction(fixed[r], n) for r, n in mult.items() if r in orig_ids), Fraction(0))
    f_xe = sum((Fraction(fixed[r], n) for r, n in mult.items() if r not in orig_ids), Fraction(0))
    metrics = MetricsReport(cl=cl, xe=len(mult) - cl, xr=len(orig_ids) - cl, f_cl=f_cl, f_xe=f_xe)
    dispositions: dict[str, tuple[str, str]] = {}
    for w in w_orig:
        if w.id not in shifted:
            dispositions[w.id] = ("resolved-by-transform", "")
        elif fixed[w.id] == mult[w.id]:
            dispositions[w.id] = ("fixed", f"{fixed[w.id]}/{mult[w.id]}")
        else:
            dispositions[w.id] = ("unfixable", min(d for st, d in shifted[w.id] if st != "fixed"))
    return ShiftMap(pairs=roots, multiplicity=mult, fixed_counts=fixed), metrics, dispositions


# --- shift map ---------------------------------------------------------------


def build_shift_map(
    w_orig: list[Warning],
    w_xform: list[Warning],
    specs: SpecSet,
    program: memo.ProgramOrVersion,
    libspec: LibrarySpec,
) -> dict[str, str]:
    """Map each of one file's w_xform warning ids to its root's: a
    wrapper-allocation warning maps to the w_orig warning at the library
    allocation its @Owning field chain reaches inside the wrapper's
    constructors; overwrite warnings and library warnings map to themselves.
    The file's transformed program is read through one version: the one
    handed in, or one taken here of a bare program."""
    version = memo.version_of(program, libspec)
    # the transforms edit in place, so an allocation keeps its site from w_orig to w_xform
    root_at_site = {w.site: w.id for w in w_orig if w.kind == UNSATISFIED_OBLIGATION and w.anchor_kind == "new"}
    pairs: dict[str, str] = {}
    for w in w_xform:
        root = w.id
        if w.kind == UNSATISFIED_OBLIGATION and version.program.class_named(w.resource_class):
            arity: Optional[int] = None
            if w.anchor_kind == "new":
                cls = version.program.class_named(w.class_name)
                cfg = version.cfg(cls, cls.member(w.method_name))
                arity = len(cfg.nodes[cfg.copies(w.ast_nid)[0]].args)  # type: ignore[union-attr]
            found = _chain_roots(w.resource_class, arity, version, specs, root_at_site, set())
            if len(found) > 1:
                raise AmbiguousMapping(f"warning {w.id} on {w.resource_class} reaches roots {sorted(found)}")
            if len(found) == 1:
                root = next(iter(found))
        pairs[w.id] = root
    return pairs


def _chain_roots(
    wrapper: str,
    arity: Optional[int],
    version: memo.ProgramVersion,
    specs: SpecSet,
    root_at_site: dict[int, str],
    seen: set[str],
) -> set[str]:
    """w_orig ids of library allocations reachable from the wrapper's @Owning
    field assignments in the constructor of the given arity (any arity when
    None), found by the allocation's site. An allocation's stores are those
    of every copy of it (`Cfg.copies`)."""
    if wrapper in seen:
        return set()
    seen.add(wrapper)
    program = version.program
    cls = program.class_named(wrapper)
    if cls is None:
        return set()
    owning_fields = [f.name for f in cls.fields if specs.ownership(wrapper, f.name) == OWNING]
    roots: set[str] = set()
    for ctor in cls.constructors:
        if arity is not None and len(ctor.params) != arity:
            continue
        cfg = version.cfg(cls, ctor)
        for node, alloc in enumerate(cfg.nodes):
            if not isinstance(alloc, C.Alloc):
                continue
            copies = cfg.copies(alloc.ast_nid)
            if copies[0] != node:
                continue  # an allocation in a finally block is read once, over all its copies
            stores = [s for n in copies for s in tainted_stores(cfg, n, cfg.nodes[n].dst)]  # type: ignore[union-attr]
            if not any(s.field in owning_fields and s.field_class == wrapper for s in stores):
                continue
            if program.class_named(alloc.class_name) is not None:
                roots |= _chain_roots(alloc.class_name, len(alloc.args), version, specs, root_at_site, seen)
            elif alloc.site in root_at_site:
                roots.add(root_at_site[alloc.site])
    return roots


# --- per-file pipeline -------------------------------------------------------


@dataclass
class FixOutcome:
    """`fix_stage`'s result; fix_status maps warning id -> (state, detail)."""

    patched: sx.Program
    fix_status: dict[str, tuple[str, str]]
    iterations_used: int
    verdict: ValidationVerdict
    diff: str

    def to_json(self) -> dict:
        return {
            "fixes": {wid: {"state": st, "detail": d} for wid, (st, d) in sorted(self.fix_status.items())},
            "validation": self.verdict.to_json(),
            "iterations": self.iterations_used,
        }


@dataclass
class FileResult(FixOutcome):
    """A file's fix outcome with the warnings, edit log and specs behind it."""

    name: str
    transformed: sx.Program
    w_orig: list[Warning]
    w_xform: list[Warning]
    edit_log: EditLog
    specs: SpecSet
    roots: dict[str, str]  # w_xform warning id -> root id (`build_shift_map`)
    shift_error: str = ""  # why the shift map was ambiguous, in which case each warning is its own root


@dataclass
class PipelineReport:
    files: dict[str, FileResult]
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
                    **FixOutcome.to_json(fr),
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


def check_stage(
    program: memo.ProgramOrVersion, specs: SpecSet, libspec: LibrarySpec, config: PipelineConfig
) -> list[Warning]:
    """The checker's warnings, less constructor first writes when overwrite handling is on."""
    version = memo.version_of(program, libspec)
    warnings = check_program(version, specs, libspec)
    if config.enable_overwrite_handling:
        warnings = filter_constructor_first_writes(warnings, version.program)
    return warnings


def transform_stage(
    program: memo.ProgramOrVersion, warnings: list[Warning], specs: SpecSet, libspec: LibrarySpec
) -> tuple[memo.ProgramVersion, EditLog]:
    """finalize_fields -> field_to_local -> inject_finalizers, on `program`
    itself; hands back the version it ends with, as the transforms do, with
    the edits made."""
    version, log1 = finalize_fields(memo.version_of(program, libspec), libspec)
    _, log2 = field_to_local(version.program)
    if log2.entries:
        version = version.edited()
    version, log3 = inject_finalizers(version, warnings, specs, libspec)
    return version, EditLog(log1.entries + log2.entries + log3.entries)


def fix_stage(
    program: memo.ProgramOrVersion, warnings: list[Warning], specs: SpecSet, libspec: LibrarySpec, config: PipelineConfig
) -> FixOutcome:
    """Repair `warnings`, found on `program` under `specs`, on a copy of it,
    `patched`, in rounds, re-inferring and re-checking after each round that
    fixed something to repair the fresh warnings (unfixable with detail
    `IterationsExhausted` after the last round); then validate the patch.
    With no warning there is nothing to repair, and `patched` is `program`
    itself, uncopied: nothing edits either after the pipeline.

    `patched` is read through one version per state, each analysed once: the
    copy gets the key of `program`'s version and is repaired under `specs`,
    and a round that applied a plan takes a new version, which the re-check,
    the next round and validation read.

    A round screens each of its warnings (`screen_fix`) with one
    `EscapeAnalyzer` on `patched` as the round starts, before its first edit;
    then it plans each warning in turn on `patched` as it is by then and
    applies the plan at once. The round's plans find their nodes in one
    `syntax.AstIndex` of `patched`, built as the round starts, which each
    application keeps current. The screen's results hold for the whole round,
    because a template only adds finalizer calls on existing receivers, null
    declarations (moving an allocation into an assignment) and try/finally
    and catch blocks: no field write, and no return, argument pass or
    collection store of a tracked value.

    Validation gets the fixed ids the last re-check still reports. Its
    reparse of the one print of `patched`, which the diff also uses, is the
    parse and printer-fixpoint gate. When no plan was applied there is no
    patch to blame: the diff is empty and the verdict is Pass, with no
    validation run."""
    version = memo.version_of(program, libspec)
    program = version.program
    if not warnings:
        return FixOutcome(program, {}, 0, ValidationVerdict(ok=True), "")
    patched = copy.deepcopy(program)
    now = version.copied(patched)  # `patched` as it is now
    fix_status: dict[str, tuple[str, str]] = {}
    pending = list(warnings)
    iterations = 0
    while pending and iterations < MAX_FIX_ITERATIONS:
        iterations += 1
        progressed = False
        ordered = sorted(pending, key=lambda w: (w.line, w.id))
        # every lookup of the round's analyzer happens here, before the round's first edit
        analyzer = EscapeAnalyzer(now, specs, libspec, enhancements=config.enable_fixer_enhancements)
        disabled = not config.enable_overwrite_handling
        screened = [None if disabled and w.kind == OWNING_FIELD_OVERWRITE else screen_fix(w, analyzer) for w in ordered]
        index = sx.AstIndex(patched)  # each plan finds its nodes here, and each application keeps it current
        for w, screen in zip(ordered, screened):
            if screen is None:
                fix_status[w.id] = ("unfixable", "PreCloseConditionsFail(disabled)")
                continue
            try:
                plan = plan_fix(w, patched, screen, index)
            except StaleWarning:
                fix_status[w.id] = ("unfixable", "NoIrMatch")
                continue
            if isinstance(plan, Unfixable):
                fix_status[w.id] = ("unfixable", plan.reason)
                continue
            apply_plan_in_place(patched, plan)
            fix_status[w.id] = ("fixed", plan.template)
            progressed = True
        pending = []  # warnings of the patched code not seen before (every given one has a status)
        if progressed:
            now = now.edited()
            specs = infer_specs(now, libspec)
            warnings = check_stage(now, specs, libspec, config)  # `now`'s under `specs`, as the given ones
            pending = [w for w in warnings if w.id not in fix_status]
    for w in pending:
        fix_status[w.id] = ("unfixable", "IterationsExhausted")

    fixed_ids = {wid for wid, (st, _d) in fix_status.items() if st == "fixed"}
    if not fixed_ids:
        return FixOutcome(patched, fix_status, iterations, ValidationVerdict(ok=True), "")
    surviving = {w.id for w in warnings} & fixed_ids
    patched_text = pretty_print(patched)
    verdict = validate_patch(program, now, libspec, surviving=surviving, patched_text=patched_text)
    if not verdict.ok:
        for wid in fixed_ids:
            fix_status[wid] = ("validation-failed", verdict.label)
    diff = unified_diff_text(pretty_print(program), patched_text, program.source_name)
    return FixOutcome(patched, fix_status, iterations, verdict, diff)


def run_file_pipeline(program: sx.Program, libspec: LibrarySpec, config: PipelineConfig) -> FileResult:
    """The eight steps on one file's parse, which the transforms and
    `write_specs` edit in place and which ends as `FileResult.transformed`;
    `fix_stage` patches a copy of it, or hands it back when it has no
    warning. The stages read the parse through one `ProgramVersion` per
    state, so each state is keyed once: the transforms hand back a new
    version only when they edited, and `write_specs` keeps the version, as
    no annotation it writes is read by a key. When the transforms edit
    nothing, the first inference and check are `specs` and `w_xform`, so
    that state is analysed once. The shift map reads the last version,
    while its entries are current; when it is ambiguous, each w_xform
    warning is its own root and `shift_error` says why."""
    version = memo.ProgramVersion(program, libspec)
    # w_orig: the checker alone, no inferred specifications
    w_orig = check_stage(version, SpecSet.from_declared(program), libspec, config)

    # stages 1-4: inference and a first check drive the code transformations
    edit_log = EditLog()
    if config.enable_transforms:
        specs2 = infer_specs(version, libspec)
        w_xform = check_stage(version, specs2, libspec, config)
        version, edit_log = transform_stage(version, w_xform, specs2, libspec)

    # stages 5-6: re-infer and re-check the state the transforms edited (an
    # unedited one was analysed above), write annotations
    if edit_log.entries or not config.enable_transforms:
        specs2 = infer_specs(version, libspec)
        w_xform = check_stage(version, specs2, libspec, config)
    write_specs(program, specs2)

    # stages 7-8: plan, apply, validate
    fixed = fix_stage(version, w_xform, specs2, libspec, config)
    try:
        roots, shift_error = build_shift_map(w_orig, w_xform, specs2, version, libspec), ""
    except AmbiguousMapping as e:
        roots, shift_error = {w.id: w.id for w in w_xform}, str(e)
    return FileResult(
        **vars(fixed), name=program.source_name, transformed=program, w_orig=w_orig, w_xform=w_xform,
        edit_log=edit_log, specs=specs2, roots=roots, shift_error=shift_error,
    )


def run_pipeline(
    sources: list[tuple[str, str]], libspec: LibrarySpec, config: Optional[PipelineConfig] = None
) -> PipelineReport:
    """Full pipeline over (name, text) sources; deterministic and pure. A file's
    stages share the memo of its program family (`memo`), whose entries the
    next file's parse replaces. A file that does not parse,
    lower or annotate is left out with an entry in `errors` and exit code 4
    (unless a validation failure makes it 3). A file whose shift map is
    ambiguous keeps its results and gets an entry in `errors`; each of its
    `w_xform` warnings is its own root, and the other files' maps are
    unchanged."""
    config = config or PipelineConfig()
    files: dict[str, FileResult] = {}
    errors: list[str] = []
    for name, text in sorted(sources):
        try:
            files[name] = run_file_pipeline(parse(text, name), libspec, config)
        except FILE_ERRORS as e:
            errors.append(f"{name}: {type(e).__name__}: {e}")
    bad_files = bool(errors)
    # prefixed, as an entry "{name}: ..." marks a file left out
    errors += [f"shift-map: {name}: {fr.shift_error}" for name, fr in files.items() if fr.shift_error]

    # roots never cross files, so one score of the batch is the per-file scores together
    fix_status = {wid: status for fr in files.values() for wid, status in fr.fix_status.items()}
    shift_map, metrics, dispositions_orig = score(
        [w for fr in files.values() for w in fr.w_orig],
        [w for fr in files.values() for w in fr.w_xform],
        {wid: root for fr in files.values() for wid, root in fr.roots.items()},
        fix_status,
    )

    # an original not fully fixed has a shifted warning that is unfixable or
    # failed validation, so the file statuses decide
    any_validation_failure = any(not fr.verdict.ok for fr in files.values())
    any_unfixable = any(st == "unfixable" for st, _d in fix_status.values())
    exit_code = 3 if any_validation_failure else 4 if bad_files else 2 if any_unfixable else 0
    return PipelineReport(
        files=files,
        shift_map=shift_map,
        metrics=metrics,
        dispositions_orig=dispositions_orig,
        exit_code=exit_code,
        errors=errors,
    )
