"""leakward: resource-leak detection, specification inference, and automated
repair for the MiniJ language, validated by a tree-walking interpreter."""

from .checker import (
    CompileError,
    Warning,
    check_program,
    filter_constructor_first_writes,
    reject_final_writes,
)
from .cfg import AliasSets, Cfg, lower, must_alias
from .escape import EscapeAnalyzer, EscapeResult, WrapperClassification
from .inference import infer_specs, write_specs
from .interp import RuntimeReport, ValidationVerdict, run, validate_patch
from .libspec import LibrarySpec, load_library_spec
from .parser import parse
from .pipeline import (
    MetricsReport,
    PipelineConfig,
    PipelineReport,
    ShiftMap,
    build_shift_map,
    run_pipeline,
    score,
)
from .printer import pretty_print
from .repair import RepairPlan, Unfixable, apply_plan_in_place, plan_fix, screen_fix
from .specs import SpecSet
from .transforms import EditLog, field_to_local, finalize_fields, inject_finalizers

__all__ = [
    "AliasSets",
    "Cfg",
    "CompileError",
    "EditLog",
    "EscapeAnalyzer",
    "EscapeResult",
    "LibrarySpec",
    "MetricsReport",
    "PipelineConfig",
    "PipelineReport",
    "RepairPlan",
    "RuntimeReport",
    "ShiftMap",
    "SpecSet",
    "Unfixable",
    "ValidationVerdict",
    "Warning",
    "WrapperClassification",
    "apply_plan_in_place",
    "build_shift_map",
    "check_program",
    "field_to_local",
    "filter_constructor_first_writes",
    "finalize_fields",
    "infer_specs",
    "inject_finalizers",
    "load_library_spec",
    "lower",
    "must_alias",
    "parse",
    "plan_fix",
    "pretty_print",
    "reject_final_writes",
    "run",
    "run_pipeline",
    "score",
    "screen_fix",
    "validate_patch",
    "write_specs",
]
