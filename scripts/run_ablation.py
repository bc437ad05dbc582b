#!/usr/bin/env python3
"""Ablation study over the bundled corpus: run the pipeline with each major
component disabled in turn and print the resolution-rate table. A corpus file
that a configuration leaves out is named on stderr, and the exit code is 1."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leakward.libspec import load_library_spec
from leakward.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CONFIGS = [
    ("leakward", PipelineConfig()),
    ("- transforms", PipelineConfig(enable_transforms=False)),
    ("- fixer enhancements", PipelineConfig(enable_fixer_enhancements=False)),
    ("- overwrite handling", PipelineConfig(enable_overwrite_handling=False)),
]


def main() -> int:
    libspec = load_library_spec((CORPUS / "minij.libspec").read_text())
    sources = [(p.name, p.read_text()) for p in sorted(CORPUS.glob("*.mj"))]
    rows = []
    errors = []
    for label, config in CONFIGS:
        report = run_pipeline(sources, libspec, config)
        rows.append((label, report.metrics))
        errors.extend(f"{label}: {e}" for e in report.errors)
    head = f"{'Configuration':<22} | {'CL':>4} {'XE':>4} {'XR':>4} | {'F_CL':>7} {'F_XE':>7} | Repair rate"
    print(head)
    print("-" * len(head))
    for label, m in rows:
        f_cl = f"{float(m.f_cl):g}"
        f_xe = f"{float(m.f_xe):g}"
        print(f"{label:<22} | {m.cl:>4} {m.xe:>4} {m.xr:>4} | {f_cl:>7} {f_xe:>7} | {m.percent}%")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
