#!/usr/bin/env python3
"""Regenerate the hand-verified golden files for the bundled corpus.

Run from the repo root after an intentional behavior change, then audit the
diff before committing: every disposition, warning location, and patched
showcase program is meant to be audited by a human before freezing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leakward.libspec import load_library_spec
from leakward.pipeline import PipelineConfig, run_pipeline
from leakward.printer import pretty_print

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = CORPUS / "golden"

SHOWCASE_PATCHED = {
    "tempfile_writer.mj": "tempfile_writer_fixed.mj",
    "event_proxy.mj": "event_proxy_fixed.mj",
    "puppeteer_task.mj": "puppeteer_task_fixed.mj",
    "parser_tables.mj": "parser_tables_fixed.mj",
    "holder_trycatch.mj": "holder_trycatch_fixed.mj",
    "writer_wrapper.mj": "writer_wrapper_fixed.mj",
}


def main() -> int:
    libspec = load_library_spec((CORPUS / "minij.libspec").read_text())
    sources = [(p.name, p.read_text()) for p in sorted(CORPUS.glob("*.mj"))]
    report = run_pipeline(sources, libspec, PipelineConfig())
    GOLDEN.mkdir(exist_ok=True)

    dispositions = {}
    for name, fr in sorted(report.files.items()):
        dispositions[name] = {
            "warningsOriginal": [
                {"id": w.id, "kind": w.kind, "line": w.line, "resourceClass": w.resource_class}
                for w in fr.w_orig
            ],
            "warningsTransformed": [
                {
                    "id": w.id,
                    "kind": w.kind,
                    "line": w.line,
                    "resourceClass": w.resource_class,
                    "state": fr.fix_status[w.id][0],
                    "detail": fr.fix_status[w.id][1],
                }
                for w in fr.w_xform
            ],
            "verdict": fr.verdict.label if fr.verdict else None,
        }
    payload = {
        "files": dispositions,
        "shiftPairs": {s: r for s, r in sorted(report.shift_map.pairs.items()) if s != r},
        "dispositionsOriginal": {
            wid: {"state": st, "detail": d} for wid, (st, d) in sorted(report.dispositions_orig.items())
        },
        "metrics": report.metrics.to_json(),
        "exitCode": report.exit_code,
    }
    (GOLDEN / "dispositions.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for src_name, golden_name in SHOWCASE_PATCHED.items():
        fr = report.files[src_name]
        (GOLDEN / golden_name).write_text(pretty_print(fr.patched))

    print(f"wrote {GOLDEN}/dispositions.json and {len(SHOWCASE_PATCHED)} patched showcase programs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
