"""leakward command line.

Subcommands: check, infer, transform, fix, run, explain-escape, pipeline.
`check`, `transform` and `fix` call the pipeline's own stages (`check_stage`,
`transform_stage`, `fix_stage`), so `fix` infers specs, re-checks, repairs
fresh warnings and validates as `pipeline` does. Exit codes: 0 = done, every
patch validated; 1 = `check` reports warnings, `run` ends in another status than Completed,
`explain-escape` finds no such site; 2 = unfixable warnings remain
(`pipeline`); 3 = a patch failed validation (`fix`, `pipeline`); 4 = a file
that does not parse, lower or annotate was left out, named on stderr
(`check`, `infer`, `transform`, `fix`, `run`, `explain-escape`) or in
`errors` (`pipeline`), as is a file whose inferred specs for a class differ
from an earlier file's (`infer`), or a file without exactly one static
main (`run`). `run` does not lower: the interpreter reports an unbound name
as a status. 3 wins over 4.
Each subcommand but `run` and `pipeline` reads a file through one
`memo.ProgramVersion`, taken by `_lower_all` and handed to each stage, as
`run_file_pipeline` does, so each file state's keys are taken once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import memo
from . import syntax as sx
from .errors import FILE_ERRORS, AnnotationConflict, StaleWarning
from .escape import EscapeAnalyzer
from .inference import infer_specs
from .interp import DEFAULT_STEP_LIMIT, run as interp_run
from .libspec import LibrarySpec, load_library_spec
from .parser import parse
from .pipeline import PipelineConfig, check_stage, fix_stage, run_pipeline, transform_stage
from .printer import pretty_print
from .repair import rebind_warning
from .specs import SpecSet


def _load_libspec(path: str) -> LibrarySpec:
    return load_library_spec(Path(path).read_text())


def _load_specs(path: str | None, program) -> SpecSet:
    if path is None:
        return SpecSet.from_declared(program)
    return SpecSet.from_json(json.loads(Path(path).read_text()))


def _parse_file(path: str):
    p = Path(path)
    return parse(p.read_text(), p.name)


def _each_file(paths: list[str], work) -> tuple[list, bool]:
    """work(program) for each file; one that raises a FILE_ERRORS error is left
    out and named on stderr. The other files' results, and whether one failed."""
    results, failed = [], False
    for path in paths:
        try:
            results.append(work(_parse_file(path)))
        except FILE_ERRORS as e:
            print(f"{Path(path).name}: {type(e).__name__}: {e}", file=sys.stderr)
            failed = True
    return results, failed


def _rebind(warnings_data: list[dict], version: memo.ProgramVersion) -> tuple[list, list[str]]:
    """The file's JSON warnings bound to its CFGs, and the ids of those that match no anchor."""
    bound, stale = [], []
    for wd in warnings_data:
        if wd["file"] != version.program.source_name:
            continue
        try:
            bound.append(rebind_warning(wd, version))
        except StaleWarning:
            stale.append(wd["id"])
    return bound, stale


def _lower_all(program, libspec) -> memo.ProgramVersion:
    """The version of `program` each stage reads, every method lowered; a
    method that does not lower raises, so its file fails alone."""
    version = memo.ProgramVersion(program, libspec)
    for cls in program.classes:
        for meth in cls.all_methods():
            version.cfg(cls, meth)
    return version


def cmd_check(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)

    def check(program):
        version = _lower_all(program, libspec)
        warnings = check_stage(version, _load_specs(args.specs, program), libspec, PipelineConfig())
        if args.dump_cfg:
            outdir = Path(args.dump_cfg)
            outdir.mkdir(parents=True, exist_ok=True)
            for g in (version.cfg(cls, meth) for cls in program.classes for meth in cls.all_methods()):
                name = g.method_name.replace("<init>#", "init")
                (outdir / f"{program.source_name}.{g.class_name}.{name}.dot").write_text(g.to_dot())
        return warnings

    per_file, failed = _each_file(args.files, check)
    all_warnings = [w for warnings in per_file for w in warnings]
    if args.json:
        print(json.dumps([w.to_json() for w in all_warnings], indent=2))
    else:
        for w in all_warnings:
            print(f"{w.file}:{w.line}: [{w.kind}] {w.message} (id {w.id})")
        print(f"{len(all_warnings)} warning(s)")
    return 4 if failed else 1 if all_warnings else 0


def cmd_infer(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)
    merged = SpecSet()
    held: dict[str, tuple[str, dict]] = {}  # class name -> (file, its specs' JSON)

    def infer(program):
        specs = infer_specs(_lower_all(program, libspec), libspec)
        mine = {cls.name: specs.of_class(cls.name).to_json() for cls in program.classes}
        for name, entry in mine.items():
            if name in held and held[name][1] != entry:
                raise AnnotationConflict(f"class {name}: inferred specs differ from those of {held[name][0]}")
        for name, entry in mine.items():
            held.setdefault(name, (program.source_name, entry))
        merged.update(specs)

    _done, failed = _each_file(args.files, infer)
    Path(args.output).write_text(merged.to_json_text())
    print(f"wrote {args.output}")
    return 4 if failed else 0


def cmd_transform(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)
    warnings_data = json.loads(Path(args.warnings).read_text()) if args.warnings else []
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    def transform(program):
        version = _lower_all(program, libspec)
        warnings, _stale = _rebind(warnings_data, version)
        _, log = transform_stage(version, warnings, infer_specs(version, libspec), libspec)
        (outdir / program.source_name).write_text(pretty_print(program))
        (outdir / f"{program.source_name}.editlog.json").write_text(json.dumps(log.to_json(), indent=2) + "\n")
        print(f"transformed {program.source_name}: {len(log.entries)} edit(s)")

    _done, failed = _each_file(args.files, transform)
    return 4 if failed else 0


def cmd_fix(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)
    warnings_data = json.loads(Path(args.warnings).read_text())
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    def fix(program):
        version = _lower_all(program, libspec)
        warnings, stale = _rebind(warnings_data, version)
        outcome = fix_stage(version, warnings, infer_specs(version, libspec), libspec, PipelineConfig())
        for wid in stale:
            outcome.fix_status.setdefault(wid, ("unfixable", "NoIrMatch"))
        (outdir / f"{program.source_name}.patch").write_text(outcome.diff)
        print(f"{program.source_name}: {len(outcome.fix_status)} warning(s), validation {outcome.verdict.label}")
        return program.source_name, outcome

    outcomes, failed = _each_file(args.files, fix)
    report = json.dumps({name: outcome.to_json() for name, outcome in outcomes}, indent=2, sort_keys=True)
    (outdir / "fixreport.json").write_text(report + "\n")
    return 3 if any(not outcome.verdict.ok for _name, outcome in outcomes) else 4 if failed else 0


def cmd_run(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)

    def run(program):
        report = interp_run(program, libspec, step_limit=args.step_limit)
        if args.trace:
            for line in report.stdout:
                print(line)
        payload = report.to_json()
        if not args.trace:
            payload.pop("stdout")
        print(json.dumps(payload, indent=2))
        return 0 if report.status == "Completed" else 1

    codes, _failed = _each_file([args.file], run)
    return codes[0] if codes else 4


def cmd_explain_escape(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)

    def explain(program):
        version = _lower_all(program, libspec)
        analyzer = EscapeAnalyzer(version, _load_specs(args.specs, program), libspec)
        for cls in program.classes:
            for meth in cls.all_methods():
                new = next((e for e in sx.walk_exprs(meth.body) if isinstance(e, sx.New) and e.site == args.site), None)
                result = analyzer.escapes_at(cls.name, sx.member_key(meth), new.nid) if new else None
                if result is None:
                    continue  # not in this member, or on no path from its entry
                print(f"site {args.site}: new {new.class_name} in {cls.name}.{sx.member_key(meth)}")
                print(f"escapes: {result.escapes}")
                for r in result.routes:
                    print(f"  route {r.kind}: {r.detail}")
                for sink, kind in result.wrapper_sinks:
                    print(f"  wrapper sink {sink} ({kind})")
                return 0
        print(f"site {args.site} not found", file=sys.stderr)
        return 1

    codes, _failed = _each_file([args.file], explain)
    return codes[0] if codes else 4


def cmd_pipeline(args: argparse.Namespace) -> int:
    libspec = _load_libspec(args.libspec)
    indir = Path(args.directory)
    sources = [(p.name, p.read_text()) for p in sorted(indir.glob("*.mj"))]
    config = PipelineConfig(
        enable_transforms=not args.no_transforms,
        enable_fixer_enhancements=not args.no_enhancements,
        enable_overwrite_handling=not args.no_overwrite_handling,
    )
    report = run_pipeline(sources, libspec, config)
    outdir = Path(args.output)
    (outdir / "patched").mkdir(parents=True, exist_ok=True)
    (outdir / "patches").mkdir(parents=True, exist_ok=True)
    for name, fr in sorted(report.files.items()):
        (outdir / "patched" / name).write_text(pretty_print(fr.patched))
        (outdir / "patches" / f"{name}.patch").write_text(fr.diff)
    (outdir / "report.json").write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    (outdir / "metrics.json").write_text(json.dumps(report.metrics.to_json(), indent=2, sort_keys=True) + "\n")
    (outdir / "summary.txt").write_text(report.metrics.summary_table())
    print(report.metrics.summary_table())
    print(f"exit code {report.exit_code}")
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(prog="leakward", description="MiniJ resource-leak detection and repair")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report leak warnings")
    p.add_argument("files", nargs="+")
    p.add_argument("--libspec", required=True)
    p.add_argument("--specs")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump-cfg", metavar="DIR")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("infer", help="infer resource-management specifications")
    p.add_argument("files", nargs="+")
    p.add_argument("--libspec", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("transform", help="apply the code transformations")
    p.add_argument("files", nargs="+")
    p.add_argument("--libspec", required=True)
    p.add_argument("--warnings", help="warnings JSON from `leakward check --json`")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("fix", help="repair warnings, re-checking and validating the patch")
    p.add_argument("files", nargs="+")
    p.add_argument("--libspec", required=True)
    p.add_argument("--warnings", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_fix)

    p = sub.add_parser("run", help="interpret a program's static main")
    p.add_argument("file")
    p.add_argument("--libspec", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explain-escape", help="print escape routes for an allocation site")
    p.add_argument("file")
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--libspec", required=True)
    p.add_argument("--specs")
    p.set_defaults(fn=cmd_explain_escape)

    p = sub.add_parser("pipeline", help="run the full leak-repair pipeline over a directory")
    p.add_argument("directory")
    p.add_argument("--libspec", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-transforms", action="store_true")
    p.add_argument("--no-enhancements", action="store_true")
    p.add_argument("--no-overwrite-handling", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    args = top.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
