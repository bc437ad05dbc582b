#!/usr/bin/env python3
"""Standalone soundness fuzzer: generate programs, run the interpreter oracle,
and confirm every leaked allocation site is covered by a checker warning.

Usage: python scripts/fuzz_check.py [count] [--seed-base N]
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import build_coverage
from leakward.checker import check_program
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.interp import run
from leakward.parser import parse
from leakward.specs import SpecSet


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("count", nargs="?", type=int, default=200)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()
    lib = fuzz_libspec()
    completed = 0
    leaky = 0
    violations = []
    for seed in itertools.count(args.seed_base):
        if completed == args.count:
            break
        src = generate_source(seed)
        prog = parse(src, f"fuzz{seed}.mj")
        report = run(prog, lib)
        if report.status != "Completed":
            continue
        completed += 1
        if report.leaked_sites:
            leaky += 1
        warnings = check_program(prog, SpecSet.from_declared(prog), lib)
        covered = build_coverage(prog, lib, warnings)
        for site in set(report.leaked_sites):
            if not covered(site):
                violations.append((seed, site))
                print(f"VIOLATION seed={seed} site={site}")
                print(src)
    print(f"{completed} programs completed ({leaky} with runtime leaks); {len(violations)} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
