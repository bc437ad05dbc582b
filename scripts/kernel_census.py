#!/usr/bin/env python3
"""Census of the per-method kernel: for each CFG node count, how many
lowerings of the corpus and of `generate_source(0..N-1)` have it (one per
member), how many of those start no value (no `Alloc`, no `Invoke` with a
`dst`), so that their checker runs solve no liveness, and the median
microseconds of one lowering, one liveness solve (over the lowerings that
solve it) and one checker run (under inferred specs) of those members;
then the median microseconds of one `memo.member_keys` call per file, and
the total and median number of origins in the normal-exit facts of the
checker runs it timed (a run that reaches exit on no normal path has no
such fact). Each time is a member's (or a file's) best of REPEAT runs, each
on a fresh parse of its file, so the memo holds none of its entries.

Usage: python scripts/kernel_census.py [N]    (N defaults to 600)
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from leakward import syntax as sx
from leakward.checker import method_run
from leakward.errors import FILE_ERRORS
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.inference import infer_specs
from leakward.libspec import load_library_spec
from leakward.memo import ProgramVersion
from leakward.parser import parse

Times = tuple[float, Optional[float], float]  # lowering, liveness (None where no run solves it), checker run; seconds
REPEAT = 5  # runs per member, of which each time takes the best


Run = tuple[int, Times, Optional[int]]  # node count, best times, normal-exit origins (None: no normal exit)


def measure(name: str, text: str, libspec) -> tuple[dict[tuple[str, str], Run], float]:
    """(node count, best times, normal-exit origins) per member of the file,
    by (class, member key), and the best time of taking the file's keys, in
    seconds."""
    specs = infer_specs(parse(text, name), libspec)
    best: dict[tuple[str, str], Run] = {}
    best_keys = float("inf")
    for _ in range(REPEAT):
        version = ProgramVersion(parse(text, name), libspec)  # a fresh program: no memo entry is reused
        t0 = perf_counter()
        version.keys  # taken here, before the first lookup would take them
        best_keys = min(best_keys, perf_counter() - t0)
        for cls in version.program.classes:
            for meth in cls.all_methods():
                t0 = perf_counter()
                g = version.cfg(cls, meth)
                t1 = perf_counter()
                if g.starts_values:
                    g.live_in()
                t2 = perf_counter()
                _warnings, exit_fact = method_run(version, cls, meth, specs)
                t3 = perf_counter()
                times = (t1 - t0, t2 - t1 if g.starts_values else None, t3 - t2)
                key = (cls.name, sx.member_key(meth))
                if key in best:
                    times = tuple(None if a is None else min(a, b) for a, b in zip(best[key][1], times))  # type: ignore[assignment]
                best[key] = (len(g.nodes), times, None if exit_fact is None else len(exit_fact.origins))
    return best, best_keys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("count", nargs="?", type=int, default=600)
    args = ap.parse_args()
    corpus_lib = load_library_spec((ROOT / "corpus" / "minij.libspec").read_text())
    files = [(p.name, p.read_text(), corpus_lib) for p in sorted((ROOT / "corpus").glob("*.mj"))]
    files += [(f"fuzz{seed}.mj", generate_source(seed), fuzz_libspec()) for seed in range(args.count)]
    by_nodes: dict[int, list[Times]] = defaultdict(list)
    keys: list[float] = []  # seconds of one `member_keys` per file
    exit_origins: list[int] = []  # origins in each normal-exit fact
    skipped = 0
    for name, text, libspec in files:
        try:
            runs, keying = measure(name, text, libspec)
        except FILE_ERRORS:
            skipped += 1
            continue
        keys.append(keying)
        for nodes, times, origins in runs.values():
            by_nodes[nodes].append(times)
            if origins is not None:
                exit_origins.append(origins)
    lowerings = sum(len(ts) for ts in by_nodes.values())
    print(f"corpus and generate_source(0..{args.count - 1}): {lowerings} lowerings, {skipped} files skipped")
    print(f"{'nodes':>5} {'lowerings':>9} {'no liveness':>11} {'lower us':>9} {'liveness us':>11} {'checker us':>10}")
    for nodes in sorted(by_nodes):
        ts = by_nodes[nodes]
        solved = [t[1] for t in ts if t[1] is not None]
        lower, check = (statistics.median(t[i] for t in ts) * 1e6 for i in (0, 2))
        live = f"{statistics.median(solved) * 1e6:11.1f}" if solved else f"{'-':>11}"
        print(f"{nodes:5} {len(ts):9} {len(ts) - len(solved):11} {lower:9.1f} {live} {check:10.1f}")
    totals = [sum(t[i] or 0.0 for ts in by_nodes.values() for t in ts) * 1e3 for i in range(3)]
    skipped_liveness = sum(t[1] is None for ts in by_nodes.values() for t in ts)
    print(f"lowerings that solve no liveness: {skipped_liveness} of {lowerings}")
    print(f"total ms: lowering {totals[0]:.1f}, liveness {totals[1]:.1f}, checker runs {totals[2]:.1f}")
    print(f"member_keys: median {statistics.median(keys) * 1e6:.1f} us per file, total ms {sum(keys) * 1e3:.1f}")
    print(
        f"normal-exit facts: {len(exit_origins)}, origins total {sum(exit_origins)}, "
        f"median {statistics.median(exit_origins)} per fact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
