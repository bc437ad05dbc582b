#!/usr/bin/env python3
"""Census of CFG lowerings: how many nodes of each instruction kind (a `Nop`
by its tag) and how many edges of each kind the lowerings of the corpus and
of `generate_source(0..N-1)` hold, one lowering per member.

Usage: python scripts/cfg_census.py [N]    (N defaults to 600)
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from leakward import cfg as C
from leakward.fuzz import fuzz_libspec, generate_source
from leakward.libspec import load_library_spec
from leakward.parser import parse


def census(programs) -> tuple[int, Counter, Counter]:
    """(lowerings, nodes by kind, edges by kind) over `programs`, a list of
    (program, libspec)."""
    lowerings, nodes, edges = 0, Counter(), Counter()
    for prog, lib in programs:
        for cls in prog.classes:
            for meth in cls.all_methods():
                g = C.lower(prog, cls, meth, lib)
                lowerings += 1
                nodes.update(f"Nop({ins.tag})" if isinstance(ins, C.Nop) else type(ins).__name__ for ins in g.nodes)
                edges.update(kind for _f, _t, kind in g.edges)
    return lowerings, nodes, edges


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("count", nargs="?", type=int, default=600)
    args = ap.parse_args()
    corpus_lib = load_library_spec((ROOT / "corpus" / "minij.libspec").read_text())
    groups = {
        "corpus": [(parse(p.read_text(), p.name), corpus_lib) for p in sorted((ROOT / "corpus").glob("*.mj"))],
        f"fuzz 0..{args.count - 1}": [
            (parse(generate_source(seed), f"fuzz{seed}.mj"), fuzz_libspec()) for seed in range(args.count)
        ],
    }
    for name, programs in groups.items():
        lowerings, nodes, edges = census(programs)
        print(f"{name}: {lowerings} lowerings, {sum(nodes.values())} nodes, {sum(edges.values())} edges")
        for kind, count in sorted(nodes.items()):
            print(f"  node {kind:18} {count:7}")
        for kind, count in sorted(edges.items()):
            print(f"  edge {kind:18} {count:7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
