"""Input generators. The program under test receives only these sources."""

from __future__ import annotations

import json
from pathlib import Path

WIDE_METHOD_ALLOCATIONS = 20
FUZZ_REPAIR_FILES = 100
FUZZ_CHECK_FILES = 200
FUZZ_POOL_FACTOR = 10  # candidates generated per program kept


def wide_method_source(n: int) -> str:
    """One `main` with n FileInputStream allocations; every even-numbered one
    is followed by a guarded read and close, so n/2 of them leak."""
    lines = ["class Main {", "  static void main() {"]
    for k in range(n):
        lines.append(f'    FileInputStream s{k} = new FileInputStream("f{k}");')
        if k % 2 == 0:
            lines.append(f"    if (s{k} != null) {{ s{k}.read(); s{k}.close(); }}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def fuzz_batch(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` generated programs drawn from the `count * FUZZ_POOL_FACTOR`
    candidates `generate_source(seed + i)`: the candidates are sorted by
    `size_key` and cut into `count` strata of equal size, and the middle one
    of each is kept, in seed order. One program's analysis time spans two
    orders of magnitude: over distant seeds, the median file time of plain
    batches of 50 consecutive programs spread by about a quarter (quartile
    distance over median), of stratified batches of 100 by a tenth. Every
    batch spans the same range of sizes and the seed still picks the
    programs."""
    from leakward.fuzz import generate_source

    pool = sorted(range(count * FUZZ_POOL_FACTOR), key=lambda i: (size_key(generate_source(seed + i)), i))
    kept = sorted(pool[j * FUZZ_POOL_FACTOR + FUZZ_POOL_FACTOR // 2] for j in range(count))
    return [(f"fuzz{seed + i}.mj", generate_source(seed + i)) for i in kept]


def size_key(source: str) -> int:
    """Source length times allocations plus one: over 1500 generated
    programs its rank correlation with the full pipeline's time was 0.92,
    against 0.88 for the length alone."""
    return len(source) * (1 + source.count(" new "))


def corpus_files(root: Path) -> list[tuple[str, str]]:
    return [(p.name, p.read_text()) for p in sorted((root / "corpus").glob("*.mj"))]


def corpus_libspec_text(root: Path) -> str:
    return (root / "corpus" / "minij.libspec").read_text()


def corpus_golden(root: Path) -> dict:
    return json.loads((root / "corpus" / "golden" / "dispositions.json").read_text())
