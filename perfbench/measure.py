"""Timing arithmetic: the calibration loop, host-normalised times and tails.

A shared host's speed drifts by up to a half between processes and moves
within a second, so every workload time is reported in calibration units:
a file run's time divided by the time of a fixed pure-Python reference loop
run right before and right after it in the same process (the geometric mean
of the two). A file run's deviation from its median over the passes
correlated 0.72 with the deviation of the calibrations around it; across
five seeds, dividing by them instead of by the median of the run's
calibrations cut the spread of the median file time from 11% to 6% and of
the tail from 16% to 11%.

The loop does, in about equal parts, the three kinds of work the analysis
spends its time on: scans of an edge list (as `Cfg.succs`), a round-robin
fixpoint over a dict of frozensets (as the checker and must-alias), and
walking, copying and sorting small dataclass trees (as the transforms and
deepcopy). Workloads differ in how much load from other tenants slows them:
allocation-heavy ones (corpus) slow down about as much as the tree part,
edge scans (wide_method) hardly at all. Of the loops tried (trees alone,
this mix, a fixpoint over megabytes), the mix had the smallest worst-case
spread across processes: about 7% on corpus and 14% on wide_method, where
raw seconds spread 21% and 6%.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import dataclass, field

TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
CAL_SAMPLES = 3  # one calibration is the median of this many runs of the loop


@dataclass
class _Leaf:
    name: str
    val: int


@dataclass
class _Inner:
    kind: str
    kids: list = field(default_factory=list)


def _build(depth: int, i: int):
    if depth == 0:
        return _Leaf(f"x{i % 17}", i)
    return _Inner("blk" if depth % 2 else "stmt", [_build(depth - 1, i * 3 + k) for k in range(3)])


def _walk(node, env: dict) -> frozenset:
    if isinstance(node, _Leaf):
        env[node.name] = env.get(node.name, 0) + node.val
        return frozenset((node.name,))
    out: frozenset = frozenset()
    for kid in node.kids:
        out = out | _walk(kid, env)
    return out


def _edge_scans() -> int:
    edges = [(i, (i * 7 + 3) % 300, "n" if i % 5 else "x") for i in range(300)]
    edges += [(i, i + 1, "n") for i in range(299)]
    total = 0
    for n in range(0, 300, 3):
        total += len([t for (f, t, k) in edges if f == n and k == "n"])
        total += len([f for (f, t, _k) in edges if t == n])
    return total


def _fixpoint() -> int:
    succs = {i: [(i * 7 + 3) % 200, (i + 1) % 200] for i in range(200)}
    facts = {i: frozenset() for i in range(200)}
    for rnd in range(5):
        for i in range(200):
            out = facts[i] | {f"v{(i + rnd) % 23}"}
            for s in succs[i]:
                facts[s] = facts[s] | out
    return sum(len(v) for v in facts.values())


def _trees() -> int:
    tree = _build(5, 1)
    env: dict = {}
    names = _walk(tree, env)
    ranked = sorted(env.items(), key=lambda kv: (kv[1], kv[0]))
    return len(names) + len(copy.deepcopy(tree).kids) + len([k for k, v in ranked if v % 2])


def calibration_work() -> int:
    """The fixed reference work; its result is consumed so none is skipped."""
    return _edge_scans() + _fixpoint() + _trees()


def snapshot() -> float:
    """Seconds one run of the reference work takes now."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the reference work takes now: the median of CAL_SAMPLES runs,
    so that one preempted run does not count."""
    samples = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        calibration_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile that
    has at least TAIL_BEYOND samples above it. With fewer samples than that
    plus one there is no such percentile; the maximum is reported with the
    samples actually beyond it (none)."""
    ordered = sorted(values)
    n = len(ordered)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND  # ordered[k:] are the samples beyond ordered[k - 1]
        return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0
