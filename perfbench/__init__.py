"""The leakward benchmark: workloads, host-normalised timing and layer tracing.

Run one workload with

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

from the repository root; `BENCHMARK.json` lists the workloads and metrics.
"""
