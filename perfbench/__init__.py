"""Benchmark of the cteskf filter engine: workloads, output checks and a
layer tracer.  Run it with ``python3 perfbench/run.py --workload NAME``."""
