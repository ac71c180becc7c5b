"""Set-up probe, run in a fresh interpreter by run.py.

Prints the seconds spent importing ``cteskf`` plus building the workload's
inputs, which is everything a run pays before its first timed call.

    python3 perfbench/probe.py WORKLOAD SEED OUT_DIR
"""

import sys
import time

t0 = time.perf_counter()
import os  # noqa: E402

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(root, "src"), root]
import cteskf  # noqa: E402,F401

t1 = time.perf_counter()
from perfbench.workloads import WORKLOADS  # noqa: E402

t2 = time.perf_counter()
WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), sys.argv[3])
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
