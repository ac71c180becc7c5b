"""Benchmark of the cteskf filter engine.

    python3 perfbench/run.py --workload nav-200hz --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload for at least ``--seconds`` seconds in this
process, checks every round's outputs, and prints one JSON object as the
last line of standard output:

* ``--trace 0``: the end-to-end metrics ``imu_steps_per_s`` (median over
  rounds), ``peak_rss_mib`` and ``setup_s`` (median of fresh-process
  set-up probes, half run before the rounds and half after);
* ``--trace 1``: each round untraced, then again with every public
  function of the traced modules wrapped; per-layer metrics from the spans,
  and the tracing overhead.  The spans are written to
  ``perfbench/out/trace-<workload>.npz``.

Run it from the repository root; the program is imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import cteskf from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cteskf", "__init__.py")):
        sys.exit(f"perfbench: no program at {SRC}/cteskf; run from the repository root")
    sys.path[:0] = [SRC, ROOT]
    import cteskf

    if os.path.dirname(os.path.dirname(os.path.abspath(cteskf.__file__))) != SRC:
        sys.exit(f"perfbench: imported cteskf from {cteskf.__file__}, not from {SRC}")


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Fresh-process set-up times (import plus input building), one per probe."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), OUT],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_round(wl, ctx, r, tracer=None):
    """Round r's timed calls, traced if a tracer is given, then its checks."""
    if tracer is not None:
        tracer.install()
    try:
        rnd = wl.timed(ctx, r)
    finally:
        if tracer is not None:
            tracer.uninstall()
    fails = wl.check(ctx, rnd)
    rnd.outputs = None
    return rnd, fails


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import layers, tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    # half the set-up probes run before the rounds and half after, so that
    # their median spans the run rather than one moment of the machine
    probes = 0 if args.trace else SETUP_PROBES
    setup = setup_seconds(wl.name, args.seed, probes // 2)
    ctx = wl.prepare(args.seed, OUT)

    # a traced run follows each untraced round with the same round traced,
    # so the machine's speed drifts alike for both halves of the overhead
    tr = tracer.Tracer() if args.trace else None
    rounds, traced, fails = [], [], []
    phases = [(rounds, None)] + ([(traced, tr)] if tr else [])
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        for log, tracing in phases:
            rnd, round_fails = run_round(wl, ctx, len(log), tracing)
            log.append(rnd)
            fails += round_fails
    setup += setup_seconds(wl.name, args.seed, probes - probes // 2)
    attempted = sum(r.attempted for r in rounds + traced)
    failed = sum(r.failed for r in rounds + traced)
    rates = [r.steps / r.seconds for r in rounds]
    print(f"{wl.name}: {len(rounds)} rounds, {sum(r.steps for r in rounds)} filter-steps, "
          f"{statistics.median(rates):.1f} steps/s median")

    if tr:
        untraced_s = sum(r.seconds for r in rounds)
        traced_s = sum(r.seconds for r in traced)
        overhead = 100.0 * (traced_s - untraced_s) / untraced_s
        spans = tr.log.arrays()
        tr.log.save(os.path.join(OUT, f"trace-{wl.name}.npz"))
        summary = tracer.summarize(**spans)
        work = {}
        for r in traced:
            for key, value in r.work.items():
                work[key] = work.get(key, 0) + value
        metrics = layers.layer_metrics(summary, len(traced), work, overhead)
        shares = layers.layer_shares(summary, traced_s)
        report = {
            "workload": wl.name, "seed": args.seed, "rounds": len(traced), "spans": len(tr.log),
            "untraced_s": untraced_s, "traced_s": traced_s, "self_share": shares, "layers": summary,
        }
        with open(os.path.join(OUT, f"trace-{wl.name}.json"), "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"traced {len(traced)} rounds, {len(tr.log)} spans, overhead {overhead:.1f}%; self-time shares: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        metrics = {
            "imu_steps_per_s": {"value": statistics.median(rates), "unit": "filter-steps/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    for line in fails:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
