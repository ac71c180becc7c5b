"""Per-layer metrics derived from a traced run's spans.

Counts are per round; every round of a workload runs the same operations,
so they repeat exactly.  Times are per call (``us``: inclusive, ``self_us``:
minus traced callees) or per unit of work the workload reports (IMU steps,
bytes written).  A layer a workload never calls reads 0.
"""

from __future__ import annotations

from . import tracer

SYNTHESIS = ("sim.generate_truth", "sim.synthesize_imu", "sim.synthesize_gnss", "sim.synthesize_odo")
MIB = 1024.0 * 1024.0

# name -> (unit, better, kind, traced name); kinds are read in layer_metrics
TABLE = {
    "filter.propagate.calls": ("count", "lower", "calls", "filter.propagate"),
    "filter.step_observation.calls": ("count", "lower", "calls", "filter.step_observation"),
    "filter.propagate.self_us": ("us", "lower", "self_us", "filter.propagate"),
    "errorstate.system_matrix.us": ("us", "lower", "us", "errorstate.system_matrix"),
    "ins.propagate_state.us": ("us", "lower", "us", "ins.propagate_state"),
    "filter.update_plain.self_us": ("us", "lower", "self_us", "filter.update_plain"),
    "filter.update_transform.self_us": ("us", "lower", "self_us", "filter.update_transform"),
    "errorstate.transformation_matrix.us": ("us", "lower", "us", "errorstate.transformation_matrix"),
    "filter.update_switch.self_us": ("us", "lower", "self_us", "filter.update_switch"),
    "errorstate.relation_matrix.us": ("us", "lower", "us", "errorstate.relation_matrix"),
    "errorstate.inject_error.us": ("us", "lower", "us", "errorstate.inject_error"),
    "sensors.observation_matrix.us": ("us", "lower", "us", "sensors.observation_matrix"),
    "sensors.innovation.us": ("us", "lower", "us", "sensors.innovation"),
    "sim.run_scenario.self_us_per_step": ("us/step", "lower", "self_us_per_step", "sim.run_scenario"),
    "sim.synthesis.s": ("s", "lower", "synthesis_s", None),
    "sim.synthesize_imu.calls": ("count", "lower", "calls", "sim.synthesize_imu"),
    "filter.mechanize_sequence.s": ("s", "lower", "s", "filter.mechanize_sequence"),
    "filter.propagate_covariance_sequence.us_per_step": (
        "us/step", "lower", "us_per_step", "filter.propagate_covariance_sequence",
    ),
    "io.write_estimates.s": ("s", "lower", "s", "io.write_estimates"),
    "io.write_estimates.mib_per_s": ("MiB/s", "higher", "mib_per_s", "io.write_estimates"),
    "lie.so3_exp.calls": ("count", "lower", "calls", "lie.so3_exp"),
    "lie.so3_log.calls": ("count", "lower", "calls", "lie.so3_log"),
    "trace.overhead_pct": ("%", "lower", "overhead", None),
}


def layer_metrics(summary: dict, rounds: int, work: dict, overhead_pct: float) -> dict:
    """Every metric of TABLE from a span summary (:func:`tracer.summarize`)
    of ``rounds`` traced rounds that did ``work`` in total."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, (unit, _, kind, name) in TABLE.items():
        s = summary.get(name, empty)
        if kind == "calls":
            value = ratio(s["calls"], rounds)
            value = int(value) if float(value).is_integer() else value
        elif kind == "us":
            value = ratio(s["total_s"], s["calls"]) * 1e6
        elif kind == "self_us":
            value = ratio(s["self_s"], s["calls"]) * 1e6
        elif kind == "s":
            value = ratio(s["total_s"], s["calls"])
        elif kind == "self_us_per_step":
            value = ratio(s["self_s"], work.get(name, 0)) * 1e6
        elif kind == "us_per_step":
            value = ratio(s["total_s"], work.get(name, 0)) * 1e6
        elif kind == "mib_per_s":
            value = ratio(work.get(name, 0) / MIB, s["total_s"])
        elif kind == "synthesis_s":
            value = ratio(sum(summary.get(n, empty)["total_s"] for n in SYNTHESIS), rounds)
        else:
            value = overhead_pct
        out[metric] = {"value": value, "unit": unit}
    return out


def layer_shares(summary: dict, timed_s: float) -> dict:
    """Share of the traced timed wall time spent in each layer's own code
    (self time), plus what no traced call covers."""
    shares = {layer: 0.0 for layer in tracer.LAYERS}
    for name, s in summary.items():
        shares[name.split(".", 1)[0]] += s["self_s"]
    shares["untraced"] = timed_s - sum(shares.values())
    return {k: v / timed_s for k, v in shares.items()}
