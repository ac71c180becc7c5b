"""Span recording, self-time arithmetic and the per-layer metrics."""

import numpy as np

import cteskf
from cteskf import errorstate, lie
from cteskf.errorstate import ErrorParam
from cteskf.ins import EarthModel, ImuSample, NavState
from perfbench import layers, tracer


def test_self_times_of_nested_spans():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,9]; e [11,12] stands alone
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    np.testing.assert_allclose(tracer.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])


def test_summarize_groups_by_name():
    names = np.array(["outer", "inner"])
    name_id = np.array([0, 1, 1, 0])
    parent = np.array([-1, 0, 0, -1])
    start = np.array([0.0, 1.0, 3.0, 10.0])
    end = np.array([5.0, 2.0, 4.5, 11.0])
    s = tracer.summarize(names, name_id, parent, start, end)
    assert s["outer"] == {"calls": 2, "total_s": 6.0, "self_s": 3.5}
    assert s["inner"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}


def test_span_log_records_parents():
    log = tracer.SpanLog()
    inner = log.wrap("m.inner", lambda x: x + 1)
    outer = log.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    a = log.arrays()
    assert list(a["names"][a["name_id"]]) == ["m.outer", "m.inner", "m.inner"]
    assert list(a["parent"]) == [-1, 0, 0]
    assert (a["end"] >= a["start"]).all()
    assert a["start"][0] <= a["start"][1] and a["end"][2] <= a["end"][0]


def test_tracer_wraps_every_lookup_name_and_restores_it():
    original_skew = lie.skew
    tr = tracer.Tracer()
    x = NavState(np.eye(3), np.ones(3), np.array([6.4e6, 0.0, 0.0]))
    u = ImuSample(0.0, np.array([0.01, 0.0, 0.0]), np.array([0.0, 0.0, 9.8]))
    earth = EarthModel()
    tr.install()
    try:
        # errorstate calls skew through its own global, bound by "from .lie import skew"
        assert errorstate.skew is not original_skew and lie.skew is not original_skew
        errorstate.system_matrix(ErrorParam.RIGHT_INVARIANT, x, u, earth)
        cteskf.lie.so3_exp(np.array([0.1, 0.2, 0.3]))
    finally:
        tr.uninstall()
    assert errorstate.skew is original_skew and lie.skew is original_skew
    a = tr.log.arrays()
    names = list(a["names"][a["name_id"]])
    assert names[0] == "errorstate.system_matrix" and names[-1] == "lie.so3_exp"
    nested = [n for n, p in zip(names, a["parent"]) if p == 0]
    assert "lie.skew" in nested and "ins.vel_frame_convert" in nested
    assert a["parent"][-1] == -1


def test_layer_metrics_per_call_per_step_and_per_round():
    summary = {
        "filter.propagate": {"calls": 200, "total_s": 0.03, "self_s": 0.01},
        "sim.run_scenario": {"calls": 2, "total_s": 0.05, "self_s": 0.004},
        "sim.synthesize_imu": {"calls": 2, "total_s": 0.2, "self_s": 0.2},
        "sim.generate_truth": {"calls": 2, "total_s": 0.1, "self_s": 0.1},
        "io.write_estimates": {"calls": 2, "total_s": 0.5, "self_s": 0.4},
    }
    work = {"sim.run_scenario": 200, "io.write_estimates": 2 * 1024 * 1024}
    m = layers.layer_metrics(summary, 2, work, 12.5)
    assert set(m) == set(layers.TABLE)
    assert m["filter.propagate.calls"]["value"] == 100
    assert np.isclose(m["filter.propagate.self_us"]["value"], 50.0)
    assert np.isclose(m["sim.run_scenario.self_us_per_step"]["value"], 20.0)
    assert np.isclose(m["sim.synthesis.s"]["value"], 0.15)
    assert np.isclose(m["io.write_estimates.s"]["value"], 0.25)
    assert np.isclose(m["io.write_estimates.mib_per_s"]["value"], 4.0)
    assert m["filter.mechanize_sequence.s"]["value"] == 0.0
    assert m["trace.overhead_pct"]["value"] == 12.5
    shares = layers.layer_shares(summary, 1.0)
    assert np.isclose(shares["sim"], 0.304) and np.isclose(shares["untraced"], 1.0 - 0.714)
