import ast
import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    QUIET_QC,
    StationaryQuietScenario,
    assert_spd,
    bank_updates,
    default_p0,
    imu_stream,
    initial_filter_bank,
    quiet_earth,
    solo_run,
)

import cteskf
from cteskf import filter as kf
from cteskf import lie, sim, verify
from cteskf.errorstate import (
    ErrorParam,
    InjectionMode,
    process_noise,
    relation_matrix,
    system_matrix,
    transformation_matrix,
)
from cteskf.filter import (
    CHUNK,
    FilterDivergence,
    FilterState,
    Strategy,
    _RECORDED,
    _canonical_correction,
    _gain_and_update,
    mechanize_sequence,
    mixed_sensor_strategy,
    propagate_covariance_sequence,
    run_filter,
    state_difference,
    step_observation,
)
from cteskf.ins import EarthModel, ImuSample, NavState, EARTH_RADIUS
from cteskf.sensors import Observation
from hypothesis import given
from hypothesis import strategies as st

EKF = ErrorParam.ADDITIVE_EKF
LEFT = ErrorParam.LEFT_INVARIANT
RIGHT = ErrorParam.RIGHT_INVARIANT


def simple_filter(param=EKF, qc=None, strategy=None, earth=None, p_scale=1.0):
    earth = earth or quiet_earth()
    x = NavState(np.eye(3), np.zeros(3), np.array([100.0, 50.0, 20.0]))
    p = p_scale * np.diag(np.concatenate([np.full(3, 1e-4), np.full(3, 0.01), np.full(3, 1.0), np.full(3, 1e-10), np.full(3, 1e-8)]))
    return FilterState(
        x, p, param, strategy or Strategy(), InjectionMode.FIRST_ORDER,
        qc if qc is not None else np.zeros((12, 12)), earth,
    )


def correlated_filter():
    """A retraction-injection filter whose covariance couples attitude and
    velocity."""
    fs = simple_filter()
    fs.injection = InjectionMode.RETRACTION
    fs.P[0:3, 3:6] = fs.P[3:6, 0:3] = 5e-4 * np.eye(3)
    return fs


def gnss(time, vel, sigma):
    """A GNSS velocity fix with the same sigma on every axis."""
    return Observation("gnss_vel", time, vel, np.full(3, sigma))


def updated(fs, obs, strategy=None):
    """One filter after step_observation on it as a bank of one, with its
    own strategy or ``strategy``."""
    if strategy is not None:
        fs = replace(fs, strategy=strategy)
    return step_observation(fs.select(None), obs).select(0)


def stepwise_mechanization(x0, gyro, accel, dt, earth) -> list:
    """The state after each step, from one-step mechanize_sequence calls."""
    x, out = x0, []
    for g, a in zip(gyro, accel):
        atts, vels, poss = mechanize_sequence(x, g[None], a[None], dt, earth)
        x = NavState(atts[1], vels[1], poss[1], x.bg, x.ba, x.time + dt)
        out.append(x)
    return out


def covariance_step(param, p, x, gyro, accel, dt, qc, earth):
    """One step of P <- (I + F dt) P (I + F dt)^T + G Qc G^T dt, F and G from
    system_matrix at the pre-step state and bias-corrected sample."""
    sm = system_matrix(param, x, ImuSample(0.0, gyro - x.bg, accel - x.ba), earth, qc)
    phi = np.eye(15) + sm.F * dt
    p = phi @ p @ phi.T + sm.G @ sm.Qc @ sm.G.T * dt
    return (p + p.T) / 2.0


def stepwise_run(fs, imu, observations) -> list:
    """Reference for run_filter, one step at a time: the filter state after
    each step and the updates that follow it."""
    pending = sorted(observations, key=lambda o: o.time)
    out, j, dt = [fs], 0, imu.dt
    for g, a in zip(imu.gyro, imu.accel):
        (x,) = stepwise_mechanization(fs.x, g[None], a[None], dt, fs.earth)
        fs = replace(fs, x=x, P=covariance_step(fs.param, fs.P, fs.x, g, a, dt, fs.qc, fs.earth))
        while j < len(pending) and pending[j].time <= x.time + 0.5 * dt:
            fs = updated(fs, pending[j])
            j += 1
        out.append(fs)
    return out


def propagated(fs, n=1, dt=0.01):
    """The filter state run_filter reaches after n zero-rate IMU steps, read
    at a pass-through update after the last step."""
    seen = []
    imu = imu_stream(dt, np.zeros((n, 3)), np.zeros((n, 3)), fs.x.time)
    last = [gnss(imu.t[-1], np.zeros(3), 0.2)]
    solo_run(fs, imu, last, lambda before, after: seen.append(after), update=lambda f, obs: f)
    return seen[0]


class TestPropagate:
    def test_zero_noise_zero_dynamics_keeps_zero_covariance(self):
        out = propagated(simple_filter(p_scale=0.0))
        np.testing.assert_array_equal(out.P, np.zeros((15, 15)))

    def test_scalar_riccati_analogue(self):
        # the same first-order discrete recursion on a 1-state system must
        # track the closed-form Riccati solution
        f, q, p0, tau, steps = -0.25, 0.04, 1.0, 1e-3, 1000
        p = p0
        for _ in range(steps):
            p = (1.0 + f * tau) * p * (1.0 + f * tau) + q * tau
        t = steps * tau
        expected = np.exp(2 * f * t) * (p0 + q / (2 * f)) - q / (2 * f)
        assert abs(p - expected) / expected < 1e-4

    def test_covariance_grows_with_noise(self):
        qc = process_noise(1e-8, 1e-6, 1e-15, 1e-13)
        fs = simple_filter(qc=qc)
        out = propagated(fs)
        assert np.trace(out.P) > np.trace(fs.P)
        assert_spd(out.P)

    def test_nonfinite_covariance_ends_run(self):
        fs = simple_filter()
        fs.P[0, 0] = np.inf
        run = solo_run(fs, imu_stream(0.01, np.zeros((5, 3)), np.zeros((5, 3))), [])
        assert run.diverged == "state or covariance became non-finite at t=0.010 (ekf)"
        assert len(run.t) == 1


class TestUpdatePlain:
    def test_zero_gain_limit(self):
        fs = simple_filter()
        obs = gnss(0.0, np.array([1.0, 2.0, 3.0]), 1e6)
        out = updated(fs, obs)
        assert state_difference(out.x, fs.x) < 1e-9
        assert abs(np.trace(out.P) - np.trace(fs.P)) / np.trace(fs.P) < 1e-6

    def test_gain_structure_block_diagonal_p(self):
        fs = simple_filter()
        h = np.zeros((3, 15))
        h[:, 3:6] = np.eye(3)
        k, _ = _gain_and_update(fs.P, h, 0.04 * np.eye(3))
        # only rows coupled to the velocity block respond
        np.testing.assert_allclose(k[0:3], 0.0, atol=1e-15)
        np.testing.assert_allclose(k[6:15], 0.0, atol=1e-15)
        assert np.linalg.norm(k[3:6]) > 0.0

    def test_gain_relation_between_parameterizations(self):
        # K_a = A K_b when the predicted covariances are equivalent
        earth = quiet_earth()
        rng = np.random.default_rng(0)
        x = NavState(lie.so3_exp(rng.normal(size=3)), rng.normal(size=3), rng.normal(scale=50, size=3))
        p_ekf = default_p0(x.att, np.radians([5.0, 5.0, 10.0]))
        from cteskf.sensors import noise_covariance, observation_matrix

        obs = gnss(0.0, np.zeros(3), 0.2)
        r = noise_covariance(obs)
        for target in (LEFT, RIGHT):
            a = relation_matrix(EKF, target, x, earth)
            k_b, _ = _gain_and_update(p_ekf, observation_matrix(EKF, x, "gnss_vel", earth), r)
            k_a, _ = _gain_and_update(a @ p_ekf @ a.T, observation_matrix(target, x, "gnss_vel", earth), r)
            assert np.abs(a @ k_b - k_a).max() < 1e-10 * max(1.0, np.abs(k_a).max())

    def test_singular_innovation_rejected(self):
        fs = simple_filter(p_scale=0.0)
        obs = gnss(0.0, np.zeros(3), 1e-12)
        fs.P[3, 3] = 1e12  # wildly anisotropic
        with pytest.raises(FilterDivergence):
            updated(fs, obs)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_correction_rejected(self, bad):
        # attitude-velocity cross terms carry a non-finite velocity
        # innovation into the attitude correction, which has no canonical
        # representative under retraction injection
        fs = correlated_filter()
        with pytest.raises(FilterDivergence, match=r"gnss_vel observation at t=0\.250"):
            updated(fs, gnss(0.25, np.array([bad, 0.0, 0.0]), 0.2))

    @pytest.mark.parametrize("speed", [1e10, 1e20, 1e300])
    def test_huge_correction_wraps_in_one_step(self, speed):
        # the wrap used to take |xi|/2pi passes; run in a child process so a
        # hang fails on the timeout instead of stalling the suite.  At 1e300
        # the squared norm overflows, so the norm must not be formed from it
        fs = correlated_filter()
        obs = gnss(0.0, np.array([speed, 0.0, 0.0]), 0.2)
        code = (
            "import pickle, sys\n"
            "from cteskf.filter import step_observation\n"
            "fs, obs = pickle.load(sys.stdin.buffer)\n"
            "x = step_observation(fs.select(None), obs).x\n"
            "print(abs(x.vel[0, 0]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps((fs, obs)),
            capture_output=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(lie.__file__).parents[1])),
        )
        assert done.returncode == 0, done.stderr.decode()
        assert float(done.stdout) > 0.1 * speed

    def test_correction_of_norm_pi_diverges(self):
        # at exactly pi both signs are the same rotation, and the loop that
        # wrapped it flipped the sign forever
        xi = np.zeros(15)
        xi[0:3] = [0.0, np.pi, 0.0]
        with pytest.raises(FilterDivergence, match=r"norm pi from the gnss_vel observation at t=0\.250"):
            _canonical_correction(xi, gnss(0.25, np.zeros(3), 0.2), InjectionMode.RETRACTION)

    @given(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: math.hypot(*a) > 0.1),
        st.floats(np.pi, 4.0 * np.pi, exclude_max=True),
    )
    def test_wrapped_correction_keeps_rotation(self, axis, norm):
        xi = np.zeros(15)
        xi[0:3] = norm * np.array(axis) / math.hypot(*axis)
        xi[3:] = np.arange(12.0)
        obs = gnss(0.0, np.zeros(3), 0.2)
        try:
            out = _canonical_correction(xi, obs, InjectionMode.RETRACTION)
        except FilterDivergence:
            assert abs(math.remainder(np.linalg.norm(xi[0:3]), 2.0 * np.pi)) > np.pi - 1e-12
            return
        assert np.linalg.norm(out[0:3]) < np.pi
        np.testing.assert_allclose(lie.so3_exp(out[0:3]), lie.so3_exp(xi[0:3]), rtol=0, atol=1e-14)
        assert np.array_equal(out[3:], xi[3:])
        # first-order injection has no reading of a correction at or beyond pi
        if math.hypot(*xi[0:3]) < np.pi:
            assert np.array_equal(_canonical_correction(xi, obs, InjectionMode.FIRST_ORDER), xi)
            return
        with pytest.raises(FilterDivergence, match="first-order attitude correction at or beyond pi"):
            _canonical_correction(xi, obs, InjectionMode.FIRST_ORDER)

    def test_indefinite_innovation_rejected(self):
        # well conditioned but negative definite: the Cholesky factor fails
        fs = simple_filter(p_scale=0.0)
        fs.P[3:6, 3:6] = -np.eye(3)
        obs = gnss(0.0, np.zeros(3), 0.1)
        with pytest.raises(np.linalg.LinAlgError):
            updated(fs, obs)


class TestUpdateSwitch:
    def test_same_target_degenerates_to_plain(self):
        fs = simple_filter()
        obs = gnss(0.0, np.array([0.1, 0.0, 0.0]), 0.2)
        out_plain = updated(fs, obs)
        out_switch = updated(fs, obs, Strategy("switch", {"gnss_vel": EKF}))
        assert np.array_equal(out_plain.P, out_switch.P)
        for name in ("att", "vel", "pos", "bg", "ba"):
            assert np.array_equal(getattr(out_plain.x, name), getattr(out_switch.x, name)), name

    def test_switch_tracks_native_filter(self):
        # dual-filter oracle for the effectiveness of the covariance switch
        scen = StationaryQuietScenario(20.0, 100.0, seed=11, gnss_rate=1.0)
        bank = initial_filter_bank(
            scen.x0,
            scen.p0,
            [
                (EKF, Strategy("switch", {"gnss_vel": LEFT})),
                (LEFT, Strategy("plain")),
            ],
            QUIET_QC,
            scen.earth,
        )
        epochs = bank_updates(bank, scen.imu, scen.obs)
        assert max(state_difference(sw.x, native.x) for (_, sw), (_, native) in epochs) < 1e-8

    def test_backward_switch_at_predicted_state_is_ineffective(self):
        # with the backward switch at the predicted state the filter is
        # exactly the plain one, covariance included (criterion 04, shortened)
        result = verify.check_switch_ineffectiveness(duration=10.0, tol=1e-12)
        assert result.passed, result.line()

    def test_switch_ineffectiveness_fails_without_compared_updates(self, monkeypatch):
        # no observation before the run ends: the scenario itself is
        # rejected, since the check could compare nothing
        with pytest.raises(ValueError, match="obs_start_s"):
            verify.check_switch_ineffectiveness(duration=0.5, tol=1e-12)

        # a witness run that diverges
        def diverging(*args, **kwargs):
            raise FilterDivergence("witness diverged")

        monkeypatch.setattr(verify, "step_observation", diverging)
        result = verify.check_switch_ineffectiveness(duration=10.0, tol=1e-12)
        assert not result.passed and result.detail == "witness diverged"


class TestUpdateTransform:
    def test_zero_innovation_gives_identity_transform(self):
        fs = simple_filter()
        fs.injection = InjectionMode.FIRST_ORDER
        obs = gnss(0.0, np.zeros(3), 0.2)
        out_plain = updated(fs, obs)
        out_ct = updated(fs, obs, Strategy("transform", {"gnss_vel": LEFT}))
        transform = transformation_matrix(EKF, LEFT, out_plain.x, fs.x, fs.earth)
        np.testing.assert_allclose(transform, np.eye(15), atol=1e-12)
        np.testing.assert_allclose(out_ct.P, out_plain.P, atol=1e-12)

    def test_state_identical_to_plain(self):
        fs = simple_filter()
        obs = gnss(0.0, np.array([0.3, -0.1, 0.2]), 0.2)
        out_plain = updated(fs, obs)
        out_ct = updated(fs, obs, Strategy("transform", {"gnss_vel": LEFT}))
        for name in ("att", "vel", "pos", "bg", "ba"):
            assert np.array_equal(getattr(out_plain.x, name), getattr(out_ct.x, name)), name

    def test_transform_equals_switch_over_run(self, short_quiet_scenario):
        scen = short_quiet_scenario
        bank = initial_filter_bank(
            scen.x0,
            scen.p0,
            [(EKF, mixed_sensor_strategy("transform")), (EKF, mixed_sensor_strategy("switch"))],
            QUIET_QC,
            scen.earth,
        )
        epochs = bank_updates(bank, scen.imu, scen.obs)
        worst_x = max(state_difference(ct.x, sw.x) for (_, ct), (_, sw) in epochs)
        worst_p = max(np.linalg.norm(ct.P - sw.P) / np.linalg.norm(sw.P) for (_, ct), (_, sw) in epochs)
        assert worst_x < 1e-10
        assert worst_p < 1e-10

    def test_ct_tracks_native_target_filter(self, short_quiet_scenario):
        scen = short_quiet_scenario
        # GNSS-only stream for the left pairing, ODO-only for the right
        for kind, target in (("gnss_vel", LEFT), ("odo", RIGHT)):
            sub = StationaryQuietScenario(
                15.0, 100.0, seed=17,
                gnss_rate=1.0 if kind == "gnss_vel" else 0.0,
                odo_rate=10.0 if kind == "odo" else 0.0,
            )
            bank = initial_filter_bank(
                sub.x0,
                sub.p0,
                [(EKF, Strategy("transform", {kind: target})), (target, Strategy("plain"))],
                QUIET_QC,
                sub.earth,
            )
            epochs = bank_updates(bank, sub.imu, sub.obs)
            assert max(state_difference(ct.x, native.x) for (_, ct), (_, native) in epochs) < 1e-8


def first_update(bank, samples, observations):
    """Run a bank through the same data and return the largest state
    discrepancy at the first update, the covariance relation residual
    P_a+ = A(x_pred) P_b+ A(x_pred)^T there, and the state discrepancy at each
    later update."""
    epochs = bank_updates(bank, samples, observations)
    diffs = [max(state_difference(ref.x, after.x) for _, after in rest) for (_, ref), *rest in epochs]
    (ref_before, ref), *rest = epochs[0]
    residual = 0.0
    for _, after in rest:
        a = relation_matrix(after.param, ref.param, ref_before.x, ref.earth)
        residual = max(residual, float(np.linalg.norm(ref.P - a @ after.P @ a.T) / max(np.linalg.norm(ref.P), 1e-300)))
    return diffs[0], residual, diffs[1:]


class TestFirstUpdateIdentity:
    def test_equivalent_inits_updates_identically(self):
        scen = StationaryQuietScenario(2.0, 100.0, seed=19, gnss_rate=1.0)
        bank = initial_filter_bank(
            scen.x0, scen.p0,
            [(EKF, Strategy()), (LEFT, Strategy()), (RIGHT, Strategy())],
            QUIET_QC, scen.earth,
        )
        max_state_diff, residual, _ = first_update(bank, scen.imu, scen.obs)
        assert max_state_diff < 1e-9
        assert residual < 1e-9

    def test_non_equivalent_inits_diverge(self):
        # negative control: every filter gets the same raw covariance matrix
        scen = StationaryQuietScenario(2.0, 100.0, seed=23, att_err_deg=(30.0, 30.0, 60.0), gnss_rate=1.0)
        # large velocity uncertainty so the raw-matrix mismatch matters
        scen.p0[3:6, 3:6] = np.eye(3) * 4.0
        bank = [
            FilterState(scen.x0.copy(), scen.p0.copy(), p, Strategy(), InjectionMode.FIRST_ORDER, QUIET_QC, scen.earth)
            for p in (EKF, LEFT, RIGHT)
        ]
        # make the innovation large enough to expose the mismatch
        obs = [gnss(1.0, np.array([8.0, -6.0, 4.0]), 0.2)]
        max_state_diff, _, _ = first_update(bank, scen.imu, obs)
        assert max_state_diff > 1e-3

    def test_divergence_onset_after_first_update(self):
        # under full dynamics the filters coincide at the first update and
        # then drift apart
        earth = EarthModel(gravity_mode="spherical")
        pos0 = np.array([EARTH_RADIUS, 0.0, 0.0])
        att_t = np.column_stack([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).astype(float)
        err = np.radians([60.0, 60.0, 120.0])
        att0 = att_t @ lie.so3_exp(err)
        x0 = NavState(att0, np.zeros(3), pos0.copy())
        truth_gyro = att_t.T @ earth.omega_ie
        truth_f = att_t.T @ (-earth.gravity(pos0))
        dt = 1.0 / 200.0
        imu = imu_stream(dt, np.tile(truth_gyro, (600, 1)), np.tile(truth_f, (600, 1)))
        imu_later = imu_stream(dt, imu.gyro[200:], imu.accel[200:], t0=1.0)
        obs = [gnss(1.0, np.zeros(3), 0.2), gnss(2.0, np.zeros(3), 0.2), gnss(3.0, np.zeros(3), 0.2)]

        # run the additive filter through all three updates; at its first
        # update map the predicted covariance into the other
        # parameterization, which establishes exact equivalence at the
        # pre-update instant, update it there and run it on from that epoch
        fs = FilterState(x0, default_p0(att0, err), EKF, Strategy(), InjectionMode.FIRST_ORDER, QUIET_QC, earth)
        (ekf_log,) = zip(*bank_updates([fs], imu, obs))
        pre, ekf_first = ekf_log[0]

        def first_and_later_diffs(param):
            (other,) = initial_filter_bank(pre.x, pre.P, [(param, Strategy())], QUIET_QC, earth)
            other_first = updated(other, obs[0])
            (other_later,) = zip(*bank_updates([other_first], imu_later, obs[1:]))
            later = [state_difference(e.x, o.x) for (_, e), (_, o) in zip(ekf_log[1:], other_later)]
            return state_difference(ekf_first.x, other_first.x), later

        max_state_diff, subsequent_diffs = first_and_later_diffs(LEFT)
        assert max_state_diff < 1e-9
        # from the second update onward the estimates are no longer identical
        assert len(subsequent_diffs) == 2
        assert subsequent_diffs[0] > max_state_diff

        # the right-invariant representation at ECEF position magnitudes with
        # radian-level attitude uncertainty spans ~17 decades in P; double
        # precision floors its update identity near 1e-5 here
        max_state_diff_r, _ = first_and_later_diffs(RIGHT)
        assert max_state_diff_r < 1e-3


class TestRunFilter:
    DT = 0.01

    def samples(self, n=10):
        return imu_stream(self.DT, np.zeros((n, 3)), np.zeros((n, 3)))

    @pytest.mark.parametrize("dt", [0.0, -0.01, 0.75, np.inf, np.nan])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="propagation step"):
            solo_run(simple_filter(), imu_stream(dt, np.zeros((10, 3)), np.zeros((10, 3))), [])

    def test_observation_at_sample_time_applied_after_that_step(self):
        # observations given out of order are applied in time order, each
        # right after the step that ends at its time stamp
        obs = [gnss(0.07, np.array([0.1, 0.0, 0.0]), 0.2), gnss(0.03, np.array([0.0, 0.1, 0.0]), 0.2)]
        times = []
        run = solo_run(simple_filter(), self.samples(), obs, lambda before, after: times.append(before.x.time))
        np.testing.assert_allclose(times, [0.03, 0.07], rtol=0, atol=1e-12)
        plain = solo_run(simple_filter(), self.samples(), [])
        np.testing.assert_array_equal(run.vel[:3], plain.vel[:3])
        assert not np.array_equal(run.vel[3], plain.vel[3])
        np.testing.assert_array_equal(run.t, np.arange(11) * self.DT)

    def test_observation_after_last_sample_not_applied(self):
        updates = []
        run = solo_run(
            simple_filter(), self.samples(), [gnss(0.2, np.ones(3), 0.2)],
            lambda before, after: updates.append(after),
        )
        plain = solo_run(simple_filter(), self.samples(), [])
        assert updates == [] and run.diverged is None
        for name in ("att", "vel", "pos", "p_trace"):
            np.testing.assert_array_equal(getattr(run, name), getattr(plain, name))

    def test_single_filter_rejected(self):
        # run_filter takes a bank only, as step_observation does
        with pytest.raises(ValueError, match=r"fs.select\(None\)"):
            run_filter(simple_filter(), self.samples(), [], lambda before, after: pytest.fail("updated"))

    def test_every_update_is_within_half_a_step_of_its_stamp(self):
        # the schedule is the one observation-time check: a fix on a sample,
        # just under dt/2 after or before one, or at exactly +dt/2 reaches
        # the state of that sample, also after a member of the bank leaves
        # (the fourth fix ends member 1); dt is exact in binary, so the bound
        # is checked without rounding
        dt, n = 0.125, 12
        stamps = [
            2 * dt, 3 * dt, 4 * dt + dt / 2, np.nextafter(5 * dt + dt / 2, -np.inf),
            np.nextafter(7 * dt - dt / 2, np.inf), 8 * dt, np.nextafter(9 * dt + dt / 2, -np.inf),
            np.nextafter(11 * dt - dt / 2, np.inf), 11 * dt + dt / 2,
        ]
        samples = [2, 3, 4, 5, 7, 8, 9, 11, 11]
        value = np.zeros((2, 3))
        value[1, 0] = np.inf
        obs = [gnss(t, value if i == 3 else np.zeros(3), 0.2) for i, t in enumerate(stamps)]
        seen = []
        bank = simple_filter().select(None).select([0, 0])
        runs = run_filter(
            bank, imu_stream(dt, np.zeros((n, 3)), np.zeros((n, 3))), obs,
            lambda before, after: seen.append((len(before.P), before.x.time)),
        )
        assert [len(r.t) for r in runs] == [n + 1, 5] and "non-finite correction" in runs[1].diverged
        assert seen == [(2 if i < 3 else 1, k * dt) for i, k in enumerate(samples)]
        assert all(abs(time - stamp) <= dt / 2 for (_, time), stamp in zip(seen, stamps))

    def test_observation_before_first_epoch_rejected(self):
        # the first propagated epoch is t=0.01: an observation stamped before
        # t=0.005 matches no epoch
        fs = simple_filter()
        obs = [gnss(0.03, np.zeros(3), 0.2), gnss(0.004, np.ones(3), 0.2)]
        with pytest.raises(ValueError, match=r"gnss_vel observation at t=0\.004 precedes the first propagated epoch"):
            solo_run(fs, self.samples(), obs, lambda before, after: pytest.fail("updated"))
        times = []
        solo_run(
            fs, self.samples(), [gnss(0.005, np.ones(3), 0.2)], lambda before, after: times.append(before.x.time)
        )
        np.testing.assert_allclose(times, [0.01], rtol=0, atol=1e-12)

    def test_update_argument_applies_every_observation(self):
        # a counting wrapper around the default update is called once per
        # applied observation and leaves the run bit-identical
        obs = [gnss(0.03, np.array([0.1, 0.0, 0.0]), 0.2), gnss(0.07, np.array([0.0, 0.1, 0.0]), 0.2),
               gnss(0.2, np.ones(3), 0.2)]
        applied = []

        def counting(fs, o):
            applied.append(o.time)
            return step_observation(fs, o)

        fs = simple_filter(strategy=mixed_sensor_strategy())
        run = solo_run(fs, self.samples(), obs, update=counting)
        default = solo_run(fs, self.samples(), obs)
        assert applied == [0.03, 0.07]
        for name in ("t", "att", "vel", "pos", "p_trace"):
            assert np.array_equal(getattr(run, name), getattr(default, name)), name

    def test_update_argument_sees_a_bank_of_one(self):
        # a custom update of a single filter gets what step_observation
        # takes, the bank of one that run_filter runs, and returns one
        seen = []

        def update(bank, o):
            seen.append((bank.P.shape, bank.x.att.shape, bank.x.vel.shape))
            return step_observation(bank, o)

        run = solo_run(simple_filter(), self.samples(), [gnss(0.03, np.ones(3), 0.2)], update=update)
        assert seen == [((1, 15, 15), (1, 3, 3), (1, 3))]
        assert run.diverged is None and len(run.t) == 11

    @pytest.mark.parametrize("fix", [np.array([0.1, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0])], ids=["ok", "diverges"])
    def test_record_names_the_recorded_fields(self, fix):
        # an attitude-only record holds the full record's attitudes, also
        # for a run that diverges at its fifth step, and None elsewhere
        obs = [gnss(0.03, np.array([0.0, 0.1, 0.0]), 0.2), gnss(0.05, fix, 0.2)]
        full = solo_run(correlated_filter(), self.samples(), obs)
        lean = solo_run(correlated_filter(), self.samples(), obs, record=("att",))
        assert lean.diverged == full.diverged
        np.testing.assert_array_equal(lean.t, full.t)
        np.testing.assert_array_equal(lean.att, full.att)
        assert lean.vel is None and lean.pos is None and lean.p_trace is None

    @pytest.mark.parametrize("record", [("att", "bg"), ("ba",), ("attitude",)])
    def test_unknown_record_field_rejected(self, record):
        obs = [gnss(0.03, np.ones(3), 0.2)]
        with pytest.raises(ValueError, match="cannot record"):
            solo_run(
                simple_filter(), self.samples(), obs, lambda before, after: pytest.fail("updated"), record=record
            )

    def test_run_fields_are_the_recorded_arrays(self):
        # the divergence message is an attribute outside the fields, so a
        # field-by-field copy of a run copies arrays only, and keeps it
        obs = [gnss(0.05, np.array([np.inf, 0.0, 0.0]), 0.2)]
        run = solo_run(correlated_filter(), self.samples(), obs)
        assert [f.name for f in fields(run)] == ["t", *_RECORDED]
        copy = replace(run, **{f.name: getattr(run, f.name).copy() for f in fields(run)})
        assert copy.diverged == run.diverged and "non-finite correction" in run.diverged

    def test_divergence_returns_trimmed_run(self):
        # a non-finite observation at the fifth step ends the run after four
        obs = [gnss(0.05, np.array([np.inf, 0.0, 0.0]), 0.2)]
        run = solo_run(correlated_filter(), self.samples(), obs)
        assert "non-finite correction from the gnss_vel observation at t=0.050" in run.diverged
        assert len(run.t) == len(run.att) == len(run.p_trace) == 5
        assert np.isfinite(run.att).all() and np.isfinite(run.vel).all()
        np.testing.assert_array_equal(run.t, np.arange(5) * self.DT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("param", [EKF, LEFT, RIGHT])
    def test_nonfinite_imu_sample_ends_run_at_its_step(self, param, bad):
        # the bad sample of the step ending at t=0.07 lies inside the segment
        # between the observations at t=0.03 and t=0.1
        imu = self.samples()
        imu.gyro[6, 1] = bad
        obs = [gnss(0.03, np.zeros(3), 0.2), gnss(0.1, np.zeros(3), 0.2)]
        base = simple_filter()
        (fs,) = initial_filter_bank(base.x, base.P, [(param, Strategy())], QUIET_QC, base.earth)
        run = solo_run(fs, imu, obs)
        assert run.diverged == f"state or covariance became non-finite at t=0.070 ({param.value})"
        assert len(run.t) == len(run.att) == len(run.p_trace) == 7
        assert np.isfinite(run.att).all() and np.isfinite(run.vel).all() and np.isfinite(run.p_trace).all()
        np.testing.assert_array_equal(run.t, np.arange(7) * self.DT)


class TestSegmentEngine:
    """run_filter, which propagates whole segments between observations,
    against the stepwise reference."""

    @staticmethod
    def _filter_and_inputs(variant, imu_rate, duration, gnss_rate):
        # desk-scale coordinates: at ECEF magnitudes the right-invariant
        # updates amplify rounding differences beyond these tolerances
        cfg = sim.ScenarioConfig(
            duration=duration, radius=100.0, imu_rate=imu_rate, use_gnss=gnss_rate > 0.0, gnss_rate=gnss_rate or 1.0,
            init_att_err_deg=(5.0, 5.0, 10.0), seed=3, anchor="origin", gravity_mode="constant",
        )
        sc = sim.synthesize(cfg)
        param, strategy = sim.variant_config(variant)
        a0 = relation_matrix(EKF, param, sc.x0, sc.earth)
        fs = FilterState(sc.x0, a0 @ sc.p0 @ a0.T, param, strategy, cfg.injection_mode(), cfg.imu.qc(), sc.earth)
        return fs, sc.imu, sc.gnss

    @staticmethod
    def _assert_matches(run, reference):
        assert run.diverged is None and len(run.t) == len(reference)
        np.testing.assert_allclose(run.att, [f.x.att for f in reference], rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.vel, [f.x.vel for f in reference], rtol=0, atol=1e-9)
        np.testing.assert_allclose(run.pos, [f.x.pos for f in reference], rtol=0, atol=1e-7)
        traces = [f.P.diagonal().reshape(5, 3).sum(axis=1) for f in reference]
        np.testing.assert_allclose(run.p_trace, traces, rtol=1e-10)

    @pytest.mark.parametrize("variant", ["ekf", "l-inekf", "r-inekf", "ct-ekf"])
    @pytest.mark.parametrize("segment", [1, 3, 20])
    def test_segments_match_stepwise(self, segment, variant):
        # GNSS every `segment` IMU steps from t = 1 s on
        fs, imu, obs = self._filter_and_inputs(variant, 60.0, 2.0, 60.0 / segment)
        self._assert_matches(solo_run(fs, imu, obs), stepwise_run(fs, imu, obs))

    @pytest.mark.parametrize("variant", ["ekf", "l-inekf", "r-inekf"])
    def test_run_without_observations_longer_than_a_chunk(self, variant):
        fs, imu, obs = self._filter_and_inputs(variant, 100.0, 11.0, 0.0)
        assert obs == [] and len(imu.t) > CHUNK
        self._assert_matches(solo_run(fs, imu, []), stepwise_run(fs, imu, []))


class TestFilterBank:
    """run_filter on a bank of members that share the IMU and observation
    grids, against a run of each member alone: the same bits."""

    SEEDS = (3, 4, 5)
    FIELDS = ("t", "att", "vel", "pos", "p_trace")

    @staticmethod
    def _config(injection="retraction"):
        """A short GNSS plus odometry scenario at Earth scale."""
        return sim.ScenarioConfig(
            duration=3.0, radius=100.0, imu_rate=50.0, use_odo=True, gnss_rate=2.0,
            init_att_err_deg=(30.0, 30.0, 100.0), obs_start_s=0.5, injection=injection,
        )

    @staticmethod
    def _filter(cfg, variant, sc):
        """The variant's filter, or bank, from a scenario's initial estimate."""
        param, strategy = sim.variant_config(variant)
        a0 = relation_matrix(EKF, param, sc.x0, sc.earth)
        return FilterState(
            sc.x0, a0 @ sc.p0 @ a0.swapaxes(-1, -2), param, strategy, cfg.injection_mode(), cfg.imu.qc(), sc.earth
        )

    @classmethod
    def _members(cls, variant, seeds=SEEDS, injection="retraction"):
        """Filter, IMU and observations of each seed's solo scenario."""
        cfg = cls._config(injection)
        members = []
        for seed in seeds:
            sc = sim.synthesize(replace(cfg, seed=seed))
            members.append((cls._filter(cfg, variant, sc), sc.imu, sc.gnss + sc.odo))
        return members

    @classmethod
    def _bank(cls, variant, seeds=SEEDS, injection="retraction"):
        """Filter bank, IMU and observations of the seeds' members, drawn at
        once by synthesize(cfg, members)."""
        cfg = cls._config(injection)
        sc = sim.synthesize(cfg, [(cfg.init_att_err_deg[2], seed) for seed in seeds])
        return cls._filter(cfg, variant, sc), sc.imu, sc.gnss + sc.odo

    def _assert_solo(self, run, member):
        fs, imu, observations = member
        solo = solo_run(fs, imu, observations)
        assert run.diverged == solo.diverged
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(run, name), getattr(solo, name), err_msg=name)
        return solo

    @pytest.mark.parametrize("variant", sim.VARIANTS)
    def test_bank_equals_solo_runs(self, variant):
        members = self._members(variant)
        fs, imu, observations = self._bank(variant)
        runs = run_filter(fs, imu, observations)
        assert len(runs) == len(members)
        for run, member in zip(runs, members):
            assert run.diverged is None and len(run.t) == len(imu.t) + 1
            self._assert_solo(run, member)

    @pytest.mark.parametrize("variant", sim.VARIANTS)
    def test_nonfinite_gyro_ends_only_its_member(self, variant):
        members = self._members(variant)
        fs, imu, observations = self._bank(variant)
        members[1][1].gyro[61, 2] = imu.gyro[1, 61, 2] = np.nan  # the step that ends at t=1.24
        runs = run_filter(fs, imu, observations)
        param = sim.variant_config(variant)[0]
        assert runs[1].diverged == f"state or covariance became non-finite at t=1.240 ({param.value})"
        assert len(runs[1].t) == 62
        assert [r.diverged for r in runs[::2]] == [None, None]
        for run, member in zip(runs, members):
            self._assert_solo(run, member)

    @pytest.mark.parametrize("variant", sim.VARIANTS)
    @pytest.mark.parametrize(
        "bad, injection, kind, vel, message",
        [
            (0, "retraction", "odo", [np.inf, 0.0, 0.0], "non-finite correction"),
            # on the correlated covariance after the first fixes, a 10 km/s
            # velocity innovation commands an attitude correction beyond pi
            (1, "first-order", "gnss_vel", [1e4, 0.0, 0.0], "first-order attitude correction at or beyond pi"),
        ],
        ids=["inf-odo", "first-order-beyond-pi"],
    )
    def test_nonfinite_observation_ends_only_its_member(self, variant, bad, injection, kind, vel, message):
        # the members left after a failed update apply the same observation
        members = self._members(variant, injection=injection)
        fs, imu, stacked = self._bank(variant, injection=injection)
        observations = members[bad][2]
        idx = next(i for i, o in enumerate(observations) if o.kind == kind and o.time > 2.0)
        obs = observations[idx]
        observations[idx] = replace(obs, value=np.array(vel))
        stacked[idx].value[bad] = vel
        runs = run_filter(fs, imu, stacked)
        expected = f"{message} from the {kind} observation at t={obs.time:.3f}"
        assert [run.diverged for run in runs] == [expected if i == bad else None for i in range(len(runs))]
        for run, member in zip(runs, members):
            self._assert_solo(run, member)

    def test_members_must_share_the_observation_grid(self):
        # observations drawn for two members do not fit a bank of three
        fs, imu, _ = self._bank("ekf")
        _, _, observations = self._bank("ekf", seeds=self.SEEDS[:2])
        with pytest.raises(ValueError, match="member rows"):
            run_filter(fs, imu, observations, lambda before, after: pytest.fail("updated"))

    @pytest.mark.parametrize("variant", ["ekf", "r-inekf", "ct-ekf"])
    def test_bank_matches_solo_runs_across_segment_boundaries(self, variant, monkeypatch):
        # with 4-step segments the odometry's 5-step intervals are cut inside,
        # and a bank of three propagates its covariances one step per call
        monkeypatch.setattr(kf, "CHUNK", 4)
        members = self._members(variant)
        fs, imu, observations = self._bank(variant)
        for run, member in zip(run_filter(fs, imu, observations), members):
            assert run.diverged is None
            self._assert_solo(run, member)


class TestStrategyDispatch:
    def test_mixed_strategy_targets(self):
        st = mixed_sensor_strategy()
        assert st.kind == "transform" and st.targets == {"gnss_vel": LEFT, "odo": RIGHT}

    @pytest.mark.parametrize("kind", ["switch", "transform"])
    def test_kind_without_target_runs_plain(self, kind):
        # an observation kind the target map leaves out is updated in the
        # filter's own parameterization
        fs = simple_filter()
        obs = Observation("odo", 0.0, np.array([0.1, -0.2, 0.05]), np.full(3, 0.1))
        out_plain = updated(fs, obs)
        out = updated(fs, obs, Strategy(kind, {"gnss_vel": LEFT}))
        assert np.array_equal(out_plain.P, out.P) and np.array_equal(out_plain.x.att, out.x.att)

    def test_single_filter_rejected(self):
        # a bank of one is the one form: a direct single-filter update could
        # differ from it in the last bits
        fs = simple_filter()
        with pytest.raises(ValueError, match=r"fs.select\(None\)"):
            step_observation(fs, gnss(0.0, np.zeros(3), 0.2))

    def test_unknown_strategy_kind_rejected_when_built(self):
        # before the first observation, not after a propagated segment
        with pytest.raises(ValueError, match="unknown strategy kind 'smooth'"):
            Strategy("smooth")

    def test_one_update_path(self):
        # step_observation is the one update: nothing else in the package
        # refers to the gain or the injection, so no second path can fork
        names = {"_gain_and_update", "inject_error"}
        found = set()

        class Refs(ast.NodeVisitor):
            def __init__(self):
                self.scope = ["<module>"]

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            def visit_Name(self, node):
                if node.id in names:
                    found.add((path.name, self.scope[-1], node.id))

            def visit_Attribute(self, node):
                if node.attr in names:
                    found.add((path.name, self.scope[-1], node.attr))
                self.generic_visit(node)

        for path in sorted(Path(cteskf.__file__).parent.glob("*.py")):
            Refs().visit(ast.parse(path.read_text()))
        assert found == {("filter.py", "step_observation", name) for name in names}


class TestBatchHelpers:
    def test_mechanize_matches_stepwise(self):
        earth = EarthModel(gravity_mode="spherical")
        rng = np.random.default_rng(29)
        x0 = NavState(lie.so3_exp(rng.normal(size=3)), rng.normal(size=3), np.array([EARTH_RADIUS, 0.0, 0.0]),
                      bg=rng.normal(scale=1e-4, size=3), ba=rng.normal(scale=1e-3, size=3))
        n, dt = 400, 0.005
        gyro = rng.normal(scale=0.1, size=(n, 3))
        accel = rng.normal(scale=1.0, size=(n, 3)) + np.array([0.0, 0.0, 9.8])
        atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
        x = stepwise_mechanization(x0, gyro, accel, dt, earth)[-1]
        np.testing.assert_allclose(atts[-1], x.att, atol=1e-12)
        np.testing.assert_allclose(vels[-1], x.vel, atol=1e-9)
        np.testing.assert_allclose(poss[-1], x.pos, atol=1e-7)

    @staticmethod
    def _earth_scale_run(n, dt=0.005, seed=31):
        earth = EarthModel(gravity_mode="spherical")
        rng = np.random.default_rng(seed)
        x0 = NavState(lie.so3_exp(rng.normal(size=3)), rng.normal(size=3), np.array([EARTH_RADIUS, 0.0, 0.0]))
        gyro = rng.normal(scale=0.1, size=(n, 3))
        accel = rng.normal(scale=1.0, size=(n, 3))
        return earth, x0, gyro, accel, dt

    @staticmethod
    def _stepwise_covariances(param, p0, x0, gyro, accel, dt, qc, earth):
        states = [x0] + stepwise_mechanization(x0, gyro, accel, dt, earth)
        out = [p0]
        for x, g, a in zip(states, gyro, accel):
            out.append(covariance_step(param, out[-1], x, g, a, dt, qc, earth))
        return out

    @pytest.mark.parametrize("param", [EKF, LEFT, RIGHT])
    def test_covariance_sequence_matches_stepwise(self, param, monkeypatch):
        qc = process_noise(1e-8, 1e-6, 1e-15, 1e-13)
        # one chunk; then an odd step count over chunks of 12 whose last one
        # holds 11 steps, so the composition folds odd leftovers at several levels
        for n, chunk in ((200, 1024), (203, 12)):
            monkeypatch.setattr(kf, "CHUNK", chunk)
            earth, x0, gyro, accel, dt = self._earth_scale_run(n)
            atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
            p0 = default_p0(x0.att, np.radians([5.0, 5.0, 10.0]))
            a = relation_matrix(EKF, param, x0, earth)
            p_fast, _ = propagate_covariance_sequence(
                param, a @ p0 @ a.T, atts, vels, poss, gyro, accel, np.zeros(3), np.zeros(3), dt, qc, earth
            )
            p_step = self._stepwise_covariances(param, a @ p0 @ a.T, x0, gyro, accel, dt, qc, earth)[-1]
            np.testing.assert_allclose(p_fast, p_step, rtol=1e-10, atol=1e-12 * np.abs(p_step).max())

    def test_covariance_sequence_recording(self, monkeypatch):
        earth = quiet_earth()
        n, dt = 100, 0.01
        gyro = np.zeros((n, 3))
        accel = np.zeros((n, 3))
        x0 = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
        qc = process_noise(1e-8, 1e-6, 1e-15, 1e-13)
        _, history = propagate_covariance_sequence(
            EKF, np.eye(15), atts, vels, poss, gyro, accel, np.zeros(3), np.zeros(3), dt, qc, earth, record_every=50
        )
        assert len(history) == 3  # steps 0, 50, 100
        assert np.trace(history[-1]) > np.trace(history[0])

        # snapshots are the stepwise covariances at their steps, also when
        # record_every does not divide the step count (no final snapshot) and
        # when segments cross chunk boundaries
        earth, x0, gyro, accel, dt = self._earth_scale_run(n)
        atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
        p0 = default_p0(x0.att, np.radians([5.0, 5.0, 10.0]))
        for param in (EKF, LEFT, RIGHT):
            a = relation_matrix(EKF, param, x0, earth)
            stepwise = self._stepwise_covariances(param, a @ p0 @ a.T, x0, gyro, accel, dt, qc, earth)
            for every, chunk in ((50, 1024), (30, 16), (7, 16)):
                monkeypatch.setattr(kf, "CHUNK", chunk)
                _, history = propagate_covariance_sequence(
                    param, a @ p0 @ a.T, atts, vels, poss, gyro, accel, np.zeros(3), np.zeros(3), dt, qc, earth,
                    record_every=every,
                )
                expected = stepwise[::every]
                assert len(history) == len(expected) == n // every + 1
                for got, want in zip(history, expected):
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
