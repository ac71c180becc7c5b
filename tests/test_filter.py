import ast
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    QUIET_QC,
    TRACE_SLACK,
    StationaryQuietScenario,
    assert_spd,
    bank_updates,
    default_p0,
    imu_stream,
    initial_filter_bank,
    quiet_earth,
    solo_run,
    traced_call,
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
    step_observation,
)
from cteskf.ins import EarthModel, ImuSample, NavState, EARTH_RADIUS
from cteskf.sensors import Observation
from cteskf.verify import state_difference
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
        # well conditioned but negative definite: the signed eigenvalue check
        # ends the member, as a singular innovation covariance does
        fs = simple_filter(p_scale=0.0)
        fs.P[3:6, 3:6] = -np.eye(3)
        obs = gnss(0.0, np.zeros(3), 0.1)
        with pytest.raises(FilterDivergence, match="innovation covariance is not positive definite") as raised:
            updated(fs, obs)
        assert list(raised.value.members) == [0]


class TestBatchedGain:
    @staticmethod
    def _problem(rng, cond):
        """A covariance, observation matrix and noise whose innovation
        covariance is a randomly oriented SPD matrix of condition number
        about ``cond``: the noise has that spectrum, and H P H^T is small
        beside its smallest eigenvalue."""
        q = np.linalg.qr(rng.normal(size=(15, 15)))[0]
        p = q @ np.diag(np.geomspace(1e-5 / cond, 1e-2 / cond, 15)) @ q.T
        v = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        return p, rng.normal(size=(3, 15)), (v * np.geomspace(1.0 / cond, 1.0, 3)) @ v.T

    def test_agrees_with_cholesky_reference(self):
        from scipy.linalg import cho_factor, cho_solve

        rng = np.random.default_rng(7)
        for cond in np.geomspace(1.0, 1e10, 21):
            p, h, r = self._problem(rng, cond)
            k, p_new = _gain_and_update(p, h, r)
            s = h @ p @ h.T + r
            s = (s + s.T) / 2.0
            ref = cho_solve(cho_factor(s), h @ p).T
            cond_s = np.linalg.cond(s)
            assert cond_s > 0.5 * cond
            # two backward-stable solves can differ by rounding times the
            # condition number of s; 1e-12 floors that bound
            bound = 1e-12 + cond_s * np.finfo(float).eps
            assert np.linalg.norm(k - ref) <= bound * np.linalg.norm(ref), cond
            ref_p = p - ref @ h @ p
            assert np.linalg.norm(p_new - (ref_p + ref_p.T) / 2.0) <= bound * np.linalg.norm(p)

    def test_bank_member_gets_its_solo_bits(self):
        rng = np.random.default_rng(8)
        bank = [self._problem(rng, cond) for cond in (1.0, 1e2, 1e5, 1e8, 1e10)]
        k, p = _gain_and_update(*(np.stack(a) for a in zip(*bank)))
        for i, member in enumerate(bank):
            k_solo, p_solo = _gain_and_update(*member)
            assert k[i].tobytes() == k_solo.tobytes() and p[i].tobytes() == p_solo.tobytes()


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

    def test_observations_never_applied_are_logged_per_kind(self, caplog):
        # the ten samples end at t=0.1: fixes stamped after t=0.105 are
        # never applied, and one debug record per call counts them by kind
        odo = Observation("odo", 0.3, np.zeros(3), np.full(3, 0.1))
        obs = [gnss(0.2, np.ones(3), 0.2), gnss(0.05, np.ones(3), 0.2), odo, gnss(0.104, np.ones(3), 0.2),
               gnss(0.11, np.ones(3), 0.2)]
        caplog.set_level("DEBUG", logger="cteskf")
        solo_run(simple_filter(), self.samples(), obs)
        (record,) = caplog.records
        assert record.name == "cteskf.filter" and record.levelname == "DEBUG"
        assert record.getMessage() == (
            "observations never applied, stamped after the last sample's time plus dt/2, t=0.105: 2 gnss_vel, 1 odo"
        )
        caplog.clear()
        solo_run(simple_filter(), self.samples(), obs[1::2])
        assert caplog.records == []

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

    @pytest.mark.parametrize("sample, bad", [("gyro", np.nan), ("gyro", np.inf), ("accel", 1e200)])
    @pytest.mark.parametrize("param", [EKF, LEFT, RIGHT])
    def test_nonfinite_imu_sample_ends_run_at_its_step(self, param, sample, bad):
        # the bad sample of the step ending at t=0.07 lies inside the segment
        # between the observations at t=0.03 and t=0.1.  A non-finite rate
        # makes that step's state non-finite; a huge specific force keeps
        # the state finite and overflows only the covariance, at that step,
        # or at the next for the right-invariant F, which does not read the
        # force.  An attitude-only record checks each segment's final
        # covariance and searches the steps only when that check fails: it
        # ends at the same step, with the same message, as a full record
        imu = self.samples()
        getattr(imu, sample)[6, 1] = bad
        obs = [gnss(0.03, np.zeros(3), 0.2), gnss(0.1, np.zeros(3), 0.2)]
        base = simple_filter()
        (fs,) = initial_filter_bank(base.x, base.P, [(param, Strategy())], QUIET_QC, base.earth)
        rows = 8 if sample == "accel" and param is RIGHT else 7
        run = solo_run(fs, imu, obs)
        assert run.diverged == f"state or covariance became non-finite at t={rows / 100:.3f} ({param.value})"
        assert len(run.t) == len(run.att) == len(run.p_trace) == rows
        assert np.isfinite(run.att).all() and np.isfinite(run.vel).all() and np.isfinite(run.p_trace).all()
        np.testing.assert_array_equal(run.t, np.arange(rows) * self.DT)
        lean = solo_run(fs, imu, obs, record=("att",))
        assert lean.diverged == run.diverged
        assert lean.t.tobytes() == run.t.tobytes() and lean.att.tobytes() == run.att.tobytes()

    @pytest.mark.parametrize("param", [EKF, LEFT, RIGHT])
    def test_nonfinite_covariance_in_a_later_piece_ends_run_at_its_step(self, param, monkeypatch):
        # three members and a CHUNK of 8 member-steps cut the segment of
        # steps 3 to 9 into pieces of two steps.  The huge specific force of
        # step 6 (the second piece) overflows only the covariance, at that
        # step or, for the right-invariant F, at step 7 (the third piece).
        # The piece's final covariance is not finite, so its steps are run
        # again from its first covariance, checking each: every member ends
        # at that step, with the same message, whatever the record holds
        monkeypatch.setattr(kf, "CHUNK", 8)
        imu = self.samples()
        imu.accel[6, 1] = 1e200
        obs = [gnss(0.03, np.zeros(3), 0.2), gnss(0.1, np.zeros(3), 0.2)]
        base = simple_filter()
        (fs,) = initial_filter_bank(base.x, base.P, [(param, Strategy())], QUIET_QC, base.earth)
        bank = fs.select(None).select([0, 0, 0])
        rows = 8 if param is RIGHT else 7
        message = f"state or covariance became non-finite at t={rows / 100:.3f} ({param.value})"
        full = run_filter(bank, imu, obs)
        lean = run_filter(bank, imu, obs, record=("att",))
        for run, att_only in zip(full, lean):
            assert run.diverged == att_only.diverged == message
            assert len(run.t) == len(run.p_trace) == rows and np.isfinite(run.p_trace).all()
            assert att_only.t.tobytes() == run.t.tobytes() and att_only.att.tobytes() == run.att.tobytes()

    def test_overflowing_symmetrization_ends_run_at_the_segment_end(self):
        # each step's covariance is finite, but the segment's one
        # symmetrization, (P + P^T)/2, overflows on the attitude variance
        # 1e308: the run ends at the segment's last step, before its update
        fs = simple_filter()
        fs.P[0, 0] = 1e308
        obs = [gnss(0.05, np.zeros(3), 0.2)]
        run = solo_run(fs, self.samples(), obs, lambda before, after: pytest.fail("updated"))
        assert run.diverged == "state or covariance became non-finite at t=0.050 (ekf)"
        assert len(run.t) == len(run.p_trace) == 5 and np.isfinite(run.p_trace).all()

    @pytest.mark.parametrize("first_row", [0, 1, 3, 4, 7, 10])
    def test_first_row_records_the_later_rows(self, first_row):
        # row k holds the state after k steps, whatever the first recorded
        # row; the observations at t=0.03 and t=0.07 end segments on rows 3
        # and 7
        obs = [gnss(0.03, np.array([0.1, 0.0, 0.0]), 0.2), gnss(0.07, np.array([0.0, 0.1, 0.0]), 0.2)]
        full = solo_run(correlated_filter(), self.samples(), obs)
        late = solo_run(correlated_filter(), self.samples(), obs, first_row=first_row)
        assert late.diverged is None
        for name in ("t", *_RECORDED):
            assert getattr(late, name).tobytes() == getattr(full, name)[first_row:].tobytes(), name

    @pytest.mark.parametrize("first_row", [-1, 11])
    def test_first_row_outside_the_record_rejected(self, first_row):
        with pytest.raises(ValueError, match="first recorded row"):
            solo_run(
                simple_filter(), self.samples(), [], lambda before, after: pytest.fail("updated"), first_row=first_row
            )

    def test_run_that_ends_before_the_first_row_records_nothing(self):
        # the divergence at the fifth step ends the run after rows 0 to 4
        obs = [gnss(0.05, np.array([np.inf, 0.0, 0.0]), 0.2)]
        run = solo_run(correlated_filter(), self.samples(), obs, first_row=7)
        assert "non-finite correction" in run.diverged
        assert len(run.t) == len(run.att) == len(run.p_trace) == 0


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

    def test_one_covariance_recursion_per_use(self):
        # run_filter steps the covariance itself and only
        # propagate_covariance_sequence composes: _compose has that one
        # caller, and nothing that run_filter reaches calls the composition
        tree = ast.parse(Path(kf.__file__).read_text())
        refs = {
            node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert {name for name, used in refs.items() if "_compose" in used} == {"propagate_covariance_sequence"}
        reached, todo = set(), ["run_filter"]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += [used for used in refs[name] if used in refs]
        assert "_covariances" in reached and "propagate_covariance_sequence" not in reached


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

    def test_indefinite_innovation_ends_only_its_member(self):
        # member 1's velocity variance is negative, so its innovation
        # covariance at the fix is negative definite; member 0 runs on
        solo = simple_filter()
        bad = simple_filter()
        bad.P[3:6, 3:6] = -np.eye(3)
        fs = replace(solo, x=NavState.stack([solo.x, bad.x]), P=np.stack([solo.P, bad.P]))
        imu = imu_stream(0.01, np.zeros((10, 3)), np.zeros((10, 3)))
        observations = [gnss(0.05, np.array([0.1, 0.0, 0.0]), 0.1)]
        runs = run_filter(fs, imu, observations)
        assert runs[1].diverged.startswith("innovation covariance is not positive definite")
        assert len(runs[1].t) == 5
        alone = solo_run(solo, imu, observations)
        assert runs[0].diverged is None and len(runs[0].t) == 11
        for name in self.FIELDS:
            assert getattr(runs[0], name).tobytes() == getattr(alone, name).tobytes(), name

    def test_nonfinite_innovation_covariance_ends_only_its_member(self):
        # member 1's covariance is finite, but at 30 m/s its odometry
        # innovation covariance H P H^T overflows: it ends at the fix before
        # any eigenvalue is sought, without an overflow warning (a warning
        # fails this suite), and member 0 runs on with its solo bits
        solo = simple_filter()
        solo.x.vel = np.array([30.0, 0.0, 0.0])
        fs = replace(solo, x=NavState.stack([solo.x, solo.x]), P=np.stack([solo.P, 1e306 * np.eye(15)]))
        imu = imu_stream(0.01, np.zeros((10, 3)), np.zeros((10, 3)))
        observations = [Observation("odo", 0.05, np.array([30.0, 0.0, 0.0]), np.full(3, 0.1))]
        runs = run_filter(fs, imu, observations)
        assert runs[1].diverged == "innovation covariance is not finite"
        assert len(runs[1].t) == 5
        alone = solo_run(solo, imu, observations)
        assert runs[0].diverged is None and len(runs[0].t) == 11
        for name in self.FIELDS:
            assert getattr(runs[0], name).tobytes() == getattr(alone, name).tobytes(), name

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


class TestMidpointForms:
    """mechanize_sequence runs the midpoint rule on member arrays for banks
    of at least MIDPOINT_COLUMNS members and on floats below; a member gets
    the same bits from either."""

    @pytest.mark.parametrize("mode", ["constant", "spherical", "normal"])
    def test_both_forms_give_a_member_its_solo_bits(self, mode, monkeypatch):
        forms = []
        for name in ("_midpoint_floats", "_midpoint_columns"):
            form = getattr(kf, name)
            monkeypatch.setattr(kf, name, lambda *args, form=form, name=name: forms.append(name) or form(*args))
        # a tilted rotation axis fills every term of omega_ie x v and of
        # (omega_ie x)^2 r, so each sum runs over three nonzero terms
        earth = EarthModel(omega_ie=7.292115e-5 * np.array([2.0, -3.0, 6.0]) / 7.0, gravity_mode=mode)
        rng = np.random.default_rng(43)
        size, n, dt = kf.MIDPOINT_COLUMNS, 25, 0.02
        x0 = NavState(
            lie.so3_exp(rng.normal(size=(size, 3))), rng.normal(scale=20.0, size=(size, 3)),
            np.array([EARTH_RADIUS, 0.0, 0.0]) + rng.normal(scale=1e5, size=(size, 3)),
            rng.normal(scale=1e-4, size=(size, 3)), rng.normal(scale=1e-2, size=(size, 3)),
        )
        gyro = rng.normal(scale=0.2, size=(size, n, 3))
        accel = rng.normal(scale=2.0, size=(size, n, 3)) + np.array([0.0, 0.0, 9.8])
        # a bank at the switch, and one a member smaller, straddle it
        bank = mechanize_sequence(x0, gyro, accel, dt, earth)
        smaller = mechanize_sequence(x0.select(slice(1, None)), gyro[1:], accel[1:], dt, earth)
        assert forms[:2] == ["_midpoint_columns", "_midpoint_floats"]
        for i in range(size):
            solo = mechanize_sequence(x0.select(i), gyro[i], accel[i], dt, earth)
            for got, want in zip(bank, solo):
                assert got[i].tobytes() == want.tobytes()
            if i:
                for got, want in zip(smaller, solo):
                    assert got[i - 1].tobytes() == want.tobytes()


class TestPiecewiseMechanization:
    """mechanize_sequence works a leg in pieces of CHUNK steps with the bits
    of one whole-leg piece, and holds beyond its histories only one level of
    the attitude prefix product and one piece's temporaries: it keeps the
    last piece's half increments and evaluates the others again.  The
    covariance composition of propagate_covariance_sequence over such a leg
    holds one piece's temporaries beyond its result."""

    @staticmethod
    def _leg(size, n, seed):
        """A bank of ``size`` members at Earth scale over n steps."""
        rng = np.random.default_rng(seed)
        x0 = NavState(
            lie.so3_exp(rng.normal(size=(size, 3))), rng.normal(scale=20.0, size=(size, 3)),
            np.array([EARTH_RADIUS, 0.0, 0.0]) + rng.normal(scale=1e5, size=(size, 3)),
            rng.normal(scale=1e-4, size=(size, 3)), rng.normal(scale=1e-2, size=(size, 3)),
        )
        return x0, rng.normal(scale=0.2, size=(size, n, 3)), rng.normal(scale=2.0, size=(size, n, 3)) + [0.0, 0.0, 9.8]

    @pytest.mark.parametrize("size", [1, kf.MIDPOINT_COLUMNS])
    @pytest.mark.parametrize("mode", ["constant", "spherical", "normal"])
    def test_pieces_keep_the_bits(self, mode, size, monkeypatch):
        # a bank of one runs the float midpoint rule, a bank of
        # MIDPOINT_COLUMNS the column one; 100 steps in pieces of 7 leave a
        # piece of 2, and pieces of 99 one of 1
        earth = EarthModel(omega_ie=7.292115e-5 * np.array([2.0, -3.0, 6.0]) / 7.0, gravity_mode=mode)
        x0, gyro, accel = self._leg(size, 100, seed=53)
        whole = mechanize_sequence(x0, gyro, accel, 0.02, earth)
        for chunk in (7, 99):
            monkeypatch.setattr(kf, "CHUNK", chunk)
            for got, want in zip(mechanize_sequence(x0, gyro, accel, 0.02, earth), whole):
                assert got.tobytes() == want.tobytes()

    def test_long_leg_holds_one_piece_of_temporaries(self):
        # the bound follows the design: above its inputs, a leg peaks at its
        # histories, plus one attitude history (one level of the prefix
        # product), plus the temporaries of one piece (the half increments
        # of the last piece and of the piece at hand among them), which do
        # not grow with the leg and are bounded by what a leg of two pieces
        # holds beyond its histories (TRACE_SLACK aside); the whole-leg form
        # peaked at 5.5 times its histories on this leg, and a form that
        # keeps every step's half increments at one more attitude history
        earth = EarthModel()
        x0, gyro, accel = self._leg(1, 50_000, seed=59)
        x0, gyro, accel = x0.select(0), gyro[0], accel[0]
        m = 2 * CHUNK
        _, short_peak, short_kept = traced_call(mechanize_sequence, x0, gyro[:m], accel[:m], 5e-4, earth)
        out, peak, kept = traced_call(mechanize_sequence, x0, gyro, accel, 5e-4, earth)
        assert peak - kept <= out[0][1:].nbytes + (short_peak - short_kept) + TRACE_SLACK

    @pytest.mark.parametrize("pieces", [1, 2, 3])
    def test_half_increments_are_kept_for_the_last_piece_only(self, pieces, monkeypatch):
        # pieces of 7 over 7 pieces - 3 steps, the last piece of 4: each
        # piece's half increments are evaluated for its body rotation
        # increments, and again for its specific forces except for the last
        # piece's, 2 pieces - 1 evaluations; a one-piece leg, a run_filter
        # segment, evaluates them once
        earth = EarthModel()
        x0, gyro, accel = self._leg(1, 7 * pieces - 3, seed=61)
        earth.frame_turn(0.5 * 0.02)  # the cached Earth turn evaluates no so3_exp within the call
        rows, so3_exp = [], lie.so3_exp
        monkeypatch.setattr(lie, "so3_exp", lambda v: rows.append(v.shape[-2]) or so3_exp(v))
        monkeypatch.setattr(kf, "CHUNK", 7)
        mechanize_sequence(x0, gyro, accel, 0.02, earth)
        assert rows == [7] * (pieces - 1) + [4] + [7] * (pieces - 1)

    def test_covariance_leg_holds_one_piece_of_temporaries(self):
        # beyond its result, an r-inekf composition (a noise term per step)
        # holds the transition pairs of one piece and their composition,
        # which do not grow with the leg, so a 50k-step leg holds no more
        # than a leg of two pieces (TRACE_SLACK aside)
        earth, dt = EarthModel(), 5e-4
        x0, gyro, accel = self._leg(1, 50_000, seed=67)
        x0, gyro, accel = x0.select(0), gyro[0], accel[0]
        atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
        p0, qc = default_p0(x0.att, np.radians([5.0, 5.0, 10.0])), process_noise(1e-8, 1e-6, 1e-15, 1e-13)

        def leg(n):
            return traced_call(
                propagate_covariance_sequence, RIGHT, p0, atts[: n + 1], vels[: n + 1], poss[: n + 1],
                gyro[:n], accel[:n], x0.bg, x0.ba, dt, qc, earth,
            )

        _, short_peak, short_kept = leg(2 * CHUNK)
        _, peak, kept = leg(len(gyro))
        assert peak - kept <= short_peak - short_kept + TRACE_SLACK


class TestCovarianceSequenceInputs:
    """propagate_covariance_sequence checks its step and the lengths of its
    inputs before it builds any piece."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dt": 0.0}, "dt=0.0 s must be positive"),
            ({"dt": -0.01}, "dt=-0.01 s must be positive"),
            ({"dt": math.nan}, "dt=nan s must be positive"),
            ({"dt": kf.MAX_DT * 1.01}, f"at most {kf.MAX_DT} s"),
            ({"accel": 49}, "accel holds 49 samples where gyro holds 50"),
            ({"atts": 30}, "atts holds 30 rows, fewer than the 50 samples"),
            ({"vels": 49}, "vels holds 49 rows, fewer than the 50 samples"),
            ({"poss": 0}, "poss holds 0 rows, fewer than the 50 samples"),
        ],
    )
    def test_rejects_mismatched_inputs(self, change, message, monkeypatch):
        # a number for an array keeps that many of its rows; a failing
        # _step_pairs shows that no piece was built
        earth, dt = EarthModel(), 0.01
        rng = np.random.default_rng(71)
        gyro, accel = rng.normal(scale=0.1, size=(50, 3)), rng.normal(size=(50, 3))
        x0 = NavState(np.eye(3), np.zeros(3), np.array([EARTH_RADIUS, 0.0, 0.0]))
        atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
        args = {"atts": atts, "vels": vels, "poss": poss, "gyro": gyro, "accel": accel, "dt": dt}
        for name, value in change.items():
            args[name] = value if name == "dt" else args[name][:value]

        def no_piece(*_):
            raise AssertionError("a piece was built")

        monkeypatch.setattr(kf, "_step_pairs", no_piece)
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate_covariance_sequence(
                RIGHT, np.eye(15), args["atts"], args["vels"], args["poss"], args["gyro"], args["accel"],
                np.zeros(3), np.zeros(3), args["dt"], QUIET_QC, earth,
            )


class TestStepFreeNoise:
    """run_filter and propagate_covariance_sequence form G Qc G^T dt once per
    call when it is the same at every step, and per step otherwise."""

    DT = 0.01

    @staticmethod
    def _history(n=40, seed=47):
        """A bank of two members' state histories at Earth scale, with
        attitudes orthonormal to rounding."""
        rng = np.random.default_rng(seed)
        earth = EarthModel(gravity_mode="spherical")
        atts = lie.so3_exp(rng.normal(size=(2, n + 1, 3)))
        vels = rng.normal(scale=5.0, size=(2, n + 1, 3))
        poss = np.array([EARTH_RADIUS, 0.0, 0.0]) + rng.normal(scale=100.0, size=(2, n + 1, 3))
        x0 = NavState(
            atts[:, 0], vels[:, 0], poss[:, 0], rng.normal(scale=1e-4, size=(2, 3)), rng.normal(scale=1e-3, size=(2, 3))
        )
        gyro = rng.normal(scale=0.3, size=(2, n, 3))
        accel = rng.normal(scale=1.0, size=(2, n, 3))
        return earth, x0, atts, vels, poss, gyro, accel

    def _per_step(self, param, qc):
        """Every step's G Qc G^T dt, as the per-step path forms it."""
        earth, x0, atts, vels, poss, gyro, accel = self._history()
        x = NavState(atts[:, :-1], vels[:, :-1], poss[:, :-1])
        sm = system_matrix(param, x, ImuSample(0.0, gyro - x0.bg[:, None], accel - x0.ba[:, None]), earth)
        return (sm.G @ qc @ sm.G.swapaxes(-1, -2)) * self.DT

    @staticmethod
    def _coupled_qc():
        """Qc whose gyro noise couples to the gyro bias noise."""
        qc = sim.CONSUMER_IMU.qc()
        qc[0:3, 6:9] = qc[6:9, 0:3] = 0.5 * np.sqrt(qc[0, 0] * qc[6, 6]) * np.eye(3)
        return qc

    @staticmethod
    def _random_qc(seed=53):
        a = np.random.default_rng(seed).normal(size=(12, 12))
        return a @ a.T

    @pytest.mark.parametrize("qc", ["consumer", "coupled", "random"])
    def test_left_invariant_term_is_the_per_step_one(self, qc):
        # the left-invariant G is constant, so any Qc gives the per-step bits
        qc = {"consumer": sim.CONSUMER_IMU.qc(), "coupled": self._coupled_qc(), "random": self._random_qc()}[qc]
        w = kf._step_free_noise(LEFT, qc, self.DT)
        per_step = self._per_step(LEFT, qc)
        assert np.array_equal(np.broadcast_to(w, per_step.shape), per_step)

    def test_additive_term_agrees_to_rounding(self):
        # the per-step term rotates the noise by R, R (q I) R^T = q R R^T
        qc = sim.CONSUMER_IMU.qc()
        w = kf._step_free_noise(EKF, qc, self.DT)
        per_step = self._per_step(EKF, qc)
        err = np.linalg.norm(per_step - w, axis=(-2, -1)) / np.linalg.norm(w)
        assert 0.0 < err.max() <= 1e-15

    @pytest.mark.parametrize("param, qc", [
        (RIGHT, "consumer"), (EKF, "coupled"), (EKF, "random"), (EKF, "uneven"),
    ])
    def test_other_terms_are_formed_per_step_with_their_old_bits(self, param, qc, monkeypatch):
        # the right-invariant G depends on the state, and an additive Qc
        # whose gyro and accelerometer blocks are not multiples of I, or
        # that couples them to the bias noise, changes under R; those take
        # the per-step term, step by step as before
        uneven = sim.CONSUMER_IMU.qc()
        uneven[3, 3] *= 2.0
        qc = {"consumer": sim.CONSUMER_IMU.qc(), "coupled": self._coupled_qc(), "random": self._random_qc(),
              "uneven": uneven}[qc]
        assert kf._step_free_noise(param, qc, self.DT) is None
        self._assert_stepwise_bits(param, qc, self._per_step(param, qc), monkeypatch)

    def test_left_invariant_recursion_keeps_its_bits(self, monkeypatch):
        qc = sim.CONSUMER_IMU.qc()
        assert kf._step_free_noise(LEFT, qc, self.DT) is not None
        self._assert_stepwise_bits(LEFT, qc, self._per_step(LEFT, qc), monkeypatch)

    def _assert_stepwise_bits(self, param, qc, w, monkeypatch):
        """run_filter's covariance recursion (_covariances) equals
        P_k = ((I + F dt) P_(k-1)) (I + F dt)^T + W_k over the per-step terms
        w, symmetrized once, at the segment's end, bit for bit: every step's
        diagonal (the traced rows), and the final covariance of a segment
        that ends at each piece's end; a CHUNK of 14 member-steps cuts the
        40 steps of the bank of two into pieces of 7."""
        earth, x0, atts, vels, poss, gyro, accel = self._history()
        sm = system_matrix(
            param, NavState(atts[:, :-1], vels[:, :-1], poss[:, :-1]),
            ImuSample(0.0, gyro - x0.bg[:, None], accel - x0.ba[:, None]), earth,
        )
        phi = np.eye(15) + sm.F * self.DT
        p0 = np.stack([default_p0(a, np.radians([5.0, 5.0, 10.0])) for a in x0.att])
        monkeypatch.setattr(kf, "CHUNK", 14)
        diagonals, ends, traces, symmetrize = [], [], kf._traces, kf._symmetrize
        monkeypatch.setattr(kf, "_traces", lambda d: diagonals.append(d) or traces(d))
        monkeypatch.setattr(kf, "_symmetrize", lambda p: ends.append(symmetrize(p)) or ends[-1])
        bank = FilterState(x0, p0, param, qc=qc, earth=earth)
        w_fixed = kf._step_free_noise(param, qc, self.DT)
        p, steps = p0, []
        for k in range(gyro.shape[1]):
            p = phi[:, k] @ p @ phi[:, k].swapaxes(-1, -2) + w[:, k]
            steps.append(p)
        for m in (7, 14, 21, 28, 35, 40):
            ends.clear()
            p_end, _, finite = kf._covariances(
                bank, atts[:, : m + 1], vels[:, : m + 1], poss[:, : m + 1], gyro[:, :m], accel[:, :m], self.DT,
                w_fixed, True,
            )
            assert len(ends) == 1 and p_end is ends[0] and finite.all()
            assert p_end.tobytes() == ((steps[m - 1] + steps[m - 1].swapaxes(-1, -2)) / 2.0).tobytes(), m
            expected = np.stack([step.diagonal(axis1=-2, axis2=-1) for step in steps[:m]], axis=1)
            assert diagonals[-1].tobytes() == expected.tobytes(), m

    @pytest.mark.parametrize("param, qc", [(EKF, "consumer"), (LEFT, "consumer"), (RIGHT, "consumer"), (EKF, "random")])
    def test_bank_cut_into_pieces_gives_each_member_its_solo_bits(self, param, qc, monkeypatch):
        # a CHUNK of 14 member-steps cuts the bank of two's 40 steps into
        # pieces of 7 and each member's alone into pieces of 14
        qc = {"consumer": sim.CONSUMER_IMU.qc(), "random": self._random_qc()}[qc]
        earth, x0, atts, vels, poss, gyro, accel = self._history()
        p0 = np.stack([default_p0(a, np.radians([5.0, 5.0, 10.0])) for a in x0.att])
        monkeypatch.setattr(kf, "CHUNK", 14)
        w_fixed = kf._step_free_noise(param, qc, self.DT)
        bank = FilterState(x0, p0, param, qc=qc, earth=earth)
        together = kf._covariances(bank, atts, vels, poss, gyro, accel, self.DT, w_fixed, True)
        for i in range(2):
            alone = kf._covariances(
                bank.select([i]), atts[i : i + 1], vels[i : i + 1], poss[i : i + 1], gyro[i : i + 1],
                accel[i : i + 1], self.DT, w_fixed, True,
            )
            for got, solo in zip(together, alone):
                assert got[i].tobytes() == solo[0].tobytes()


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
