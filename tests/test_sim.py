import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import TRACE_SLACK, traced_call

import cteskf
from cteskf import lie, sim, verify
from cteskf.errorstate import ErrorParam, relation_matrix
from cteskf.filter import mechanize_sequence, propagate_covariance_sequence, run_filter
from cteskf.ins import NavState
from cteskf.sim import (
    AVIATION_IMU,
    CONSUMER_IMU,
    DEG,
    VARIANTS,
    ImuSpec,
    ScenarioConfig,
    Trajectory,
    generate_truth,
    monte_carlo_sweep,
    run_scenario,
    synthesize,
    synthesize_imu,
    synthesize_observations,
    variant_config,
)

TINY_IMU = ImuSpec(1e-9, 1e-7, 1e-8, 1e-6)
PARAMS = (ErrorParam.ADDITIVE_EKF, ErrorParam.LEFT_INVARIANT, ErrorParam.RIGHT_INVARIANT)


def small_cfg(**kw):
    defaults = dict(kind="circle", duration=10.0, speed=5.0, radius=50.0, imu_rate=100.0, seed=1)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestImuSpec:
    def test_unit_conversions(self):
        # 0.15 deg/sqrt(h) -> (0.15 * pi/180 / 60) rad/sqrt(s)
        assert CONSUMER_IMU.gyro_noise_density == pytest.approx(0.15 * np.pi / 180 / 60)
        assert CONSUMER_IMU.accel_noise_density == pytest.approx(20e-6 * 9.80665)
        assert CONSUMER_IMU.gyro_bias_si == pytest.approx(2 * np.pi / 180 / 3600)
        assert CONSUMER_IMU.accel_bias_si == pytest.approx(3.6e-6 * 9.80665)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ImuSpec(0.0, 1.0, 1.0, 1.0)

    def test_qc_diagonal(self):
        qc = AVIATION_IMU.qc()
        assert np.all(np.diag(qc) >= 0)
        assert np.count_nonzero(qc - np.diag(np.diag(qc))) == 0


class TestGenerateTruth:
    def test_stationary_zero_velocity(self):
        cfg = small_cfg(kind="stationary")
        truth = generate_truth(cfg, cfg.earth())
        np.testing.assert_array_equal(truth.vel, np.zeros_like(truth.vel))

    def test_circle_speed_constant(self):
        cfg = small_cfg()
        truth = generate_truth(cfg, cfg.earth())
        speeds = np.linalg.norm(truth.vel, axis=1)
        np.testing.assert_allclose(speeds, cfg.speed, atol=1e-12)

    @pytest.mark.parametrize("kind", ["circle", "figure-eight", "waypoint"])
    def test_velocity_matches_position_derivative(self, kind):
        cfg = small_cfg(kind=kind, radius=20.0)
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        eps = 1e-4
        for t in (2.3, 5.7, 8.1):
            _, vel, pos = truth.traj.batch_states(np.array([t - eps, t, t + eps]))
            np.testing.assert_allclose((pos[2] - pos[0]) / (2 * eps), vel[1], atol=1e-6)

    @pytest.mark.parametrize("kind", ["stationary", "circle", "figure-eight", "waypoint"])
    def test_leg_slices_split_times_at_leg_starts(self, kind):
        traj = Trajectory(small_cfg(kind=kind, radius=1.0))
        ts = np.linspace(0.0, 10.0, 1001)
        pairs = list(traj._leg_slices(ts))
        assert len(pairs) == sum(leg.t0 <= ts[-1] for leg in traj.legs)
        assert [sl.start for _, sl in pairs] == [0] + [sl.stop for _, sl in pairs[:-1]]
        assert pairs[-1][1].stop == len(ts)
        for (leg, sl), (following, _) in zip(pairs, pairs[1:] + [(None, None)]):
            assert (ts[sl] >= leg.t0).all()
            if following is not None:
                assert following is not leg and (ts[sl] < following.t0).all()
        assert list(traj._leg_slices(np.empty(0))) == []
        assert traj.batch_states(np.empty(0))[0].shape == (0, 3, 3)

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(kind="spiral")

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            small_cfg(duration=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(duration=np.nan),
            dict(duration=np.inf),
            dict(imu_rate=0.0),
            dict(imu_rate=-200.0),
            dict(imu_rate=np.nan),
            dict(gnss_rate=0.0),
            dict(gnss_rate=-1.0),
            dict(gnss_rate=np.inf),
            dict(use_odo=True, odo_rate=0.0),
            dict(gnss_sigma=-0.2),
            dict(gnss_sigma=np.nan),
            dict(odo_sigma=-0.1),
            dict(init_vel_sigma=-0.1),
            dict(init_pos_sigma=-1.0),
        ],
    )
    def test_rates_and_sigmas_validated(self, bad):
        with pytest.raises(ValueError):
            small_cfg(**bad)

    @pytest.mark.parametrize("obs_start_s", [0.0, 0.002, -0.99, np.nan])
    def test_obs_start_before_first_sample_rejected(self, obs_start_s):
        # at 200 Hz, 0.0 and 0.002 round to IMU sample 0 (the initial state),
        # -0.99 to a negative index and nan to none
        with pytest.raises(ValueError, match="obs_start_s"):
            small_cfg(duration=2.0, imu_rate=200.0, obs_start_s=obs_start_s)

    def test_obs_start_after_end_rejected(self):
        # no observation could be made: the run would score an unaided filter
        with pytest.raises(ValueError, match="obs_start_s"):
            small_cfg(duration=2.0, obs_start_s=5.0)
        assert small_cfg(duration=2.0, obs_start_s=5.0, use_gnss=False).obs_start_s == 5.0
        assert len(synthesize(small_cfg(duration=2.0, obs_start_s=2.0)).gnss) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            dict(duration=2.0, imu_rate=50.0, settle_s=5.0),
            dict(settle_s=np.nan),
            dict(settle_s=np.inf),
            dict(settle_s=-np.inf),
            # the last of the 10 samples at 10 Hz is stamped 1.0 s
            dict(duration=1.001, imu_rate=10.0, settle_s=1.001),
            # no IMU step: the default window from 0.001 s holds no sample
            dict(duration=0.002, imu_rate=200.0, use_gnss=False),
        ],
    )
    def test_settling_window_without_samples_rejected(self, bad):
        # the metrics used to read nan with a "Mean of empty slice" warning
        with pytest.raises(ValueError, match="settling window"):
            small_cfg(**bad)

    def test_settling_window_of_the_last_sample_accepted(self):
        cfg = small_cfg(duration=2.0, imu_rate=50.0, settle_s=2.0)
        assert cfg.settle_time() == 2.0 and small_cfg(settle_s=None).settle_time() == 5.0
        _, metrics = run_scenario(cfg, "ekf")
        assert np.isfinite(metrics["att_rmse_total_deg"])

    @pytest.mark.parametrize("bad", [dict(gravity_mode="bogus"), dict(injection="bogus")])
    def test_unknown_mode_rejected(self, bad):
        with pytest.raises(ValueError, match="bogus"):
            small_cfg(**bad)

    def test_obs_start_on_first_sample_accepted(self):
        cfg = small_cfg(duration=2.0, imu_rate=200.0, obs_start_s=0.005, use_odo=True)
        sc = synthesize(cfg)
        assert sc.gnss[0].time == sc.odo[0].time == sc.imu.t[0]
        _, metrics = run_scenario(cfg, "ekf")
        assert metrics["diverged"] is None

    def test_rate_of_disabled_sensor_unchecked(self):
        assert small_cfg(use_odo=False, odo_rate=0.0).odo_rate == 0.0

    def test_waypoint_speed_constant(self):
        cfg = small_cfg(kind="waypoint", duration=30.0, radius=10.0)
        truth = generate_truth(cfg, cfg.earth())
        np.testing.assert_allclose(np.linalg.norm(truth.vel, axis=1), cfg.speed, atol=1e-12)


class TestSynthesizeImu:
    def test_stationary_ideal_values(self):
        cfg = small_cfg(kind="stationary", lat_deg=45.0)
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        gyro, accel = truth.traj.batch_ideal_imu(np.array([1.0]), earth)
        att = truth.att[0]
        np.testing.assert_allclose(gyro[0], att.T @ earth.omega_ie, atol=1e-15)
        np.testing.assert_allclose(accel[0], -(att.T @ earth.gravity(truth.pos[0])), atol=1e-12)

    def test_zero_noise_round_trip(self):
        # feeding the near-ideal IMU back through the mechanization recovers
        # the truth trajectory
        cfg = small_cfg(duration=60.0, imu_rate=200.0, radius=500.0)
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        stream = synthesize_imu(truth, TINY_IMU, cfg, earth, seed=0)
        x0 = truth.state(0)
        atts, vels, poss = mechanize_sequence(x0, stream.gyro, stream.accel, stream.dt, earth)
        att_err = np.linalg.norm(lie.so3_log(atts[-1] @ truth.att[-1].T))
        assert att_err < 1e-5
        assert np.linalg.norm(poss[-1] - truth.pos[-1]) < 1e-3

    def test_same_seed_bit_identical(self):
        cfg = small_cfg()
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        a = synthesize_imu(truth, CONSUMER_IMU, cfg, earth, seed=42)
        b = synthesize_imu(truth, CONSUMER_IMU, cfg, earth, seed=42)
        assert np.array_equal(a.gyro, b.gyro) and np.array_equal(a.accel, b.accel)

    def test_bias_truth_present(self):
        cfg = small_cfg()
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        stream = synthesize_imu(truth, CONSUMER_IMU, cfg, earth, seed=3)
        assert stream.bias_gyro.shape == (len(stream.t), 3)
        assert np.linalg.norm(stream.bias_gyro[0]) > 0.0


class TestPiecewiseSynthesis:
    """The truth and the ideal IMU are evaluated CHUNK rows at a time, with
    the bits of one whole-leg evaluation, and hold beyond their outputs the
    temporaries of one piece; the seeded errors are added with one (n, 3)
    draw beyond theirs."""

    @pytest.mark.parametrize("kind", ["circle", "figure-eight", "waypoint", "stationary"])
    def test_pieces_keep_the_bits(self, kind, monkeypatch):
        # over 30 s a 10 m figure-eight turns both ways and the waypoint
        # circuit runs straight, turns and runs straight again, so pieces
        # cross leg boundaries; pieces of 7 leave a last truth piece of 5 and
        # a last IMU piece of 4, pieces of 3000 ones of 1 and 3000
        cfg = small_cfg(kind=kind, duration=30.0, radius=10.0)
        earth = cfg.earth()

        def synthesized():
            truth = generate_truth(cfg, earth)
            imu = synthesize_imu(truth, cfg.imu, cfg, earth, np.random.SeedSequence([cfg.seed, 1]))
            return [truth.t, truth.att, truth.vel, truth.pos, imu.t, imu.gyro, imu.accel, imu.bias_gyro, imu.bias_accel]

        whole = synthesized()
        assert len(whole[0]) == 3001
        for chunk in (7, 3000):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            for got, want in zip(synthesized(), whole):
                assert got.tobytes() == want.tobytes()

    def test_long_leg_holds_one_piece_of_temporaries(self):
        # the bound follows the design: above its inputs, each stage peaks
        # at its outputs plus the temporaries of one piece, which do not
        # grow with the leg, so a 50k-step leg holds no more beyond its
        # outputs than a leg of two pieces (TRACE_SLACK aside); the whole-leg
        # forms peaked at 2.8 (truth) and 7.3 (ideal IMU) times their
        # outputs on this leg
        rate = 2000.0
        cfg = small_cfg(duration=25.0, imu_rate=rate, radius=500.0, use_gnss=False)
        short = replace(cfg, duration=(2 * sim.CHUNK - 1) / rate)
        earth = cfg.earth()
        short_truth, short_peak, short_kept = traced_call(generate_truth, short, earth)
        truth, peak, kept = traced_call(generate_truth, cfg, earth)
        assert len(short_truth.t) == 2 * sim.CHUNK and len(truth.t) == 50_001
        assert peak - kept <= short_peak - short_kept + TRACE_SLACK
        short_truth = generate_truth(replace(short, duration=2 * sim.CHUNK / rate), earth)
        _, short_peak, short_kept = traced_call(sim._ideal_imu, short_truth, short, earth)
        ideal, peak, kept = traced_call(sim._ideal_imu, truth, cfg, earth)
        assert peak - kept <= short_peak - short_kept + TRACE_SLACK
        # each bias walk is summed in its own draw, which the output keeps,
        # and each noise draw is added to the rates through the one (n, 3)
        # draw; the whole-leg form peaked at 3.2 MB beyond its outputs here
        _, peak, kept = traced_call(sim._imu_with_errors, truth, ideal, cfg.imu, cfg, np.random.SeedSequence([cfg.seed, 1]))
        assert peak - kept <= ideal[0].nbytes + TRACE_SLACK


class TestSynthesizeObservations:
    def test_zero_sigma_gives_exact_truth(self):
        cfg = small_cfg()
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        obs = synthesize_observations(truth, "gnss_vel", 0.0, 1.0, cfg, seed=0)
        for o in obs:
            idx = int(round(o.time * cfg.imu_rate))
            np.testing.assert_array_equal(o.value, truth.vel[idx])

    def test_empirical_std_matches_sigma(self):
        cfg = small_cfg(kind="stationary", duration=100.0, imu_rate=100.0)
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        obs = synthesize_observations(truth, "odo", 0.1, 100.0, cfg, seed=5)
        samples = np.array([o.value for o in obs])
        assert len(samples) >= 9000
        std = samples.std(axis=0)
        np.testing.assert_allclose(std, 0.1, rtol=0.05)

    def test_odo_measures_body_frame(self):
        cfg = small_cfg()
        earth = cfg.earth()
        truth = generate_truth(cfg, earth)
        obs = synthesize_observations(truth, "odo", 0.0, 10.0, cfg, seed=0)
        for o in obs[:20]:
            # forward axis carries the speed, lateral/vertical are zero
            np.testing.assert_allclose(o.value, [cfg.speed, 0.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["gnss_vel", "odo"])
    def test_one_draw_equals_a_draw_per_fix(self, kind, sigma):
        # the fixes are drawn as one (count, 3) array: the bits of one
        # size-3 draw and one att^T vel product per fix, in fix order
        cfg = small_cfg(kind="figure-eight", duration=30.0, obs_start_s=0.5)
        truth = generate_truth(cfg, cfg.earth())
        rng = np.random.default_rng(8)
        reference = []
        for idx in range(50, len(truth.t), 2):
            value = truth.vel[idx] if kind == "gnss_vel" else truth.att[idx].T @ truth.vel[idx]
            noise = rng.normal(scale=sigma, size=3) if sigma > 0.0 else 0.0
            reference.append((truth.t[idx], value + noise, np.full(3, max(sigma, 1e-12))))
        obs = synthesize_observations(truth, kind, sigma, 50.0, cfg, seed=8)
        assert len(obs) == len(reference) == 1476
        for o, (time, value, sigmas) in zip(obs, reference):
            assert o.kind == kind and o.time == time
            assert o.value.tobytes() == value.tobytes() and o.sigma.tobytes() == sigmas.tobytes()


class TestRunScenario:
    def test_deterministic(self):
        cfg = small_cfg(use_gnss=True)
        s1, m1 = run_scenario(cfg, "ekf")
        s2, m2 = run_scenario(cfg, "ekf")
        assert np.array_equal(s1.att, s2.att)
        assert m1["att_rmse_total_deg"] == m2["att_rmse_total_deg"]

    def test_converges_with_small_initial_error(self):
        cfg = small_cfg(
            duration=60.0, imu_rate=50.0, use_gnss=True, use_odo=True,
            init_att_err_deg=(0.0, 0.0, 0.0), init_vel_sigma=0.01, init_pos_sigma=0.1,
        )
        _, metrics = run_scenario(cfg, "ekf")
        assert metrics["diverged"] is None
        assert metrics["att_rmse_total_deg"] < 0.5

    def test_ct_beats_ekf_under_large_yaw_error(self):
        cfg = small_cfg(
            duration=100.0, imu_rate=50.0, radius=100.0, use_gnss=True,
            init_att_err_deg=(60.0, 60.0, 120.0),
        )
        _, m_ekf = run_scenario(cfg, "ekf")
        _, m_ct = run_scenario(cfg, "ct-ekf")
        assert m_ct["final_att_err_deg"] < m_ekf["final_att_err_deg"]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_windowed_metrics_equal_full_row_errors(self, variant):
        # the metrics form the errors over the settling window only; they
        # equal those taken from errors over every row, bit for bit
        cfg = small_cfg(duration=6.0, imu_rate=50.0, use_odo=True, init_att_err_deg=(20.0, 20.0, 40.0), settle_s=2.5)
        run, metrics = run_scenario(cfg, variant)
        truth = generate_truth(cfg, cfg.earth())
        att_err = lie.so3_log(run.att @ truth.att.transpose(0, 2, 1))
        vel_err, pos_err = run.vel - truth.vel, run.pos - truth.pos
        window = run.t >= 2.5
        expected = {
            "att_rmse_deg": np.sqrt(np.mean(att_err[window] ** 2, axis=0)) / DEG,
            "att_rmse_total_deg": float(np.sqrt(np.mean(np.sum(att_err[window] ** 2, axis=1)))) / DEG,
            "vel_rmse": np.sqrt(np.mean(vel_err[window] ** 2, axis=0)),
            "pos_rmse": np.sqrt(np.mean(pos_err[window] ** 2, axis=0)),
            "final_att_err_deg": float(np.linalg.norm(att_err[-1])) / DEG,
        }
        assert metrics["diverged"] is None and metrics["variant"] == variant
        for key, value in expected.items():
            assert np.array_equal(metrics[key], value), key

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_config("ukf")

    def test_all_variants_run(self):
        cfg = small_cfg(duration=5.0, use_gnss=True, use_odo=True, init_att_err_deg=(5.0, 5.0, 10.0))
        for name in ("ekf", "l-inekf", "r-inekf", "ct-ekf", "sw-ekf"):
            _, metrics = run_scenario(cfg, name)
            assert metrics["diverged"] is None


class TestMonteCarloSweep:
    def test_zero_error_cell_all_variants_agree(self):
        cfg = small_cfg(
            duration=8.0, imu_rate=50.0, imu=TINY_IMU, gnss_sigma=1e-6,
            init_att_err_deg=(0.0, 0.0, 0.0), init_vel_sigma=1e-6, init_pos_sigma=1e-6,
        )
        result = monte_carlo_sweep(cfg, [0.0], 2, variants=("ekf", "l-inekf", "ct-ekf"))
        spread = result.rmse_deg.max() - result.rmse_deg.min()
        assert spread < 1e-4

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_sweep(small_cfg(), [], 1)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            monte_carlo_sweep(small_cfg(), [0.0], 0)

    @pytest.mark.parametrize(
        "sensors", [dict(use_odo=True), dict(use_gnss=False, use_odo=False)], ids=["gnss-odo", "unaided"]
    )
    def test_cell_bank_equals_solo_runs(self, sensors):
        # one bank holds the members of both cells, and every member gets
        # the bits of its own run_scenario
        cfg = small_cfg(duration=4.0, imu_rate=50.0, init_att_err_deg=(30.0, 30.0, 0.0), **sensors)
        variants = ("ekf", "l-inekf", "ct-ekf")
        grid = [90.0, -60.0]
        result = monte_carlo_sweep(cfg, grid, 3, variants=variants)
        for cell, yaw in enumerate(grid):
            solo = [
                [run_scenario(replace(cfg, seed=cfg.seed ^ (cell << 16) ^ s, init_att_err_deg=(30.0, 30.0, yaw)), v)[1]
                 ["att_rmse_total_deg"] for v in variants]
                for s in range(3)
            ]
            np.testing.assert_array_equal(result.rmse_deg[cell], np.mean(solo, axis=0))

    @staticmethod
    def bank_calls(monkeypatch):
        """Wrap sim.run_filter; the (members, record rows, record) of each
        call."""
        calls = []

        def spy(fs, imu, observations, *args, **kwargs):
            calls.append((len(fs.P), len(imu.t) + 1 - kwargs.get("first_row", 0), kwargs.get("record")))
            return run_filter(fs, imu, observations, *args, **kwargs)

        monkeypatch.setattr(sim, "run_filter", spy)
        return calls

    @pytest.mark.parametrize("per_bank, sizes", [(0, [1] * 6), (2, [2, 2, 2]), (4, [3, 3]), (6, [6])])
    def test_bank_split_keeps_every_bit(self, monkeypatch, per_bank, sizes):
        # the sweep's six members run in the fewest banks of at most
        # per_bank members (one at least), as equal in size as they can be,
        # and the split leaves the cell means bit for bit
        cfg = small_cfg(duration=2.0, imu_rate=50.0, use_odo=True, init_att_err_deg=(30.0, 30.0, 0.0))
        variants = ("ekf", "ct-ekf")
        one_bank = monte_carlo_sweep(cfg, [120.0, -30.0], 3, variants=variants)
        member = sim._member_bytes(cfg)
        monkeypatch.setattr(sim, "BANK_BYTES", per_bank * member + member // 2)
        calls = self.bank_calls(monkeypatch)
        split = monte_carlo_sweep(cfg, [120.0, -30.0], 3, variants=variants)
        assert [members for members, _, _ in calls[:: len(variants)]] == sizes
        # 101 rows, of which the settling window from t=1 s holds 51
        assert {record_rows for _, record_rows, _ in calls} == {51}
        assert split.rmse_deg.tobytes() == one_bank.rmse_deg.tobytes()

    def test_sweep_records_the_attitude_window_within_bank_bytes(self, monkeypatch):
        # the memory policy: every run of a sweep records the attitude over
        # the settling window only (t >= 1.5 s: rows 75 to 100 of 101), and
        # the members of a bank hold at most BANK_BYTES in that record and
        # their IMU rates
        cfg = small_cfg(duration=2.0, imu_rate=50.0, settle_s=1.5)
        assert sim._member_bytes(cfg) == 8 * (9 * 26 + 6 * 100)
        monkeypatch.setattr(sim, "BANK_BYTES", 3 * sim._member_bytes(cfg))
        calls = self.bank_calls(monkeypatch)
        monte_carlo_sweep(cfg, [0.0, 90.0], 2, variants=("ekf", "ct-ekf"))
        assert [members for members, _, _ in calls] == [2, 2, 2, 2]
        for members, record_rows, record in calls:
            assert record == ("att",) and record_rows == 26
            assert members * sim._member_bytes(cfg) <= sim.BANK_BYTES

    @pytest.mark.parametrize("sweep, sizes", [("sweep-30hz", [30]), ("criterion-09", [55, 55])])
    def test_paper_sweeps_run_in_their_banks(self, monkeypatch, sweep, sizes):
        # the benchmark's sweep runs as one bank of 30 members, criterion
        # 09's (11 cells x 10 seeds) as two of 55; no filter runs
        banks = []

        def count(args):
            _, members, variants = args
            banks.append(len(members))
            return np.zeros((len(members), len(variants)))

        monkeypatch.setattr(sim, "_sweep_bank", count)
        if sweep == "sweep-30hz":
            cfg = ScenarioConfig(
                kind="circle", duration=120.0, speed=5.0, radius=100.0, imu_rate=30.0, use_gnss=True, use_odo=True,
                init_att_err_deg=(60.0, 60.0, 0.0), injection="retraction", settle_s=60.0,
            )
            monte_carlo_sweep(cfg, (-150.0, -120.0, -90.0, 90.0, 120.0, 150.0), 5, ("ekf", "l-inekf", "ct-ekf"))
        else:
            verify.check_ordering(0)
        assert banks == sizes

    def test_one_truth_and_one_observation_per_fix_per_bank(self, monkeypatch):
        # three banks of two members: each bank generates the truth once and
        # builds one observation per fix, whatever its size
        cfg = small_cfg(duration=2.0, imu_rate=50.0, use_odo=True)
        sc = synthesize(cfg)
        fixes = len(sc.gnss) + len(sc.odo)
        truths, observations = [], []

        def truth_spy(*args):
            truths.append(args)
            return generate_truth(*args)

        class CountedObservation(sim.Observation):
            def __post_init__(self):
                observations.append(self)
                super().__post_init__()

        monkeypatch.setattr(sim, "generate_truth", truth_spy)
        monkeypatch.setattr(sim, "Observation", CountedObservation)
        monkeypatch.setattr(sim, "BANK_BYTES", 2 * sim._member_bytes(cfg) + sim._member_bytes(cfg) // 2)
        monte_carlo_sweep(cfg, [0.0, 90.0, -90.0], 2, variants=("ekf",))
        assert len(truths) == 3
        assert len(observations) == 3 * fixes
        assert {obs.value.shape for obs in observations} == {(2, 3)}

    def test_parallel_matches_serial(self, monkeypatch):
        # two members per bank: the pool maps over two banks
        cfg = small_cfg(duration=5.0, imu_rate=50.0, init_att_err_deg=(10.0, 10.0, 0.0))
        monkeypatch.setattr(sim, "BANK_BYTES", 2 * sim._member_bytes(cfg))
        grid = [-30.0, 30.0]
        serial = monte_carlo_sweep(cfg, grid, 2, variants=("ekf", "ct-ekf"), jobs=1)
        parallel = monte_carlo_sweep(cfg, grid, 2, variants=("ekf", "ct-ekf"), jobs=2)
        np.testing.assert_array_equal(serial.rmse_deg, parallel.rmse_deg)


class TestSynthesize:
    @staticmethod
    def assert_same_inputs(a, b, sensors=("gnss", "odo")):
        for name in ("t", "gyro", "accel", "bias_gyro", "bias_accel"):
            assert np.array_equal(getattr(a.imu, name), getattr(b.imu, name)), name
        for sensor in sensors:
            obs_a, obs_b = getattr(a, sensor), getattr(b, sensor)
            assert len(obs_a) == len(obs_b) > 0
            for oa, ob in zip(obs_a, obs_b):
                for name, value in vars(oa).items():
                    assert np.array_equal(value, getattr(ob, name)), (sensor, name)
        for name, value in vars(a.x0).items():
            assert np.array_equal(value, getattr(b.x0, name)), name
        assert np.array_equal(a.p0, b.p0)

    def test_same_config_gives_same_inputs(self):
        cfg = small_cfg(use_odo=True)
        self.assert_same_inputs(synthesize(cfg), synthesize(cfg))

    def test_streams_independent_of_enabled_sensors(self):
        # run_scenario's variant comparisons rely on each stream having its
        # own seed: enabling odometry leaves the other draws untouched
        cfg = small_cfg(use_odo=False)
        without, with_odo = synthesize(cfg), synthesize(replace(cfg, use_odo=True))
        assert without.odo == [] and len(with_odo.odo) > 0
        self.assert_same_inputs(without, with_odo, sensors=("gnss",))

    @pytest.mark.parametrize("sigmas", [{}, dict(gnss_sigma=0.0, odo_sigma=0.0)], ids=["noisy", "zero-sigma"])
    def test_bank_member_gets_its_solo_inputs(self, sigmas):
        # two yaws and two seeds: member i gets the bits of its own scenario
        cfg = small_cfg(use_odo=True, init_att_err_deg=(20.0, 10.0, 0.0), **sigmas)
        members = [(90.0, 7), (-45.0, 7), (90.0, 8), (-45.0, 8)]
        bank = synthesize(cfg, members)
        assert bank.imu.gyro.shape == (len(members), len(bank.imu.t), 3) and bank.imu.bias_gyro is None
        for i, (yaw, seed) in enumerate(members):
            solo = synthesize(replace(cfg, seed=seed, init_att_err_deg=(20.0, 10.0, yaw)))
            for name in ("t", "att", "vel", "pos"):
                assert getattr(bank.truth, name).tobytes() == getattr(solo.truth, name).tobytes(), name
            assert bank.imu.t.tobytes() == solo.imu.t.tobytes() and bank.imu.dt == solo.imu.dt
            for name in ("gyro", "accel"):
                assert getattr(bank.imu, name)[i].tobytes() == getattr(solo.imu, name).tobytes(), name
            for sensor in ("gnss", "odo"):
                fixes, own = getattr(bank, sensor), getattr(solo, sensor)
                assert len(fixes) == len(own) > 0
                for fix, obs in zip(fixes, own):
                    assert (fix.kind, fix.time) == (obs.kind, obs.time)
                    assert fix.value.shape == (len(members), 3) and fix.value[i].tobytes() == obs.value.tobytes()
                    assert fix.sigma.tobytes() == obs.sigma.tobytes()
            for name, value in vars(solo.x0).items():
                got = getattr(bank.x0, name)
                assert (got[i].tobytes() == value.tobytes()) if name != "time" else got == value, name
            assert bank.p0[i].tobytes() == solo.p0.tobytes()

    def test_unaided_bank_has_no_observations(self):
        bank = synthesize(small_cfg(use_gnss=False), [(0.0, 1), (30.0, 2)])
        assert bank.gnss == [] and bank.odo == []
        assert bank.imu.gyro.shape == (2, len(bank.imu.t), 3) and bank.p0.shape == (2, 15, 15)

    def test_ideal_imu_computed_once_per_call(self, monkeypatch):
        # a bank's members share the ideal rates: one inverse mechanization
        # per synthesize call, for a bank as for a single config
        calls = []
        ideal = Trajectory.batch_ideal_imu
        monkeypatch.setattr(Trajectory, "batch_ideal_imu", lambda *args: calls.append(1) or ideal(*args))
        synthesize(small_cfg(duration=1.0), [(0.0, 1), (30.0, 2), (60.0, 3)])
        assert len(calls) == 1
        synthesize(small_cfg(duration=1.0))
        assert len(calls) == 2

    def test_empty_bank_rejected(self, monkeypatch):
        # by name, before the truth or any stream is drawn
        monkeypatch.setattr(sim, "generate_truth", lambda *args: pytest.fail("drew the truth"))
        with pytest.raises(ValueError, match="a filter bank needs at least one member"):
            synthesize(small_cfg(duration=1.0), [])

    def test_seed_policy_lives_in_sim_only(self):
        # synthesize is the one place that derives the seed streams
        package = Path(cteskf.__file__).parent
        for path in sorted(package.glob("*.py")):
            text = path.read_text()
            if path.name != "sim.py":
                assert "SeedSequence" not in text and "0xC0FFEE" not in text, path.name

    def test_package_imports_no_scipy(self):
        # numpy is the package's one runtime dependency; scipy serves tests
        package = Path(cteskf.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def left_invariant_traces(cfg, record_every=None):
    """Propagation-only covariance of each parameterization from the
    scenario's initial estimate, composed over consecutive windows of
    ``record_every`` steps and mapped to the left-invariant representation
    at the end of each: {param: (M, 5) block traces}, the initial epoch
    first."""
    sc = synthesize(cfg)
    imu, earth = sc.imu, sc.earth
    atts, vels, poss = mechanize_sequence(sc.x0, imu.gyro, imu.accel, imu.dt, earth)
    every = record_every or max(1, len(imu.t) // 200)
    out = {}
    for param in PARAMS:
        a0 = relation_matrix(ErrorParam.ADDITIVE_EKF, param, sc.x0, earth)
        p = a0 @ sc.p0 @ a0.T
        traces = []
        for m in range(0, len(imu.t) + 1, every):
            if m:
                window = slice(m - every, m + 1)
                p, _ = propagate_covariance_sequence(
                    param, p, atts[window], vels[window], poss[window], imu.gyro[m - every : m],
                    imu.accel[m - every : m], np.zeros(3), np.zeros(3), imu.dt, cfg.imu.qc(), earth,
                )
            x = NavState(atts[m], vels[m], poss[m])
            rel = relation_matrix(param, ErrorParam.LEFT_INVARIANT, x, earth)
            traces.append((rel @ p @ rel.T).diagonal().reshape(5, 3).sum(axis=1))
        out[param] = np.array(traces)
    return out


class TestCovarianceComparison:
    def test_converted_traces_agree_long_run(self):
        # propagation-only, all three parameterizations to a common
        # representation: traces overlap.  Desk-scale anchor keeps the
        # right-invariant position readout well conditioned.
        cfg = small_cfg(
            duration=1000.0, imu_rate=100.0, speed=0.5, radius=500.0,
            init_att_err_deg=(60.0, 60.0, 120.0),
            anchor="origin", gravity_mode="zero", earth_rotation=False,
        )
        out = left_invariant_traces(cfg)
        ref = out[ErrorParam.LEFT_INVARIANT]
        for param in (ErrorParam.ADDITIVE_EKF, ErrorParam.RIGHT_INVARIANT):
            rel = np.abs(out[param] - ref) / np.abs(ref)
            assert rel.max() < 1e-3

    def test_converted_traces_earth_scale_sanity(self):
        # at ECEF position magnitudes the right-invariant trace readout is
        # limited by double-precision cancellation near the 1e-2 level
        cfg = small_cfg(duration=200.0, imu_rate=100.0, radius=500.0, init_att_err_deg=(60.0, 60.0, 120.0))
        out = left_invariant_traces(cfg)
        ref = out[ErrorParam.LEFT_INVARIANT]
        for param in (ErrorParam.ADDITIVE_EKF, ErrorParam.RIGHT_INVARIANT):
            rel = np.abs(out[param] - ref) / np.abs(ref)
            assert rel.max() < 3e-2

    def test_low_rate_still_agrees(self):
        cfg = small_cfg(
            kind="stationary", duration=100.0, imu_rate=2.0, init_att_err_deg=(10.0, 10.0, 20.0),
            use_gnss=False, anchor="origin", gravity_mode="zero", earth_rotation=False,
        )
        out = left_invariant_traces(cfg, record_every=20)
        ref = out[ErrorParam.LEFT_INVARIANT]
        for param in (ErrorParam.ADDITIVE_EKF, ErrorParam.RIGHT_INVARIANT):
            rel = np.abs(out[param] - ref) / np.abs(ref)
            assert rel.max() < 1e-2
