"""Each output check accepts real program output and rejects a corrupted
copy of it."""

from dataclasses import fields, replace

import numpy as np
import pytest

from cteskf import errorstate, io, lie, sim
from cteskf import filter as kf
from perfbench import checks
from perfbench.workloads import PARAMS, Propagation2000Hz

EKF, LEFT, RIGHT = PARAMS
NAV = sim.ScenarioConfig(
    kind="circle", duration=4.0, speed=5.0, radius=500.0, imu_rate=50.0,
    use_gnss=True, gnss_rate=1.0, use_odo=True, odo_rate=10.0, seed=3,
)


def copy_series(series):
    return replace(series, **{f.name: getattr(series, f.name).copy() for f in fields(series)})


@pytest.fixture(scope="module")
def nav_run(tmp_path_factory):
    series, metrics = sim.run_scenario(NAV, "ct-ekf")
    path = str(tmp_path_factory.mktemp("nav") / "estimates.csv")
    io.write_estimates(path, series)
    return series, metrics, path


class TestNavRun:
    def test_accepts_program_output(self, nav_run):
        series, metrics, path = nav_run
        assert checks.check_nav_run(NAV, "ct-ekf", series, metrics, path) == []

    def test_closed_form_truth_matches_the_simulated_one(self):
        truth = sim.generate_truth(NAV, NAV.earth())
        att, vel, pos = checks.circle_truth(NAV, truth.t)
        assert np.abs(att - truth.att).max() < 1e-12
        assert np.abs(vel - truth.vel).max() < 1e-9
        assert np.abs(pos - truth.pos).max() < 1e-6

    def test_rejects_perturbed_attitude(self, nav_run):
        series, metrics, path = nav_run
        bad = copy_series(series)
        bad.att[-1] = bad.att[-1] @ lie.so3_exp(np.array([1e-3, 0.0, 0.0]))
        fails = checks.check_nav_run(NAV, "ct-ekf", bad, metrics, path)
        assert any("att_rmse" in f for f in fails)
        assert any("attitude in" in f for f in fails)

    def test_rejects_flipped_covariance_sign(self, nav_run):
        series, metrics, path = nav_run
        bad = copy_series(series)
        bad.p_trace[7, 1] = -bad.p_trace[7, 1]
        fails = checks.check_nav_run(NAV, "ct-ekf", bad, metrics, path)
        assert any("finite and positive" in f for f in fails)

    def test_rejects_misreported_rmse(self, nav_run):
        series, metrics, path = nav_run
        bad = dict(metrics, pos_rmse=metrics["pos_rmse"] * (1.0 + 1e-7))
        fails = checks.check_nav_run(NAV, "ct-ekf", series, bad, path)
        assert any("pos_rmse" in f for f in fails)

    def test_rejects_divergence(self, nav_run):
        series, metrics, path = nav_run
        bad = dict(metrics, diverged="covariance became non-finite")
        assert checks.check_nav_run(NAV, "ct-ekf", series, bad, path)

    def test_rejects_altered_file(self, nav_run, tmp_path):
        series, metrics, path = nav_run
        lines = open(path).read().splitlines()
        row = lines[5].split(",")
        row[9] = repr(float(row[9]) + 1e-9)
        lines[5] = ",".join(row)
        altered = tmp_path / "estimates.csv"
        altered.write_text("\n".join(lines) + "\n")
        fails = checks.check_nav_run(NAV, "ct-ekf", series, metrics, str(altered))
        assert any("position" in f for f in fails)


class TestNavHeadline:
    RMSE = {"ekf": 128.7, "l-inekf": 62.8, "r-inekf": 27.1, "ct-ekf": 16.3, "sw-ekf": 6.3}

    def test_accepts_ct_ekf_best_of_the_three(self):
        assert checks.check_nav_headline(1, self.RMSE) == []

    def test_rejects_swapped_variant_order(self):
        names = list(self.RMSE)
        swapped = dict(zip(names[1:] + names[:1], self.RMSE.values()))
        assert checks.check_nav_headline(1, swapped)


class TestSweepOrdering:
    GRID = (-150.0, -120.0, -90.0, 90.0, 120.0, 150.0)
    RMSE = np.array([
        [136.5, 75.2, 3.7], [111.3, 21.7, 3.0], [58.2, 8.2, 3.4],
        [66.2, 17.4, 5.0], [114.2, 38.0, 8.2], [173.4, 88.9, 15.0],
    ])

    def sweep(self, rmse=None, variants=("ekf", "l-inekf", "ct-ekf")):
        return sim.SweepResult(np.array(self.GRID), variants, self.RMSE.copy() if rmse is None else rmse)

    def test_accepts_the_ordering(self):
        assert checks.check_sweep_ordering(self.sweep(), self.GRID) == []

    def test_rejects_swapped_variant_order(self):
        assert checks.check_sweep_ordering(self.sweep(variants=("ct-ekf", "l-inekf", "ekf")), self.GRID)

    def test_rejects_infinite_cell(self):
        rmse = self.RMSE.copy()
        rmse[2, 0] = np.inf
        assert any("infinite" in f for f in checks.check_sweep_ordering(self.sweep(rmse), self.GRID))

    def test_rejects_ct_ekf_above_ekf_in_one_cell(self):
        rmse = self.RMSE.copy()
        rmse[3, 0] = 4.0
        assert any("exceeds ekf" in f for f in checks.check_sweep_ordering(self.sweep(rmse), self.GRID))

    def test_rejects_ct_ekf_losing_to_l_inekf_too_often(self):
        rmse = self.RMSE.copy()
        rmse[:2, 2] = rmse[:2, 1] + 1.0
        rmse[:2, 0] = rmse[:2, 2] + 1.0
        assert any("l-inekf" in f for f in checks.check_sweep_ordering(self.sweep(rmse), self.GRID))


@pytest.fixture(scope="module")
def short_leg():
    """A 100-step propagation-only history at 200 Hz on criterion 01's circle."""
    wl = Propagation2000Hz()
    cfg = replace(wl.prepare(0, "")["base"], duration=0.5, imu_rate=200.0)
    earth = cfg.earth()
    truth = sim.generate_truth(cfg, earth)
    imu = sim.synthesize_imu(truth, cfg.imu, cfg, earth, np.random.SeedSequence([cfg.seed, 1]))
    x0 = truth.state(0)
    atts, vels, poss = kf.mechanize_sequence(x0, imu.gyro, imu.accel, imu.dt, earth)
    p0 = wl.initial_covariance(cfg, x0)
    return cfg, earth, imu, x0, p0, atts, vels, poss


class TestPropagation:
    def test_sequence_agrees_with_reference_loop(self, short_leg):
        cfg, earth, imu, x0, p0, atts, vels, poss = short_leg
        qc = cfg.imu.qc()
        for param in PARAMS:
            a0 = errorstate.relation_matrix(EKF, param, x0, earth)
            p_seq, _ = kf.propagate_covariance_sequence(
                param, a0 @ p0 @ a0.T, atts, vels, poss, imu.gyro, imu.accel,
                np.zeros(3), np.zeros(3), imu.dt, qc, earth,
            )
            ref = checks.reference_covariance(
                param, a0 @ p0 @ a0.T, atts, vels, poss, imu.gyro, imu.accel, imu.dt, qc, earth, len(imu.gyro)
            )
            assert checks.check_against_reference(param.value, p_seq, ref) == []
            assert checks.check_covariance(param.value, p_seq) == []
            flipped = p_seq.copy()
            i, j = np.unravel_index(np.argmax(np.abs(p_seq - np.diag(np.diag(p_seq)))), p_seq.shape)
            flipped[i, j] = -flipped[i, j]
            flipped[j, i] = -flipped[j, i]
            assert checks.check_against_reference(param.value, flipped, ref)

    def test_covariance_check_rejects_flipped_sign_and_asymmetry(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(15, 15))
        p = m @ m.T + np.eye(15)
        assert checks.check_covariance("p", p) == []
        assert any("negative eigenvalue" in f for f in checks.check_covariance("p", -p))
        skewed = p.copy()
        skewed[2, 9] += 1e-3
        assert any("symmetric" in f for f in checks.check_covariance("p", skewed))
        assert checks.check_covariance("p", np.full((15, 15), np.nan))

    def test_relation_mismatch(self, short_leg):
        cfg, earth, imu, x0, p0, atts, vels, poss = short_leg
        finals = {}
        for param in PARAMS:
            a = errorstate.relation_matrix(EKF, param, x0, earth)
            finals[param] = a @ p0 @ a.T
        # mapping through the additive covariance at Earth scale loses ~8 digits
        assert checks.relation_mismatch(finals, x0, earth) < 1e-6
        finals[LEFT] = -finals[LEFT]
        assert checks.relation_mismatch(finals, x0, earth) > 1e-5

    def test_workload_round_passes_and_corruption_fails(self):
        # the full 60 s leg: on short legs the relation mismatch is above 1e-5
        wl = Propagation2000Hz()
        ctx = wl.prepare(5, "")
        rnd = wl.timed(ctx, 0)
        assert rnd.steps == 3 * 120000 and rnd.attempted == 3 and rnd.failed == 0
        assert wl.check(ctx, rnd) == []
        rnd.outputs[-1][RIGHT] = -rnd.outputs[-1][RIGHT]
        assert wl.check(ctx, rnd)
