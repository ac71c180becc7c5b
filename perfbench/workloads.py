"""The benchmark workloads.

A workload builds its inputs from the benchmark seed (:meth:`prepare`) and
then runs whole rounds.  Round ``r`` always runs the same operations on
inputs derived from ``(seed, r)``; :meth:`timed` times only calls into the
program, and :meth:`check` tests their outputs afterwards.  Every call into
``cteskf`` goes through a module attribute (``sim.run_scenario``), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from cteskf import errorstate, sim
from cteskf import filter as kf
from cteskf import io as cio
from cteskf.ins import NavState

from . import checks

EKF = errorstate.ErrorParam.ADDITIVE_EKF
PARAMS = (EKF, errorstate.ErrorParam.LEFT_INVARIANT, errorstate.ErrorParam.RIGHT_INVARIANT)


def round_seed(seed: int, r: int) -> int:
    """Scenario seed of round r: distinct per (seed, r), stable across runs."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass
class Round:
    """What one round did: filter-steps advanced, wall time of the timed
    calls, operations attempted and failed, per-layer work units for the
    traced metrics, and the outputs the checks read."""

    steps: int
    seconds: float
    attempted: int
    failed: int
    work: dict = field(default_factory=dict)
    outputs: object = None


class Nav200Hz:
    """``cteskf run`` on the paper's system: all five variants on a 60 s,
    500 m circle at Earth scale, 200 Hz consumer IMU, GNSS velocity at 1 Hz
    and odometry at 10 Hz; each run's estimates are written to CSV."""

    name = "nav-200hz"

    def prepare(self, seed: int, out_dir: str):
        base = sim.ScenarioConfig(
            kind="circle", duration=60.0, speed=5.0, radius=500.0, imu_rate=200.0,
            use_gnss=True, gnss_rate=1.0, use_odo=True, odo_rate=10.0,
        )
        return {"base": base, "seed": seed, "out_dir": out_dir}

    def timed(self, ctx, r: int) -> Round:
        cfg = replace(ctx["base"], seed=round_seed(ctx["seed"], r))
        runs = {}
        seconds = 0.0
        failed = 0
        written = 0
        for variant in sim.VARIANTS:
            path = os.path.join(ctx["out_dir"], f"estimates_{variant}.csv")
            t0 = time.perf_counter()
            series, metrics = sim.run_scenario(cfg, variant)
            cio.write_estimates(path, series)
            seconds += time.perf_counter() - t0
            failed += bool(metrics["diverged"])
            written += os.path.getsize(path)
            runs[variant] = (series, metrics, path)
        steps = len(sim.VARIANTS) * int(round(cfg.duration * cfg.imu_rate))
        work = {"sim.run_scenario": steps, "io.write_estimates": written}
        return Round(steps, seconds, len(sim.VARIANTS), failed, work, (cfg, runs))

    def check(self, ctx, rnd: Round) -> list[str]:
        cfg, runs = rnd.outputs
        fails = []
        for variant, (series, metrics, path) in runs.items():
            fails += checks.check_nav_run(cfg, variant, series, metrics, path)
        if not fails:
            fails += checks.check_nav_headline(cfg.seed, {v: m["att_rmse_total_deg"] for v, (_, m, _) in runs.items()})
        return fails


class Sweep30Hz:
    """Criterion 09's Monte Carlo yaw sweep cut to its |yaw| >= 90 deg cells:
    a 120 s, 100 m circle, 30 Hz IMU, GNSS plus odometry, ekf / l-inekf /
    ct-ekf, five seeds per cell, as one ``monte_carlo_sweep(jobs=1)``.

    Five seeds keep the cell means steady enough for the ordering check: at
    +90 deg a single ekf run lands below ct-ekf's ~5 deg about one time in
    ten, and a mean over five seeds does so about once in 10^4 sweeps.
    """

    name = "sweep-30hz"
    yaw_grid = (-150.0, -120.0, -90.0, 90.0, 120.0, 150.0)
    n_seeds = 5
    variants = ("ekf", "l-inekf", "ct-ekf")

    def prepare(self, seed: int, out_dir: str):
        base = sim.ScenarioConfig(
            kind="circle", duration=120.0, speed=5.0, radius=100.0, imu_rate=30.0,
            use_gnss=True, use_odo=True, init_att_err_deg=(60.0, 60.0, 0.0),
            injection="retraction", settle_s=60.0,
        )
        return {"base": base, "seed": seed}

    def timed(self, ctx, r: int) -> Round:
        cfg = replace(ctx["base"], seed=round_seed(ctx["seed"], r))
        t0 = time.perf_counter()
        result = sim.monte_carlo_sweep(cfg, self.yaw_grid, self.n_seeds, variants=self.variants, jobs=1)
        seconds = time.perf_counter() - t0
        runs = len(self.yaw_grid) * self.n_seeds * len(self.variants)
        steps = runs * int(round(cfg.duration * cfg.imu_rate))
        cells = len(self.yaw_grid) * len(self.variants)
        failed = int(np.sum(~np.isfinite(result.rmse_deg)))
        return Round(steps, seconds, cells, failed, {"sim.run_scenario": steps}, result)

    def check(self, ctx, rnd: Round) -> list[str]:
        return checks.check_sweep_ordering(rnd.outputs, self.yaw_grid)


class Propagation2000Hz:
    """Criterion 01's long leg: truth, IMU synthesis and batch mechanization
    of a 60 s, 500 m circle at 2000 Hz, then the batch covariance sequence
    of all three parameterizations over the 120k steps."""

    name = "propagation-2000hz"
    reference_steps = 2000

    def prepare(self, seed: int, out_dir: str):
        base = sim.ScenarioConfig(
            kind="circle", duration=60.0, speed=5.0, radius=500.0, imu_rate=2000.0,
            imu=sim.AVIATION_IMU, use_gnss=False, init_att_err_deg=(60.0, 60.0, 120.0),
            gravity_mode="spherical",
        )
        return {"base": base, "seed": seed}

    @staticmethod
    def initial_covariance(cfg, x0) -> np.ndarray:
        err = np.radians(np.asarray(cfg.init_att_err_deg))
        p0 = np.diag(np.concatenate([
            err**2,
            np.full(3, cfg.init_vel_sigma**2),
            np.full(3, cfg.init_pos_sigma**2),
            np.full(3, cfg.imu.gyro_bias_si**2),
            np.full(3, cfg.imu.accel_bias_si**2),
        ]))
        p0[0:3, 0:3] = x0.att @ np.diag(err**2) @ x0.att.T
        return p0

    def timed(self, ctx, r: int) -> Round:
        cfg = replace(ctx["base"], seed=round_seed(ctx["seed"], r))
        t0 = time.perf_counter()
        earth = cfg.earth()
        truth = sim.generate_truth(cfg, earth)
        imu = sim.synthesize_imu(truth, cfg.imu, cfg, earth, np.random.SeedSequence([cfg.seed, 1]))
        x0 = truth.state(0)
        p0 = self.initial_covariance(cfg, x0)
        atts, vels, poss = kf.mechanize_sequence(x0, imu.gyro, imu.accel, imu.dt, earth)
        qc = cfg.imu.qc()
        initial, finals = {}, {}
        for param in PARAMS:
            a0 = errorstate.relation_matrix(EKF, param, x0, earth)
            initial[param] = a0 @ p0 @ a0.T
            finals[param], _ = kf.propagate_covariance_sequence(
                param, initial[param], atts, vels, poss, imu.gyro, imu.accel,
                np.zeros(3), np.zeros(3), imu.dt, qc, earth,
            )
        seconds = time.perf_counter() - t0
        n = len(imu.gyro)
        work = {"filter.propagate_covariance_sequence": len(PARAMS) * n}
        history = (earth, imu, qc, atts, vels, poss, initial, finals)
        return Round(len(PARAMS) * n, seconds, len(PARAMS), 0, work, history)

    def check(self, ctx, rnd: Round) -> list[str]:
        earth, imu, qc, atts, vels, poss, initial, finals = rnd.outputs
        fails = []
        mism = checks.relation_mismatch(finals, NavState(atts[-1], vels[-1], poss[-1]), earth)
        if not mism < 1e-5:
            fails.append(f"relation-equivalence mismatch {mism:.3e} is not below 1e-5")
        m = min(self.reference_steps, len(imu.gyro))
        for param in PARAMS:
            name = f"{param.value} leg"
            fails += checks.check_covariance(name, finals[param])
            head, _ = kf.propagate_covariance_sequence(
                param, initial[param], atts[: m + 1], vels[: m + 1], poss[: m + 1], imu.gyro[:m], imu.accel[:m],
                np.zeros(3), np.zeros(3), imu.dt, qc, earth,
            )
            ref = checks.reference_covariance(
                param, initial[param], atts, vels, poss, imu.gyro, imu.accel, imu.dt, qc, earth, m
            )
            fails += checks.check_against_reference(f"{name}, first {m} steps", head, ref)
        return fails


WORKLOADS = {w.name: w for w in (Nav200Hz(), Sweep30Hz(), Propagation2000Hz())}
