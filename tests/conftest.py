"""Shared scenario helpers for the filter-level and acceptance tests."""

import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cteskf import lie
from cteskf.errorstate import ErrorParam, InjectionMode, process_noise, relation_matrix
from cteskf.filter import FilterState, Strategy, run_filter
from cteskf.ins import EarthModel, NavState
from cteskf.sensors import Observation, select_members
from cteskf.sim import ImuStream


# property tests draw the same examples on every run, never fail on a slow
# example of a shared machine, and keep no example database
settings.register_profile("cteskf", derandomize=True, deadline=None, database=None)
settings.load_profile("cteskf")
# even without a database hypothesis caches the constants it finds in the
# source under its storage directory; keep that out of the checkout
_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="cteskf-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_STORAGE.name)


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    # hypothesis reports a failing example through a libcst import that warns
    # about mypy_extensions; under the mark below that warning would abort the
    # session instead of reporting the failure
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict", DeprecationWarning)
        yield


def pytest_collection_modifyitems(items):
    # in this suite a warning is a failure: fix it where it arises or assert
    # it with pytest.warns (a test's own filterwarnings mark still wins)
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


# Aviation-grade IMU noise (per-axis densities, SI)
QUIET_ARW = 0.001 * np.pi / 180.0 / 60.0  # rad/sqrt(s)
QUIET_VRW = 5e-6 * 9.80665  # m/s^2/sqrt(Hz)
QUIET_QC = process_noise(
    QUIET_ARW**2,
    QUIET_VRW**2,
    (0.01 * np.pi / 180.0 / 3600.0) ** 2 / 3600.0,
    (1e-6 * 9.80665) ** 2 / 3600.0,
)


def quiet_earth() -> EarthModel:
    """No Earth rotation, no gravity: between updates the error-relation
    matrices stay constant, so the discrete covariance propagations of all
    parameterizations coincide exactly and the update-equivalence identities can
    be checked at numerical precision."""
    return EarthModel(omega_ie=np.zeros(3), gravity_mode="constant", gravity_const=np.zeros(3))


def assert_spd(p: np.ndarray, tol_factor: float = 1e-10) -> None:
    """Covariance sanity: symmetric and PSD within tolerance."""
    if np.linalg.norm(p - p.T) > 1e-12 * max(1.0, np.linalg.norm(p)):
        raise AssertionError("covariance is not symmetric")
    eigmin = float(np.linalg.eigvalsh(p)[0])
    if eigmin < -tol_factor * np.trace(p):
        raise AssertionError(f"covariance has negative eigenvalue {eigmin:.3e}")


# interpreter caches and free lists that tracemalloc also counts move a
# call's traced peak by a few hundred bytes from one call to the next,
# whatever the call's size; a memory bound allows one page for them, under
# a tenth of one piece of CHUNK rows of a 3x3 stack (73,728 bytes)
TRACE_SLACK = 4096


def traced_call(f, *args):
    """``f(*args)`` under tracemalloc, which numpy reports its buffers to:
    its result, the peak of traced memory during the call and the memory
    still traced after it, both above what was traced before the call.
    Memory allocated before the call, such as its inputs, is not traced."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, kept - base


def imu_stream(dt: float, gyro, accel, t0: float = 0.0) -> ImuStream:
    """Raw IMU arrays as run_filter takes them: sample k ends at
    t0 + (k + 1) dt."""
    gyro, accel = np.asarray(gyro, dtype=float), np.asarray(accel, dtype=float)
    return ImuStream(t0 + dt * np.arange(1, len(gyro) + 1), gyro, accel, dt)


def solo_inputs(sc):
    """The inputs of a synthesized bank of one as one run's: its IMU
    stream (n, 3) and its GNSS and odometry fixes, each value (3,)."""
    imu = ImuStream(sc.imu.t, sc.imu.gyro[0], sc.imu.accel[0], sc.imu.dt)
    return imu, [select_members(obs, 0) for obs in sc.gnss + sc.odo]


def solo_run(fs: FilterState, samples, observations, on_update=None, **kwargs):
    """run_filter on one filter as a bank of one: its FilterRun, with
    ``on_update(before, after)`` seeing the one filter's states."""
    seen = None if on_update is None else lambda before, after: on_update(before.select(0), after.select(0))
    (run,) = run_filter(fs.select(None), samples, observations, seen, **kwargs)
    return run


def bank_updates(bank: list[FilterState], samples, observations) -> list:
    """Run each filter of a list through run_filter on the same data and
    pair their update logs: one tuple per observation, holding each filter's
    (before, after) states.  No run may diverge or leave an observation
    unapplied."""
    logs = []
    for fs in bank:
        log = []
        run = solo_run(fs, samples, observations, lambda before, after: log.append((before, after)))
        assert run.diverged is None, run.diverged
        assert len(log) == len(observations)
        logs.append(log)
    return list(zip(*logs))


def initial_filter_bank(
    x0: NavState,
    p0_ekf: np.ndarray,
    configs: list[tuple[ErrorParam, Strategy]],
    qc: np.ndarray,
    earth: EarthModel,
    injection: InjectionMode = InjectionMode.FIRST_ORDER,
) -> list[FilterState]:
    """Filters sharing the state x0 with relation-equivalent covariances."""
    bank = []
    for param, strategy in configs:
        a = relation_matrix(ErrorParam.ADDITIVE_EKF, param, x0, earth)
        bank.append(
            FilterState(x0.copy(), a @ p0_ekf @ a.T, param, strategy, injection, qc.copy(), earth)
        )
    return bank


def default_p0(att0: np.ndarray, att_err_rad: np.ndarray) -> np.ndarray:
    """Diagonal initial EKF covariance with the attitude block mapped from
    body-frame angle uncertainties through the estimated attitude."""
    p0 = np.diag(
        np.concatenate(
            [
                att_err_rad**2 + 1e-10,
                np.full(3, 0.01),
                np.full(3, 1.0),
                np.full(3, (1e-5) ** 2),
                np.full(3, (1e-4) ** 2),
            ]
        )
    )
    p0[0:3, 0:3] = att0 @ (np.diag(att_err_rad**2) + 1e-10 * np.eye(3)) @ att0.T
    return p0


class StationaryQuietScenario:
    """Stationary truth in the quiet Earth model with seeded sensor noise.

    Truth attitude is identity, truth velocity zero; the ideal IMU reads zero
    on both channels, so gyro/accel streams are pure noise.
    """

    def __init__(
        self,
        duration: float,
        imu_rate: float,
        seed: int,
        att_err_deg=(1.0, 1.0, 2.0),
        gnss_rate: float = 0.0,
        odo_rate: float = 0.0,
        gnss_sigma: float = 0.2,
        odo_sigma: float = 0.1,
        pos0=(100.0, 50.0, 20.0),
        noise_scale: float = 1.0,
    ):
        rng = np.random.default_rng(seed)
        self.earth = quiet_earth()
        self.dt = 1.0 / imu_rate
        n = int(round(duration * imu_rate))
        self.pos0 = np.asarray(pos0, dtype=float)
        err = np.radians(np.asarray(att_err_deg, dtype=float))
        att0 = lie.so3_exp(err)
        self.x0 = NavState(att0, np.zeros(3), self.pos0.copy())
        self.p0 = default_p0(att0, err)
        self.truth = NavState(np.eye(3), np.zeros(3), self.pos0.copy())

        noise = np.array([
            (
                rng.normal(scale=noise_scale * QUIET_ARW / np.sqrt(self.dt), size=3),
                rng.normal(scale=noise_scale * QUIET_VRW / np.sqrt(self.dt), size=3),
            )
            for _ in range(n)
        ])
        self.imu = imu_stream(self.dt, noise[:, 0], noise[:, 1])
        self.obs = []
        for rate, sigma, kind in ((gnss_rate, gnss_sigma, "gnss_vel"), (odo_rate, odo_sigma, "odo")):
            if rate <= 0.0:
                continue
            n_obs = int(round((duration - 1.0) * rate)) + 1
            for j in range(n_obs):
                t = 1.0 + j / rate
                if t > duration + 1e-9:
                    break
                self.obs.append(Observation(kind, round(t, 9), rng.normal(scale=sigma, size=3), np.full(3, sigma)))
        self.obs.sort(key=lambda o: o.time)


@pytest.fixture(scope="session")
def short_quiet_scenario():
    return StationaryQuietScenario(20.0, 100.0, seed=7, gnss_rate=1.0, odo_rate=10.0)
