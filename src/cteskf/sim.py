"""Synthetic truth trajectories, sensor synthesis, scenario execution and
Monte Carlo campaigns.

Trajectories are piecewise-analytic unicycle paths (straight legs and
constant-rate arcs) on a local tangent plane, so the ideal IMU follows in
closed form and zero-noise sensors reproduce the truth exactly.  All noise is
drawn from seeded generators; identical configuration and seed give
bit-identical outputs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import lie
from .errorstate import ErrorParam, InjectionMode, process_noise, relation_matrix
from .filter import FilterRun, FilterState, Strategy, mixed_sensor_strategy, run_filter
from .ins import EARTH_RADIUS, G0, EarthModel, NavState
from .sensors import GnssVelObs, OdoObs, stack_observations

DEG = np.pi / 180.0


@dataclass(frozen=True)
class ImuSpec:
    """IMU grade in datasheet units: angular random walk (deg/sqrt(h)),
    velocity random walk (ug/sqrt(Hz)), gyro bias instability (deg/h) and
    accelerometer bias (ug)."""

    arw_deg_sqrt_h: float
    vrw_ug_sqrt_hz: float
    gyro_bias_deg_h: float
    accel_bias_ug: float

    def __post_init__(self):
        if min(self.arw_deg_sqrt_h, self.vrw_ug_sqrt_hz, self.gyro_bias_deg_h, self.accel_bias_ug) <= 0:
            raise ValueError("IMU spec values must be positive")

    @property
    def gyro_noise_density(self) -> float:
        """rad/s/sqrt(Hz); deg/sqrt(h) -> rad/sqrt(s) is (pi/180)/60."""
        return self.arw_deg_sqrt_h * DEG / 60.0

    @property
    def accel_noise_density(self) -> float:
        """m/s^2/sqrt(Hz)."""
        return self.vrw_ug_sqrt_hz * 1e-6 * G0

    @property
    def gyro_bias_si(self) -> float:
        """rad/s."""
        return self.gyro_bias_deg_h * DEG / 3600.0

    @property
    def accel_bias_si(self) -> float:
        """m/s^2."""
        return self.accel_bias_ug * 1e-6 * G0

    def qc(self, bias_corr_time: float = 3600.0) -> np.ndarray:
        """Continuous 12x12 PSD; bias walks use instability^2 / correlation
        time as a first-order Gauss-Markov approximation."""
        return process_noise(
            self.gyro_noise_density**2,
            self.accel_noise_density**2,
            self.gyro_bias_si**2 / bias_corr_time,
            self.accel_bias_si**2 / bias_corr_time,
        )


# consumer grade (land-vehicle dataset class) and aviation grade
CONSUMER_IMU = ImuSpec(0.15, 20.0, 2.0, 3.6)
AVIATION_IMU = ImuSpec(0.001, 5.0, 0.01, 1.0)


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one synthetic run."""

    kind: str = "circle"  # stationary | circle | figure-eight | waypoint
    duration: float = 60.0
    speed: float = 5.0
    radius: float = 500.0
    lat_deg: float = 0.0
    lon_deg: float = 0.0
    imu_rate: float = 200.0
    imu: ImuSpec = field(default_factory=lambda: CONSUMER_IMU)
    use_gnss: bool = True
    gnss_rate: float = 1.0
    gnss_sigma: float = 0.2
    use_odo: bool = False
    odo_rate: float = 10.0
    odo_sigma: float = 0.1
    init_att_err_deg: tuple = (60.0, 60.0, 120.0)
    init_vel_sigma: float = 0.1
    init_pos_sigma: float = 1.0
    seed: int = 0
    earth_rotation: bool = True
    gravity_mode: str = "spherical"
    anchor: str = "surface"  # "surface" (ECEF, on the sphere) or "origin"
    injection: str = "retraction"
    obs_start_s: float = 1.0
    settle_s: float | None = None

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError("scenario duration must be positive and finite")
        if self.kind not in ("stationary", "circle", "figure-eight", "waypoint"):
            raise ValueError(f"unsupported trajectory kind {self.kind!r}")
        if self.anchor not in ("surface", "origin"):
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.anchor == "origin" and self.gravity_mode not in ("constant", "zero"):
            raise ValueError("origin anchor requires a position-independent gravity mode")
        if not 0 < self.imu_rate < np.inf:
            raise ValueError("IMU rate must be positive and finite")
        # the observation synthesis stamps the first fix on IMU sample
        # round(obs_start_s * imu_rate); sample 0 is the initial state, which
        # no update can follow
        if not np.isfinite(self.obs_start_s) or round(self.obs_start_s * self.imu_rate) < 1:
            raise ValueError("obs_start_s must be finite and round to IMU sample 1 or later")
        last_sample = round(self.duration * self.imu_rate)
        if (self.use_gnss or self.use_odo) and round(self.obs_start_s * self.imu_rate) > last_sample:
            raise ValueError(f"obs_start_s={self.obs_start_s} s lies after the scenario end: no observation is made")
        for name in ("gnss_sigma", "odo_sigma", "init_vel_sigma", "init_pos_sigma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and not negative")
        for rate, used in ((self.gnss_rate, self.use_gnss), (self.odo_rate, self.use_odo)):
            if used:
                if not 0 < rate < np.inf:
                    raise ValueError("the rate of an enabled sensor must be positive and finite")
                ratio = self.imu_rate / rate
                if abs(ratio - round(ratio)) > 1e-9:
                    raise ValueError("observation rates must divide the IMU rate")
        # the metrics average over the samples at or after the settling time
        settle, last = self.settle_time(), last_sample / self.imu_rate
        if not (np.isfinite(settle) and settle <= last):
            raise ValueError(f"settling window from t={settle} s holds no sample (the last is at t={last} s)")
        # an unknown gravity or injection mode fails here, not in a run
        self.earth()
        self.injection_mode()

    def earth(self) -> EarthModel:
        omega = np.array([0.0, 0.0, 7.292115e-5]) if self.earth_rotation else np.zeros(3)
        const = np.array([0.0, 0.0, -G0]) if self.gravity_mode == "constant" else np.zeros(3)
        if self.gravity_mode == "zero":
            return EarthModel(omega_ie=omega, gravity_mode="constant", gravity_const=np.zeros(3))
        return EarthModel(omega_ie=omega, gravity_mode=self.gravity_mode, gravity_const=const)

    def injection_mode(self) -> InjectionMode:
        return InjectionMode(self.injection)

    def settle_time(self) -> float:
        """Start of the window the metrics average over: ``settle_s``, or
        half the duration when it is ``None``."""
        return self.duration / 2.0 if self.settle_s is None else self.settle_s


@dataclass
class _Leg:
    t0: float
    duration: float
    p0: np.ndarray  # 2d position in the tangent plane
    psi0: float
    speed: float
    turn_rate: float

    def state(self, t):
        """Tangent-plane position (..., 2), heading and the heading's cosine
        and sine at a time or an array of times."""
        tau = np.asarray(t, dtype=float) - self.t0
        psi = self.psi0 + self.turn_rate * tau
        c, s = np.cos(psi), np.sin(psi)
        if self.turn_rate == 0.0:
            p = self.p0 + self.speed * tau[..., None] * np.array([np.cos(self.psi0), np.sin(self.psi0)])
        else:
            rho = self.speed / self.turn_rate
            p = self.p0 + rho * np.stack([s - np.sin(self.psi0), np.cos(self.psi0) - c], axis=-1)
        return p, psi, c, s

    def end(self):
        p, psi, _, _ = self.state(self.t0 + self.duration)
        return p, float(psi)


class Trajectory:
    """Closed-form truth on a tangent plane anchored at (lat, lon)."""

    def __init__(self, cfg: ScenarioConfig):
        if cfg.anchor == "origin":
            self.frame = np.eye(3)
            self.origin = np.array([100.0, 50.0, 20.0])
        else:
            lat, lon = cfg.lat_deg * DEG, cfg.lon_deg * DEG
            up = np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
            east = np.array([-np.sin(lon), np.cos(lon), 0.0])
            north = np.cross(up, east)
            self.frame = np.column_stack([east, north, up])
            self.origin = EARTH_RADIUS * up
        self.legs = self._build_legs(cfg)
        self._starts = [leg.t0 for leg in self.legs]

    @staticmethod
    def _build_legs(cfg: ScenarioConfig) -> list:
        legs = []
        t, p, psi = 0.0, np.zeros(2), 0.0
        horizon = cfg.duration + 1.0

        def push(duration, speed, rate):
            nonlocal t, p, psi
            legs.append(_Leg(t, duration, p.copy(), psi, speed, rate))
            p, psi = legs[-1].end()
            t += duration

        if cfg.kind == "stationary":
            push(horizon, 0.0, 0.0)
        elif cfg.kind == "circle":
            push(horizon, cfg.speed, cfg.speed / cfg.radius)
        elif cfg.kind == "figure-eight":
            period = 2.0 * np.pi * cfg.radius / cfg.speed
            sign = 1.0
            while t < horizon:
                push(period, cfg.speed, sign * cfg.speed / cfg.radius)
                sign = -sign
        else:  # waypoint: rounded square circuit
            side = 10.0 * cfg.radius
            straight = side / cfg.speed
            quarter = (np.pi / 2.0) * cfg.radius / cfg.speed
            while t < horizon:
                push(straight, cfg.speed, 0.0)
                push(quarter, cfg.speed, cfg.speed / cfg.radius)
        return legs

    def _leg_slices(self, ts: np.ndarray):
        """Yield (leg, slice) pairs covering a sorted time array."""
        idx = np.searchsorted(self._starts, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.legs) - 1)
        starts = np.flatnonzero(np.diff(idx, prepend=-1)).tolist()
        for start, stop in zip(starts, starts[1:] + [len(ts)]):
            yield self.legs[idx[start]], slice(start, stop)

    def _batch_full(self, ts: np.ndarray):
        n = len(ts)
        att = np.empty((n, 3, 3))
        vel = np.empty((n, 3))
        pos = np.empty((n, 3))
        acc = np.empty((n, 3))
        psi_all = np.empty(n)
        rate_all = np.empty(n)
        for leg, sl in self._leg_slices(ts):
            p, psi, c, s = leg.state(ts[sl])
            pos[sl] = self.origin + (
                p[:, 0, None] * self.frame[:, 0] + p[:, 1, None] * self.frame[:, 1]
            )
            vel[sl] = leg.speed * (c[:, None] * self.frame[:, 0] + s[:, None] * self.frame[:, 1])
            acc[sl] = leg.speed * leg.turn_rate * (-s[:, None] * self.frame[:, 0] + c[:, None] * self.frame[:, 1])
            psi_all[sl] = psi
            rate_all[sl] = leg.turn_rate
        c, s = np.cos(psi_all), np.sin(psi_all)
        att_local = np.zeros((n, 3, 3))
        att_local[:, 0, 0] = c
        att_local[:, 0, 1] = -s
        att_local[:, 1, 0] = s
        att_local[:, 1, 1] = c
        att_local[:, 2, 2] = 1.0
        att[:] = np.einsum("ij,njk->nik", self.frame, att_local)
        return att, vel, pos, acc, rate_all

    def batch_states(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized truth attitude, velocity and position at sorted times."""
        att, vel, pos, _, _ = self._batch_full(ts)
        return att, vel, pos

    def batch_ideal_imu(self, ts: np.ndarray, earth: EarthModel) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized noise-free IMU at sorted times."""
        att, vel, pos, acc, rate = self._batch_full(ts)
        gyro = np.einsum("nji,j->ni", att, earth.omega_ie)
        gyro[:, 2] += rate
        coriolis = 2.0 * (vel @ earth.omega_mat.T)
        force_e = acc + coriolis - earth.gravity(pos)
        accel = np.einsum("nji,nj->ni", att, force_e)
        return gyro, accel


@dataclass
class TruthSeries:
    """Truth sampled on the IMU grid (including t = 0)."""

    t: np.ndarray
    att: np.ndarray
    vel: np.ndarray
    pos: np.ndarray
    traj: Trajectory

    def state(self, idx: int) -> NavState:
        return NavState(self.att[idx].copy(), self.vel[idx].copy(), self.pos[idx].copy(), time=self.t[idx])


@dataclass
class ImuStream:
    """Sampled IMU with the bias truth used to generate it.

    Sample k is stamped at the end of its interval; rates are the ideal
    values at the interval midpoint plus noise and bias.  The rates of a
    filter bank's members carry a leading member axis, (N, n, 3), and no
    bias truth.
    """

    t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray
    dt: float
    bias_gyro: np.ndarray | None = None
    bias_accel: np.ndarray | None = None


def generate_truth(cfg: ScenarioConfig, earth: EarthModel) -> TruthSeries:
    traj = Trajectory(cfg)
    n = int(round(cfg.duration * cfg.imu_rate))
    t = np.arange(n + 1) / cfg.imu_rate
    att, vel, pos = traj.batch_states(t)
    return TruthSeries(t, att, vel, pos, traj)


def synthesize_imu(truth: TruthSeries, spec: ImuSpec, cfg: ScenarioConfig, earth: EarthModel, seed) -> ImuStream:
    """Ideal inverse-mechanization IMU plus seeded noise and biases.

    Bias truth is a random constant drawn from the instability figure plus a
    random walk matching the filter's process model.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / cfg.imu_rate
    n = len(truth.t) - 1
    gyro, accel = truth.traj.batch_ideal_imu((np.arange(n) + 0.5) * dt, earth)

    bg0 = rng.normal(scale=spec.gyro_bias_si, size=3)
    ba0 = rng.normal(scale=spec.accel_bias_si, size=3)
    qc = spec.qc()
    walk_g = np.cumsum(rng.normal(scale=np.sqrt(qc[6, 6] * dt), size=(n, 3)), axis=0)
    walk_a = np.cumsum(rng.normal(scale=np.sqrt(qc[9, 9] * dt), size=(n, 3)), axis=0)
    bias_g = bg0 + walk_g
    bias_a = ba0 + walk_a

    gyro += bias_g + rng.normal(scale=spec.gyro_noise_density / np.sqrt(dt), size=(n, 3))
    accel += bias_a + rng.normal(scale=spec.accel_noise_density / np.sqrt(dt), size=(n, 3))
    return ImuStream(truth.t[1:].copy(), gyro, accel, dt, bias_g, bias_a)


def synthesize_gnss(truth: TruthSeries, sigma: float, rate: float, cfg: ScenarioConfig, seed) -> list:
    rng = np.random.default_rng(seed)
    out = []
    step = int(round(cfg.imu_rate / rate))
    start = int(round(cfg.obs_start_s * cfg.imu_rate))
    stored = max(sigma, 1e-12)  # keep the sigma-positive invariant for noise-free synthesis
    for idx in range(start, len(truth.t), step):
        noise = rng.normal(scale=sigma, size=3) if sigma > 0.0 else 0.0
        out.append(GnssVelObs(truth.t[idx], truth.vel[idx] + noise, np.full(3, stored)))
    return out


def synthesize_odo(truth: TruthSeries, sigma: float, rate: float, cfg: ScenarioConfig, seed) -> list:
    rng = np.random.default_rng(seed)
    out = []
    step = int(round(cfg.imu_rate / rate))
    start = int(round(cfg.obs_start_s * cfg.imu_rate))
    stored = max(sigma, 1e-12)
    for idx in range(start, len(truth.t), step):
        body_vel = truth.att[idx].T @ truth.vel[idx]
        noise = rng.normal(scale=sigma, size=3) if sigma > 0.0 else 0.0
        out.append(OdoObs(truth.t[idx], body_vel + noise, np.full(3, stored)))
    return out


VARIANTS = ("ekf", "l-inekf", "r-inekf", "ct-ekf", "sw-ekf")


def variant_config(name: str) -> tuple[ErrorParam, Strategy]:
    """Map a public variant name to (parameterization, update strategy)."""
    table = {
        "ekf": (ErrorParam.ADDITIVE_EKF, Strategy("plain")),
        "l-inekf": (ErrorParam.LEFT_INVARIANT, Strategy("plain")),
        "r-inekf": (ErrorParam.RIGHT_INVARIANT, Strategy("plain")),
        "ct-ekf": (ErrorParam.ADDITIVE_EKF, mixed_sensor_strategy("transform")),
        "sw-ekf": (ErrorParam.ADDITIVE_EKF, mixed_sensor_strategy("switch")),
    }
    if name not in table:
        raise ValueError(f"unknown filter variant {name!r}; expected one of {sorted(table)}")
    return table[name]


def initial_estimate(cfg: ScenarioConfig, truth0: NavState, rng) -> tuple[NavState, np.ndarray]:
    """Initial filter state and additive-parameterization covariance.

    The attitude error is applied deterministically (roll, pitch, yaw about
    the body axes); velocity and position errors are drawn from their sigmas.
    Invariant-parameterization filters map this covariance through the error
    relation so every filter starts with an equivalent uncertainty.
    """
    err = np.asarray(cfg.init_att_err_deg, dtype=float) * DEG
    att0 = truth0.att @ lie.so3_exp(err)
    vel0 = truth0.vel + rng.normal(scale=cfg.init_vel_sigma, size=3)
    pos0 = truth0.pos + rng.normal(scale=cfg.init_pos_sigma, size=3)
    x0 = NavState(att0, vel0, pos0, time=truth0.time)
    p0 = np.diag(
        np.concatenate(
            [
                err**2 + (0.1 * DEG) ** 2,
                np.full(3, cfg.init_vel_sigma**2),
                np.full(3, cfg.init_pos_sigma**2),
                np.full(3, cfg.imu.gyro_bias_si**2),
                np.full(3, cfg.imu.accel_bias_si**2),
            ]
        )
    )
    p0[0:3, 0:3] = att0 @ (np.diag(err**2) + (0.1 * DEG) ** 2 * np.eye(3)) @ att0.T
    return x0, p0


@dataclass
class Scenario:
    """A config's synthesized inputs: the Earth model, the truth, the IMU
    stream, the GNSS and odometry observations (empty when the sensor is
    disabled) and the initial estimate with its additive-parameterization
    covariance."""

    earth: EarthModel
    truth: TruthSeries
    imu: ImuStream
    gnss: list
    odo: list
    x0: NavState
    p0: np.ndarray


def synthesize(cfg: ScenarioConfig) -> Scenario:
    """Synthesize everything a run of ``cfg`` consumes.

    This is the one place that derives the seed streams: the IMU, GNSS and
    odometry draws and the initial estimate each take their own child of
    ``cfg.seed`` (``SeedSequence([seed, 1 | 2 | 3 | 0xC0FFEE])``).  Runs of
    one config therefore see the same inputs, and enabling a sensor leaves
    the other draws unchanged.
    """
    earth = cfg.earth()
    truth = generate_truth(cfg, earth)
    imu = synthesize_imu(truth, cfg.imu, cfg, earth, np.random.SeedSequence([cfg.seed, 1]))
    gnss = (
        synthesize_gnss(truth, cfg.gnss_sigma, cfg.gnss_rate, cfg, np.random.SeedSequence([cfg.seed, 2]))
        if cfg.use_gnss
        else []
    )
    odo = (
        synthesize_odo(truth, cfg.odo_sigma, cfg.odo_rate, cfg, np.random.SeedSequence([cfg.seed, 3]))
        if cfg.use_odo
        else []
    )
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC0FFEE]))
    x0, p0 = initial_estimate(cfg, truth.state(0), rng)
    return Scenario(earth, truth, imu, gnss, odo, x0, p0)


def run_scenario(cfg: ScenarioConfig, variant: str) -> tuple[FilterRun, dict]:
    """Propagate/update a single filter variant through the scenario.

    Returns the :class:`cteskf.filter.FilterRun` and a metrics dict with
    per-axis RMSE after the settling window; a diverged run is flagged
    instead of raising.  The filter runs as a bank of one.
    """
    sc = synthesize(cfg)
    return next(_run_bank(cfg, variant, sc.earth, sc.truth, sc.imu, sc.gnss + sc.odo, sc.x0.select(None), sc.p0[None]))


def _run_bank(cfg, variant, earth, truth, imu, observations, x0, p0):
    """Run a bank of one variant's filters in lockstep from the initial
    estimates ``x0`` (a bank) with additive covariances ``p0`` (N, 15, 15)
    over one truth and time grid; the (run, metrics) of each member, scored
    as it is read."""
    param, strategy = variant_config(variant)
    a0 = relation_matrix(ErrorParam.ADDITIVE_EKF, param, x0, earth)
    fs = FilterState(
        x0, a0 @ p0 @ a0.swapaxes(-1, -2), param, strategy, cfg.injection_mode(), cfg.imu.qc(), earth,
        time_tol=0.6 * imu.dt,
    )
    return ((run, _score(cfg, variant, run, truth)) for run in run_filter(fs, imu, imu.dt, observations))


def _score(cfg, variant, run, truth) -> dict:
    """A run's metrics, from its errors against the truth over the settling
    window; the window holds the last row, since the config keeps its start
    at or before the last sample."""
    if run.diverged:
        return {"variant": variant, "diverged": run.diverged}
    window = run.t >= cfg.settle_time()
    att_err = lie.so3_log(run.att[window] @ truth.att[window].transpose(0, 2, 1))
    return {
        "variant": variant,
        "diverged": None,
        "att_rmse_deg": np.sqrt(np.mean(att_err**2, axis=0)) / DEG,
        "att_rmse_total_deg": float(np.sqrt(np.mean(np.sum(att_err**2, axis=1)))) / DEG,
        "vel_rmse": np.sqrt(np.mean((run.vel[window] - truth.vel[window]) ** 2, axis=0)),
        "pos_rmse": np.sqrt(np.mean((run.pos[window] - truth.pos[window]) ** 2, axis=0)),
        "final_att_err_deg": float(np.linalg.norm(att_err[-1])) / DEG,
    }


def _sweep_cell(args):
    """Mean attitude RMSE per variant over one cell's seeds.  Every seed of
    a cell shares the truth and the time grid (the synthesis stamps the
    observations on the IMU grid), so each variant runs all seeds as one
    bank; a diverged member scores inf."""
    cfg, yaw_deg, seeds, variants = args
    cell = replace(cfg, init_att_err_deg=(cfg.init_att_err_deg[0], cfg.init_att_err_deg[1], yaw_deg))
    starts, shared = [], {}

    def observations():
        # memory bounds the bank: one seed's scenario at a time is
        # synthesized, and only its IMU rates, initial estimate and
        # observations (which stack_observations consumes) are kept
        for i, seed in enumerate(seeds):
            sc = synthesize(replace(cell, seed=seed))
            if not shared:
                rates = (len(seeds),) + sc.imu.gyro.shape
                imu = ImuStream(sc.imu.t, np.empty(rates), np.empty(rates), sc.imu.dt)
                shared.update(earth=sc.earth, truth=sc.truth, imu=imu)
            shared["imu"].gyro[i], shared["imu"].accel[i] = sc.imu.gyro, sc.imu.accel
            starts.append((sc.x0, sc.p0))
            own = sc.gnss + sc.odo
            del sc
            yield own

    observations = stack_observations(observations())
    x0, p0 = zip(*starts)
    x0, p0 = NavState.stack(x0), np.stack(p0)
    earth, truth, imu = shared["earth"], shared["truth"], shared["imu"]
    rows = np.zeros((len(seeds), len(variants)))
    for j, variant in enumerate(variants):
        rows[:, j] = [
            np.inf if metrics["diverged"] else metrics["att_rmse_total_deg"]
            for _, metrics in _run_bank(cell, variant, earth, truth, imu, observations, x0, p0)
        ]
    return rows.mean(axis=0)


@dataclass
class SweepResult:
    yaw_deg: np.ndarray
    variants: tuple
    rmse_deg: np.ndarray  # (cells, variants)


def monte_carlo_sweep(
    cfg: ScenarioConfig, yaw_grid_deg, n_seeds: int, variants=("ekf", "l-inekf", "r-inekf", "ct-ekf"), jobs: int = 1
) -> SweepResult:
    """Attitude RMSE per initial-yaw-error cell, averaged over seeds.

    Cell seeds are derived deterministically from the base seed and the cell
    index, so results do not depend on the execution order or on ``jobs``.
    """
    yaw_grid = np.asarray(list(yaw_grid_deg), dtype=float)
    if yaw_grid.size == 0:
        raise ValueError("yaw grid must not be empty")
    if n_seeds < 1:
        raise ValueError(f"a sweep needs at least one seed per cell, got {n_seeds}")
    tasks = [
        (cfg, yaw, [cfg.seed ^ (cell << 16) ^ s for s in range(n_seeds)], tuple(variants))
        for cell, yaw in enumerate(yaw_grid)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]
    return SweepResult(yaw_grid, tuple(variants), np.vstack(rows))

