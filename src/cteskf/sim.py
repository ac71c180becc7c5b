"""Synthetic truth trajectories, sensor synthesis, scenario execution and
Monte Carlo campaigns.

Trajectories are piecewise-analytic unicycle paths (straight legs and
constant-rate arcs) on a local tangent plane, so the ideal IMU follows in
closed form and zero-noise sensors reproduce the truth exactly.  All noise is
drawn from seeded generators; identical configuration and seed give
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lie
from .errorstate import ErrorParam, InjectionMode, process_noise, relation_matrix
from .filter import CHUNK, FilterRun, FilterState, Strategy, mixed_sensor_strategy, run_filter
from .ins import EARTH_RADIUS, G0, EarthModel, NavState
from .sensors import Observation

DEG = np.pi / 180.0
BANK_BYTES = 24 << 20  # what the members of one Monte Carlo bank hold: attitude record and IMU rates
BIAS_CORR_TIME = 3600.0  # s, the correlation time of the bias random walks in ImuSpec.qc


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

    def qc(self) -> np.ndarray:
        """Continuous 12x12 PSD; bias walks use instability^2 /
        :data:`BIAS_CORR_TIME` as a first-order Gauss-Markov approximation."""
        return process_noise(
            self.gyro_noise_density**2,
            self.accel_noise_density**2,
            self.gyro_bias_si**2 / BIAS_CORR_TIME,
            self.accel_bias_si**2 / BIAS_CORR_TIME,
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
        np.einsum("ij,njk->nik", self.frame, att_local, out=att)
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


def _sample_times(cfg: ScenarioConfig) -> np.ndarray:
    """The times of the truth rows: the initial state and each IMU sample."""
    return np.arange(round(cfg.duration * cfg.imu_rate) + 1) / cfg.imu_rate


def _settle_row(cfg: ScenarioConfig) -> int:
    """The first row of a run's record in the settling window."""
    return int(np.searchsorted(_sample_times(cfg), cfg.settle_time()))


def generate_truth(cfg: ScenarioConfig, earth: EarthModel) -> TruthSeries:
    """The truth on the IMU grid, evaluated :data:`CHUNK` rows at a time
    into the whole-leg arrays, with the bits of one whole-leg evaluation."""
    traj = Trajectory(cfg)
    t = _sample_times(cfg)
    n = len(t)
    att, vel, pos = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 3))
    for a in range(0, n, CHUNK):
        att[a : a + CHUNK], vel[a : a + CHUNK], pos[a : a + CHUNK] = traj.batch_states(t[a : a + CHUNK])
    return TruthSeries(t, att, vel, pos, traj)


def synthesize_imu(truth: TruthSeries, spec: ImuSpec, cfg: ScenarioConfig, earth: EarthModel, seed) -> ImuStream:
    """Ideal inverse-mechanization IMU plus seeded noise and biases."""
    return _imu_with_errors(truth, _ideal_imu(truth, cfg, earth), spec, cfg, seed)


def _ideal_imu(truth: TruthSeries, cfg: ScenarioConfig, earth: EarthModel) -> tuple[np.ndarray, np.ndarray]:
    """The ideal gyro and accelerometer rates (n, 3) at the IMU intervals'
    midpoints, evaluated :data:`CHUNK` intervals at a time into the
    whole-leg arrays, with the bits of one whole-leg evaluation."""
    n = len(truth.t) - 1
    gyro, accel = np.empty((n, 3)), np.empty((n, 3))
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        gyro[a:b], accel[a:b] = truth.traj.batch_ideal_imu((np.arange(a, b) + 0.5) * (1.0 / cfg.imu_rate), earth)
    return gyro, accel


def _imu_with_errors(truth: TruthSeries, ideal, spec: ImuSpec, cfg: ScenarioConfig, seed) -> ImuStream:
    """The ``ideal`` rates of :func:`_ideal_imu` plus seeded noise and
    biases, added in place.

    Bias truth is a random constant drawn from the instability figure plus a
    random walk matching the filter's process model.  Each bias walk is
    summed in its own draw and each noise draw takes its bias before it is
    added to the rates, so beyond its outputs a call holds one (n, 3) draw.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / cfg.imu_rate
    n = len(truth.t) - 1
    gyro, accel = ideal

    bg0 = rng.normal(scale=spec.gyro_bias_si, size=3)
    ba0 = rng.normal(scale=spec.accel_bias_si, size=3)
    qc = spec.qc()
    bias_g = rng.normal(scale=np.sqrt(qc[6, 6] * dt), size=(n, 3))
    np.cumsum(bias_g, axis=0, out=bias_g)
    bias_a = rng.normal(scale=np.sqrt(qc[9, 9] * dt), size=(n, 3))
    np.cumsum(bias_a, axis=0, out=bias_a)
    bias_g += bg0
    bias_a += ba0

    for rates, bias, density in ((gyro, bias_g, spec.gyro_noise_density), (accel, bias_a, spec.accel_noise_density)):
        noise = rng.normal(scale=density / np.sqrt(dt), size=(n, 3))
        noise += bias
        rates += noise
        del noise
    return ImuStream(truth.t[1:].copy(), gyro, accel, dt, bias_g, bias_a)


def synthesize_observations(
    truth: TruthSeries, kind: str, sigma: float, rate: float, cfg: ScenarioConfig, seed
) -> list:
    """Fixes of a sensor ``kind`` (see :class:`cteskf.sensors.Observation`)
    on every ``imu_rate / rate``-th truth sample from ``obs_start_s`` on:
    the true velocity, in the Earth frame or the body frame, plus seeded
    noise of standard deviation ``sigma``, drawn for all fixes at once (the
    bits of one draw per fix).  A list of seeds, one per member of a filter
    bank, gives each fix one ``value`` (N, 3), whose row i holds the bits
    that seed i gives alone, and a shared ``sigma``.  A zero ``sigma``
    draws nothing and stores a sigma of 1e-12, which keeps every fix's
    sigma positive."""
    idx = np.arange(int(round(cfg.obs_start_s * cfg.imu_rate)), len(truth.t), int(round(cfg.imu_rate / rate)))
    exact = truth.vel[idx] if kind == "gnss_vel" else lie.matvec(truth.att[idx].transpose(0, 2, 1), truth.vel[idx])
    bank = isinstance(seed, list)
    values = np.stack(
        [exact + (np.random.default_rng(s).normal(scale=sigma, size=exact.shape) if sigma > 0.0 else 0.0)
         for s in (seed if bank else [seed])],
        axis=1,
    )
    sigmas = np.full((len(idx), 3), max(sigma, 1e-12))
    return [Observation(kind, t, v if bank else v[0], s) for t, v, s in zip(truth.t[idx], values, sigmas)]


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
    """A config's synthesized inputs, or a filter bank's (see
    :func:`synthesize`): the Earth model, the truth, the IMU stream, the
    GNSS and odometry observations (empty when the sensor is disabled) and
    the initial estimate with its additive-parameterization covariance."""

    earth: EarthModel
    truth: TruthSeries
    imu: ImuStream
    gnss: list
    odo: list
    x0: NavState
    p0: np.ndarray


def synthesize(cfg: ScenarioConfig, members=None) -> Scenario:
    """Synthesize everything a run of ``cfg`` consumes.

    This is the one place that derives the seed streams: the IMU, GNSS and
    odometry draws and the initial estimate each take their own child of
    ``cfg.seed`` (``SeedSequence([seed, 1 | 2 | 3 | 0xC0FFEE])``).  Runs of
    one config therefore see the same inputs, and enabling a sensor leaves
    the other draws unchanged.

    ``members`` lists the (initial yaw error, seed) pairs of a filter bank.
    The bank shares the truth, the IMU grid and the observation grid
    (:class:`Trajectory` reads neither the seed nor the initial attitude
    error), so the truth is generated once.  Member i gets the bits of
    ``synthesize(replace(cfg, seed=seed_i, init_att_err_deg=(roll, pitch,
    yaw_i)))``: its IMU rates are row i of ``imu.gyro``/``imu.accel`` (N, n,
    3), which carry no bias truth; each fix is one :class:`Observation`
    whose ``value`` is (N, 3) and whose ``sigma`` (3,) is shared; ``x0`` is
    a bank and ``p0`` (N, 15, 15).  An empty ``members`` raises
    ``ValueError``.
    """
    if members is not None and not len(members):
        raise ValueError("a filter bank needs at least one member")
    earth = cfg.earth()
    truth = generate_truth(cfg, earth)
    roll, pitch, _ = cfg.init_att_err_deg
    configs = [cfg] if members is None else [
        replace(cfg, seed=seed, init_att_err_deg=(roll, pitch, yaw)) for yaw, seed in members
    ]

    def observations(kind: str, sigma: float, rate: float, stream: int) -> list:
        seeds = [np.random.SeedSequence([c.seed, stream]) for c in configs]
        return synthesize_observations(truth, kind, sigma, rate, cfg, seeds[0] if members is None else seeds)

    gnss = observations("gnss_vel", cfg.gnss_sigma, cfg.gnss_rate, 2) if cfg.use_gnss else []
    odo = observations("odo", cfg.odo_sigma, cfg.odo_rate, 3) if cfg.use_odo else []
    x0, p0 = zip(*(
        initial_estimate(c, truth.state(0), np.random.default_rng(np.random.SeedSequence([c.seed, 0xC0FFEE])))
        for c in configs
    ))
    if members is None:
        imu = synthesize_imu(truth, cfg.imu, cfg, earth, np.random.SeedSequence([cfg.seed, 1]))
        x0, p0 = x0[0], p0[0]
    else:
        # the members share the ideal rates; each member's errors, bias
        # truth included, are added to its own rows and only its rates kept
        ideal = _ideal_imu(truth, cfg, earth)
        rates = (len(members), len(truth.t) - 1, 3)
        imu = ImuStream(truth.t[1:].copy(), np.empty(rates), np.empty(rates), 1.0 / cfg.imu_rate)
        for i, c in enumerate(configs):
            imu.gyro[i], imu.accel[i] = ideal
            _imu_with_errors(truth, (imu.gyro[i], imu.accel[i]), c.imu, c, np.random.SeedSequence([c.seed, 1]))
        x0, p0 = NavState.stack(x0), np.stack(p0)
    return Scenario(earth, truth, imu, gnss, odo, x0, p0)


def run_scenario(cfg: ScenarioConfig, variant: str) -> tuple[FilterRun, dict]:
    """Propagate/update a single filter variant through the scenario.

    Returns the :class:`cteskf.filter.FilterRun` and a metrics dict with
    per-axis RMSE after the settling window; a diverged run is flagged
    instead of raising.  The filter runs as a bank of one.
    """
    sc = synthesize(cfg)
    (run,) = run_filter(_bank_filter(cfg, variant, sc), sc.imu, sc.gnss + sc.odo)
    return run, _score(cfg, variant, run, sc.truth)


def _bank_filter(cfg: ScenarioConfig, variant: str, sc: Scenario) -> FilterState:
    """The bank of one variant's filters that starts from the scenario's
    initial estimates, a bank of one for a single scenario."""
    param, strategy = variant_config(variant)
    x0, p0 = (sc.x0.select(None), sc.p0[None]) if sc.p0.ndim == 2 else (sc.x0, sc.p0)
    a0 = relation_matrix(ErrorParam.ADDITIVE_EKF, param, x0, sc.earth)
    return FilterState(x0, a0 @ p0 @ a0.swapaxes(-1, -2), param, strategy, cfg.injection_mode(), cfg.imu.qc(), sc.earth)


def _attitude_errors(cfg, run, truth) -> np.ndarray:
    """A completed run's rotation-vector attitude errors against the truth
    over the settling window; the window holds the last row, since the
    config keeps its start at or before the last sample.  The run's rows
    are the truth's last ones: it may record from a later first row."""
    window = run.t >= cfg.settle_time()
    return lie.so3_log(run.att[window] @ truth.att[len(truth.t) - len(run.t) :][window].transpose(0, 2, 1))


def _rms_deg(att_err: np.ndarray) -> float:
    """The total attitude RMSE, in degrees, of rotation-vector errors."""
    return float(np.sqrt(np.mean(np.sum(att_err**2, axis=1)))) / DEG


def _score(cfg, variant, run, truth) -> dict:
    """A run's metrics, from its errors against the truth over the settling
    window."""
    if run.diverged:
        return {"variant": variant, "diverged": run.diverged}
    window = run.t >= cfg.settle_time()
    att_err = _attitude_errors(cfg, run, truth)
    return {
        "variant": variant,
        "diverged": None,
        "att_rmse_deg": np.sqrt(np.mean(att_err**2, axis=0)) / DEG,
        "att_rmse_total_deg": _rms_deg(att_err),
        "vel_rmse": np.sqrt(np.mean((run.vel[window] - truth.vel[window]) ** 2, axis=0)),
        "pos_rmse": np.sqrt(np.mean((run.pos[window] - truth.pos[window]) ** 2, axis=0)),
        "final_att_err_deg": float(np.linalg.norm(att_err[-1])) / DEG,
    }


def _member_bytes(cfg: ScenarioConfig) -> int:
    """The bytes one sweep member holds: its attitude record over the
    settling window, 9 floats a row, and its IMU rates, 6 floats a step."""
    steps = round(cfg.duration * cfg.imu_rate)
    return 8 * (9 * (steps + 1 - _settle_row(cfg)) + 6 * steps)


def _sweep_bank(args):
    """Total attitude RMSE (members, variants) of one bank of sweep members,
    each a (yaw error, seed) pair: the bank is synthesized on one truth
    (:func:`synthesize`), each variant runs it in lockstep and records only
    the attitude over the settling window, and each member is scored; a
    diverged member scores inf."""
    cfg, members, variants = args
    sc = synthesize(cfg, members)
    first = _settle_row(cfg)
    scores = np.empty((len(members), len(variants)))
    for j, variant in enumerate(variants):
        # unnamed, a variant's records are freed before the next one runs
        scores[:, j] = [
            np.inf if run.diverged else _rms_deg(_attitude_errors(cfg, run, sc.truth))
            for run in run_filter(
                _bank_filter(cfg, variant, sc), sc.imu, sc.gnss + sc.odo, record=("att",), first_row=first
            )
        ]
    return scores


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
    index.  The sweep's members, one per (cell, seed) in cell order, run in
    the fewest banks whose members hold at most :data:`BANK_BYTES`
    (:func:`_member_bytes`; one member at least), as equal in size as they
    can be.  Each bank is synthesized at once (``synthesize(cfg,
    members)``: one truth, one observation per fix), every variant runs on
    it with an attitude-only record of the settling window, and each member
    is scored.  ``jobs > 1`` runs the banks in a process pool.  A member
    gets the bits of its own :func:`run_scenario` in any bank, so results
    depend neither on the split nor on ``jobs``.
    """
    yaw_grid = np.asarray(list(yaw_grid_deg), dtype=float)
    if yaw_grid.size == 0:
        raise ValueError("yaw grid must not be empty")
    if n_seeds < 1:
        raise ValueError(f"a sweep needs at least one seed per cell, got {n_seeds}")
    variants = tuple(variants)
    members = [(yaw, cfg.seed ^ (cell << 16) ^ s) for cell, yaw in enumerate(yaw_grid.tolist()) for s in range(n_seeds)]
    count = -(-len(members) // max(1, BANK_BYTES // _member_bytes(cfg)))
    bounds = [b * len(members) // count for b in range(count + 1)]
    tasks = [(cfg, members[a:b], variants) for a, b in zip(bounds, bounds[1:])]
    if jobs > 1:
        # imported here: multiprocessing would add ~10 ms to every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            scores = list(pool.map(_sweep_bank, tasks))
    else:
        scores = [_sweep_bank(t) for t in tasks]
    cells = np.vstack(scores).reshape(len(yaw_grid), n_seeds, len(variants))
    return SweepResult(yaw_grid, variants, cells.mean(axis=1))
