"""Named property checks for the equivalence and transformation claims.

Each check runs a deterministic experiment with fixed seeds and returns a
:class:`PropertyResult` carrying the measured worst-case value against its
tolerance.  ``run_all`` executes the whole battery at ``fast`` or ``full``
level; the full level matches the acceptance suite.

Scenario notes.  The update-level identities (state coincidence between
switch/transform filters and natively parameterized ones) hold exactly only
while the error-relation matrices stay constant over each propagation
interval; the checks therefore run on a stationary, rotation-free,
gravity-free scenario where that premise is met and the identities can be
tested at 1e-8..1e-12.  Under full dynamics the same quantities degrade to
the discrete-propagation defect, which the propagation-equivalence check
bounds explicitly (and which shrinks linearly with the IMU step).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from . import lie
from .errorstate import (
    ErrorParam,
    InjectionMode,
    relation_matrix,
    transformation_matrix,
    transformation_matrix_generic,
)
from .filter import (
    FilterDivergence,
    FilterState,
    Strategy,
    mechanize_sequence,
    propagate_covariance_sequence,
    run_filter,
    step_observation,
)
from .ins import EarthModel, NavState, left_rate_matrix, right_rate_matrix
from .sim import AVIATION_IMU, ImuSpec, ScenarioConfig, monte_carlo_sweep, run_scenario, synthesize

EKF = ErrorParam.ADDITIVE_EKF
LEFT = ErrorParam.LEFT_INVARIANT
RIGHT = ErrorParam.RIGHT_INVARIANT
PARAMS = (EKF, LEFT, RIGHT)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e} vs tolerance"
            f" {self.tolerance:.3e} ({self.elapsed_s:.1f}s) {self.detail}"
        )


def _result(name, measured, tolerance, detail=""):
    return PropertyResult(name, bool(measured < tolerance), float(measured), float(tolerance), detail)


def _timed(check):
    """Set ``elapsed_s`` on the result of a check to the check's wall time."""

    @functools.wraps(check)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = check(*args, **kwargs)
        result.elapsed_s = time.perf_counter() - t0
        return result

    return timed


def _random_states(rng, count):
    for _ in range(count):
        yield NavState(
            lie.so3_exp(rng.uniform(-2.0, 2.0, 3)),
            rng.normal(scale=5.0, size=3),
            rng.normal(scale=50.0, size=3),
        )


def _perturb(rng, x):
    out = x.copy()
    out.att = lie.so3_exp(rng.normal(scale=0.05, size=3)) @ x.att
    out.vel = x.vel + rng.normal(scale=1.0, size=3)
    out.pos = x.pos + rng.normal(scale=2.0, size=3)
    return out


@_timed
def check_group_affine(seed=0, trials=100) -> PropertyResult:
    """The SE2(3) kinematic generator satisfies the group-affine identity;
    the classical Coriolis form does not (negative control)."""
    rng = np.random.default_rng(seed)
    earth = EarthModel()
    worst = 0.0
    control = 0.0
    ident = np.eye(5)
    for _ in range(trials):
        w = left_rate_matrix(rng.normal(scale=0.5, size=3), rng.normal(scale=10.0, size=3))
        u = right_rate_matrix(rng.normal(scale=10.0, size=3), earth.omega_ie)
        chi1 = lie.GroupState(
            lie.so3_exp(rng.normal(size=3)), rng.normal(scale=10, size=3), rng.normal(scale=100, size=3)
        ).as_matrix()
        chi2 = lie.GroupState(
            lie.so3_exp(rng.normal(size=3)), rng.normal(scale=10, size=3), rng.normal(scale=100, size=3)
        ).as_matrix()

        def f_u(m):
            return m @ w + u @ m

        residual = f_u(chi1 @ chi2) - f_u(chi1) @ chi2 - chi1 @ f_u(chi2) + chi1 @ f_u(ident) @ chi2
        worst = max(worst, float(np.abs(residual).max()))

        def f_classic(m):
            rot, v = m[:3, :3], m[:3, 3]
            out = np.zeros((5, 5))
            out[:3, :3] = rot @ w[:3, :3] - earth.omega_mat @ rot
            out[:3, 3] = rot @ w[:3, 3] - 2.0 * (earth.omega_mat @ v)
            out[:3, 4] = v
            return out

        res_c = (
            f_classic(chi1 @ chi2)
            - f_classic(chi1) @ chi2
            - chi1 @ f_classic(chi2)
            + chi1 @ f_classic(np.eye(5)) @ chi2
        )
        control = max(control, float(np.abs(res_c).max()))
    detail = f"classical-model control residual {control:.3e} (must exceed 1e-3): {'ok' if control > 1e-3 else 'BAD'}"
    out = _result("group-affine-property", worst, 1e-9, detail)
    out.passed = out.passed and control > 1e-3
    return out


@_timed
def check_transform_closure(seed=0, trials=100) -> PropertyResult:
    """All six closed-form covariance transformations equal the generic
    A^-1(x+) A(x-) composition and have unit determinant."""
    rng = np.random.default_rng(seed)
    earth = EarthModel(gravity_mode="constant")
    worst = 0.0
    worst_det = 0.0
    for x_minus in _random_states(rng, trials):
        x_plus = _perturb(rng, x_minus)
        for src in PARAMS:
            for dst in PARAMS:
                if src is dst:
                    continue
                closed = transformation_matrix(src, dst, x_plus, x_minus, earth)
                generic = transformation_matrix_generic(src, dst, x_plus, x_minus, earth)
                worst = max(worst, float(np.linalg.norm(closed - generic)))
                worst_det = max(worst_det, abs(float(np.linalg.det(closed)) - 1.0))
    detail = f"max |det(T)-1| = {worst_det:.3e}"
    out = _result("transform-closure", worst, 1e-10, detail)
    out.passed = out.passed and worst_det < 1e-10
    return out


@_timed
def check_propagation_equivalence(rate=200.0, tol=1e-3, seed=0) -> PropertyResult:
    """Covariances of the three parameterizations stay relation-equivalent
    through a 60 s propagation-only run on a circle at full Earth physics.

    The premise is identical states with equivalent covariances, so the
    large initial attitude errors enter the covariance only; the shared
    estimated trajectory starts on the truth.
    """
    cfg = ScenarioConfig(
        kind="circle", duration=60.0, speed=5.0, radius=500.0, imu_rate=rate, imu=AVIATION_IMU, use_gnss=False,
        init_att_err_deg=(60.0, 60.0, 120.0), seed=seed, gravity_mode="spherical",
    )
    sc = synthesize(cfg)
    earth, gyro, accel, dt = sc.earth, sc.imu.gyro[0], sc.imu.accel[0], sc.imu.dt
    x0 = sc.truth.state(0)
    err = np.radians(np.asarray(cfg.init_att_err_deg))
    p0 = np.diag(
        np.concatenate(
            [
                err**2,
                np.full(3, cfg.init_vel_sigma**2),
                np.full(3, cfg.init_pos_sigma**2),
                np.full(3, cfg.imu.gyro_bias_si**2),
                np.full(3, cfg.imu.accel_bias_si**2),
            ]
        )
    )
    p0[0:3, 0:3] = x0.att @ np.diag(err**2) @ x0.att.T
    atts, vels, poss = mechanize_sequence(x0, gyro, accel, dt, earth)
    qc = cfg.imu.qc()
    finals = {}
    for param in PARAMS:
        a0 = relation_matrix(EKF, param, x0, earth)
        finals[param], _ = propagate_covariance_sequence(
            param, a0 @ p0 @ a0.T, atts, vels, poss, gyro, accel, np.zeros(3), np.zeros(3), dt, qc, earth,
        )
    x_end = NavState(atts[-1], vels[-1], poss[-1])
    worst = 0.0
    for a in PARAMS:
        for b in PARAMS:
            if a is b:
                continue
            rel = relation_matrix(b, a, x_end, earth)
            mism = np.linalg.norm(finals[a] - rel @ finals[b] @ rel.T) / np.linalg.norm(finals[a])
            worst = max(worst, float(mism))
    return _result(f"propagation-equivalence-{int(rate)}hz", worst, tol)


def _quiet_config(**kw) -> ScenarioConfig:
    """The stationary, rotation-free, gravity-free scenario of the module
    notes; ``kw`` overrides its fields, and the fields of neither keep their
    defaults (GNSS velocity at 1 Hz, no odometry, seed 0)."""
    quiet = dict(
        kind="stationary",
        duration=200.0,
        imu_rate=100.0,
        imu=AVIATION_IMU,
        init_att_err_deg=(1.0, 1.0, 2.0),
        earth_rotation=False,
        gravity_mode="zero",
        anchor="origin",
        injection="first-order",
    )
    return ScenarioConfig(**{**quiet, **kw})


def state_difference(a: NavState, b: NavState) -> float:
    """Largest per-block discrepancy between two navigation states."""
    return max(
        float(np.linalg.norm(lie.so3_log(a.att @ b.att.T))),
        float(np.linalg.norm(a.vel - b.vel)),
        float(np.linalg.norm(a.pos - b.pos)),
        float(np.linalg.norm(a.bg - b.bg)),
        float(np.linalg.norm(a.ba - b.ba)),
    )


def _series_max_diff(sa, sb) -> float:
    # |R1 - R2|_F = 2 sqrt(2) |sin(theta/2)|, so the Frobenius norm over
    # sqrt(2) reads the relative rotation angle accurately for small angles
    att = np.linalg.norm(sa.att - sb.att, axis=(1, 2)) / np.sqrt(2.0)
    worst = float(att.max())
    for field in ("vel", "pos"):
        diff = np.linalg.norm(getattr(sa, field) - getattr(sb, field), axis=1)
        worst = max(worst, float(diff.max()))
    return worst


@_timed
def check_first_update_identity(seed=0) -> PropertyResult:
    """All three parameterizations produce the same state at their first
    update from equivalent initial uncertainties, and the updated covariances
    satisfy the predicted-state relation; a shared raw covariance matrix is
    the negative control."""
    cfg = _quiet_config(duration=2.0, imu_rate=200.0, init_att_err_deg=(60.0, 60.0, 120.0), seed=seed)
    sc = synthesize(cfg)
    earth, x0, p0, obs = sc.earth, sc.x0, sc.p0, sc.gnss[0]
    # noise-free IMU keeps the error-relation matrices exactly constant over
    # the pre-update propagation, so the update-identity premises hold exactly; the
    # filters still run the full aviation-grade Qc and a noisy observation.
    # Only the IMU comes from the ideal spec: p0's bias blocks follow cfg.imu
    stream = synthesize(replace(cfg, imu=ImuSpec(1e-15, 1e-15, 1e-15, 1e-15))).imu

    def run_bank(equivalent: bool):
        updates = []  # (before, after) of each filter's update, banks of one
        for param in PARAMS:
            a0 = relation_matrix(EKF, param, x0, earth) if equivalent else np.eye(15)
            p = a0 @ p0 @ a0.swapaxes(-1, -2)
            fs = FilterState(x0.copy(), p, param, Strategy(), InjectionMode.FIRST_ORDER, cfg.imu.qc(), earth)
            (run,) = run_filter(fs, stream, [obs], lambda before, after: updates.append((before, after)))
            if run.diverged:
                raise FilterDivergence(run.diverged)
        x_pred = updates[0][0].x.select(0)
        bank = [after.select(0) for _, after in updates]
        diff = max(state_difference(bank[0].x, f.x) for f in bank[1:])
        resid = 0.0
        for f in bank[1:]:
            a = relation_matrix(f.param, EKF, x_pred, earth)
            resid = max(
                resid,
                float(np.linalg.norm(bank[0].P - a @ f.P @ a.T) / np.linalg.norm(bank[0].P)),
            )
        return diff, resid

    diff, resid = run_bank(equivalent=True)
    control_diff, _ = run_bank(equivalent=False)
    detail = (
        f"P-relation residual {resid:.3e} (tol 1e-9); raw-P negative control diff"
        f" {control_diff:.3e} (must exceed 1e-3)"
    )
    out = _result("first-update-identity", diff, 1e-9, detail)
    out.passed = out.passed and resid < 1e-9 and control_diff > 1e-3
    return out


def _variant_gap(a: str, b: str, **quiet) -> tuple[float, object, object]:
    """Variants ``a`` and ``b`` run on ``_quiet_config(**quiet)``: the
    largest difference between their trajectories (:func:`_series_max_diff`),
    inf when either run diverges, and the two runs."""
    cfg = _quiet_config(**quiet)
    (sa, ma), (sb, mb) = run_scenario(cfg, a), run_scenario(cfg, b)
    return (np.inf if ma["diverged"] or mb["diverged"] else _series_max_diff(sa, sb)), sa, sb


@_timed
def check_switch_effectiveness(duration=200.0, tol=1e-8, seed=0) -> PropertyResult:
    """The additive filter with covariance switch to the left-invariant
    representation reproduces the native left-invariant filter's trajectory
    through a full run of velocity updates."""
    gap, _, _ = _variant_gap("sw-ekf", "l-inekf", duration=duration, seed=seed)
    return _result("switch-effectiveness", gap, tol, "" if gap < np.inf else "diverged")


@_timed
def check_switch_ineffectiveness(duration=60.0, tol=1e-12, seed=0) -> PropertyResult:
    """Backward-switching at the predicted state collapses the switch filter
    onto the plain one, covariance and all."""
    cfg = _quiet_config(duration=duration, seed=seed)
    sc = synthesize(cfg)
    plain = FilterState(sc.x0, sc.p0, EKF, Strategy(), InjectionMode.FIRST_ORDER, cfg.imu.qc(), sc.earth)

    def witness(fs, obs):
        # an update no Strategy selects: switch to the left-invariant
        # representation and back at the predicted state
        switch = replace(fs, strategy=Strategy("switch", {"gnss_vel": LEFT}))
        return step_observation(switch, obs, back_at_predicted=True)

    logs = []
    for update in (None, witness):
        log = []
        (run,) = run_filter(plain, sc.imu, sc.gnss, lambda _, after: log.append(after.select(0)), update)
        if run.diverged or not log or len(log) < len(sc.gnss):
            detail = run.diverged or f"{len(log)} of {len(sc.gnss)} observations applied"
            return PropertyResult("switch-ineffectiveness", False, np.inf, tol, detail)
        logs.append(log)
    worst = max(
        max(float(np.linalg.norm(a.P - b.P)), state_difference(a.x, b.x)) for a, b in zip(*logs)
    )
    return _result("switch-ineffectiveness", worst, tol)


@_timed
def check_transform_equals_switch(duration=200.0, tol=1e-10, seed=0) -> PropertyResult:
    """Transform- and switch-based filters coincide (states and covariances)
    on a mixed velocity + odometry run."""
    gap, sa, sb = _variant_gap("ct-ekf", "sw-ekf", duration=duration, use_odo=True, seed=seed)
    if not gap < np.inf:
        return _result("transform-equals-switch", gap, tol, "diverged")
    p_diff = float(np.abs(sa.p_trace - sb.p_trace).max() / max(1.0, np.abs(sb.p_trace).max()))
    return _result("transform-equals-switch", max(gap, p_diff), tol, f"P-trace diff {p_diff:.3e}")


@_timed
def check_ct_coincidence(duration=200.0, tol=1e-8, imu_rate=100.0, seed=0, name="ct-coincidence") -> PropertyResult:
    """CT filter matches the native target filter: the left-invariant target
    on a velocity-only run and the right-invariant target on an odometry-only
    run."""
    diff_l, _, _ = _variant_gap("ct-ekf", "l-inekf", duration=duration, imu_rate=imu_rate, seed=seed)
    diff_r, _, _ = _variant_gap(
        "ct-ekf", "r-inekf", duration=duration, imu_rate=imu_rate, use_gnss=False, use_odo=True,
        odo_rate=min(10.0, imu_rate), seed=seed,
    )
    gap = max(diff_l, diff_r)
    detail = f"vel->left {diff_l:.3e}, odo->right {diff_r:.3e}" if gap < np.inf else "diverged"
    return _result(name, gap, tol, detail)


@_timed
def check_ordering(seed=0, jobs=1, n_seeds=10) -> PropertyResult:
    """Monte Carlo yaw sweep with velocity + odometry observations: the CT
    filter's attitude RMSE does not exceed the additive filter's in any cell
    with |yaw error| >= 90 deg, and beats the left-invariant filter in at
    least 80% of those cells."""
    cfg = ScenarioConfig(
        kind="circle",
        duration=120.0,
        speed=5.0,
        radius=100.0,
        imu_rate=30.0,
        use_gnss=True,
        use_odo=True,
        init_att_err_deg=(60.0, 60.0, 0.0),
        seed=seed,
        injection="retraction",
        settle_s=60.0,
    )
    grid = np.arange(-150.0, 151.0, 30.0)
    sweep = monte_carlo_sweep(cfg, grid, n_seeds, variants=("ekf", "l-inekf", "ct-ekf"), jobs=jobs)
    idx = {v: j for j, v in enumerate(sweep.variants)}
    big = np.abs(sweep.yaw_deg) >= 90.0
    ct = sweep.rmse_deg[big, idx["ct-ekf"]]
    ekf = sweep.rmse_deg[big, idx["ekf"]]
    linekf = sweep.rmse_deg[big, idx["l-inekf"]]
    margin = float((ct - ekf).max())  # must be <= 0 in every big-error cell
    frac = float(np.mean(ct <= linekf))
    detail = f"max(ct-ekf)-rmse margin {margin:.3e} deg; beats l-inekf in {frac:.0%} of cells"
    out = _result("ordering-reproduction", margin, 0.0, detail)
    out.passed = bool(margin <= 0.0 and frac >= 0.8)
    return out


def run_all(level: str = "fast", seed: int = 0, jobs: int = 1) -> list[PropertyResult]:
    """Run the property battery; ``fast`` completes in well under a minute,
    ``full`` matches the acceptance suite (including the Monte Carlo sweep)."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verify level {level!r}")
    fast = level == "fast"
    results = [
        check_group_affine(seed),
        check_transform_closure(seed),
        check_propagation_equivalence(200.0, 1e-3, seed),
    ]
    if not fast:
        results.append(check_propagation_equivalence(2000.0, 1e-5, seed))
    results += [
        check_first_update_identity(seed),
        check_switch_effectiveness(30.0 if fast else 200.0, 1e-8, seed),
        check_switch_ineffectiveness(20.0 if fast else 60.0, 1e-12, seed),
        check_transform_equals_switch(30.0 if fast else 200.0, 1e-10, seed),
        check_ct_coincidence(30.0 if fast else 200.0, 1e-8, 100.0, seed),
        check_ct_coincidence(
            60.0 if fast else 200.0, 1e-6, 2.0, seed, name="slow-propagation-coincidence"
        ),
    ]
    if not fast:
        results.append(check_ordering(seed, jobs))
    return results
