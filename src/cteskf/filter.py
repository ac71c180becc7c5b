"""Continuous-discrete error-state Kalman filter engine.

A :class:`FilterState` is a self-contained value (state, covariance and
configuration); every operation returns a new one.  Three update strategies
are provided:

* plain: gain, covariance and injection all in the filter's own
  parameterization;
* switch: covariance is switched into a target parameterization before the
  update and switched back at the updated state afterwards;
* transform: plain update followed by a single covariance transformation
  built from the predicted and updated states.

The transform never changes the updated state relative to the plain update.
For non-iterated updates the switch and transform strategies produce the same
trajectories only under first-order injection, where injecting the
correction in the target parameterization equals injecting it in the
filter's own.  Under the default retraction injection they differ.

:func:`run_filter` is the one event loop that drives a filter through an IMU
sample sequence and its observations.  Between two observations it
propagates the whole segment at once with :func:`mechanize_sequence` and
:func:`propagate_covariance_sequence`, the one strapdown mechanization and
the one covariance recursion of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, lapack

from . import lie
from .errorstate import (
    ErrorParam,
    InjectionMode,
    inject_error,
    relation_matrix,
    system_matrix,
    transformation_matrix,
)
from .ins import EarthModel, ImuSample, NavState, midpoint_translation
from .sensors import Observation, innovation, noise_covariance, observation_matrix

I15 = np.eye(15)
_THREE_I3 = 3.0 * np.eye(3)

MAX_DT = 0.5  # s, the longest propagation step run_filter accepts
CHUNK = 1024  # steps of F, G and P held in memory at once


class FilterDivergence(RuntimeError):
    """Raised when the covariance or state stops being finite or solvable."""


@dataclass
class Strategy:
    """Update strategy: ``plain``, or ``switch``/``transform`` with a map from
    observation kind to the target parameterization."""

    kind: str = "plain"
    targets: dict = field(default_factory=dict)

    def target_for(self, obs_kind: str, own: ErrorParam) -> ErrorParam:
        return self.targets.get(obs_kind, own)


def mixed_sensor_strategy(kind: str = "transform") -> Strategy:
    """Default CT/switch target map: Earth-frame velocity observations to the
    left-invariant representation, body-frame odometry to the right-invariant."""
    return Strategy(
        kind,
        {"gnss_vel": ErrorParam.LEFT_INVARIANT, "odo": ErrorParam.RIGHT_INVARIANT},
    )


@dataclass
class UpdateReport:
    """Diagnostics captured on every observation update."""

    innovation: np.ndarray
    trace_pre: float
    trace_post: float
    target: ErrorParam | None = None
    transform: np.ndarray | None = None


@dataclass
class FilterState:
    """Filter value: navigation state, covariance and configuration."""

    x: NavState
    P: np.ndarray
    param: ErrorParam
    strategy: Strategy = field(default_factory=Strategy)
    injection: InjectionMode = InjectionMode.RETRACTION
    qc: np.ndarray = field(default_factory=lambda: np.zeros((12, 12)))
    earth: EarthModel = field(default_factory=EarthModel)
    time_tol: float = np.inf


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) / 2.0


def _gain_and_update(p: np.ndarray, h: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gain and updated covariance via a symmetric factorization."""
    hp = h @ p
    s = _symmetrize(hp @ h.T + r)
    # s is symmetric, so its singular values are the magnitudes of its
    # eigenvalues and the 2-norm condition number needs no SVD
    ev = np.abs(np.linalg.eigvalsh(s))
    cond = ev.max() / ev.min() if ev.min() > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise FilterDivergence(f"innovation covariance is singular (cond={cond:.3e})")
    # Cholesky factor and solve straight through LAPACK (what cho_factor and
    # cho_solve call), without their per-call argument checks
    c, info = lapack.dpotrf(s)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the innovation covariance is not positive definite")
    k = lapack.dpotrs(c, hp)[0].T
    return k, _symmetrize(p - k @ hp)


def _innovation(fs: FilterState, obs: Observation) -> np.ndarray:
    """The innovation of ``obs`` at the filter's state.  A non-finite one
    (from a non-finite observation) has no finite correction and ends the
    run before K dz is formed."""
    dz = innovation(fs.x, obs, fs.earth, fs.time_tol)
    if not np.isfinite(dz).all():
        raise FilterDivergence(f"non-finite correction from the {obs.kind} observation at t={obs.time:.3f}")
    return dz


def _canonical_correction(xi: np.ndarray, obs: Observation, injection: InjectionMode) -> np.ndarray:
    """Wrap a rotation-vector correction beyond pi onto its canonical
    representative (same rotation, magnitude < pi).

    Transients under very large initial attitude errors can command such
    corrections; for the group-exponential injection the wrap is exact on the
    rotation: one step scales the vector to the remainder of its norm modulo
    2 pi.  First-order injection has no valid reading of them, so they are
    left for inject_error to reject.  A non-finite correction (from a
    non-finite gain or a norm that overflows), or one whose wrapped norm is
    still pi (an odd multiple of pi, with two representatives), has no
    representative and ends the run.
    """
    norm = math.hypot(*xi[0:3].tolist())
    if not (math.isfinite(norm) and np.isfinite(xi).all()):
        raise FilterDivergence(f"non-finite correction from the {obs.kind} observation at t={obs.time:.3f}")
    if norm >= np.pi and injection is InjectionMode.RETRACTION:
        xi = xi.copy()
        xi[0:3] *= math.remainder(norm, 2.0 * np.pi) / norm
        if np.linalg.norm(xi[0:3]) >= np.pi:
            raise FilterDivergence(
                f"attitude correction of norm pi from the {obs.kind} observation at t={obs.time:.3f}"
            )
    return xi


def update_plain(fs: FilterState, obs: Observation) -> tuple[FilterState, UpdateReport]:
    """Kalman update in the filter's own parameterization.

    The predicted error state is zero; the estimated error K dz is injected
    into the navigation state and implicitly reset to zero.
    """
    dz = _innovation(fs, obs)
    h = observation_matrix(fs.param, fs.x, obs.kind, fs.earth)
    k, p_new = _gain_and_update(fs.P, h, noise_covariance(obs))
    xi = _canonical_correction(k @ dz, obs, fs.injection)
    x_new = inject_error(fs.param, fs.x, xi, fs.earth, fs.injection)
    report = UpdateReport(dz, float(np.trace(fs.P)), float(np.trace(p_new)))
    return replace(fs, x=x_new, P=p_new), report


def update_switch(
    fs: FilterState,
    obs: Observation,
    target: ErrorParam,
    backward_at_predicted: bool = False,
) -> tuple[FilterState, UpdateReport]:
    """Covariance switch embedded in the update.

    The predicted covariance is switched into the target parameterization,
    the full update (gain, covariance, injection) runs there, and the updated
    covariance is switched back at the *updated* state.  Switching back at the
    predicted state instead (``backward_at_predicted``) degenerates to the
    plain update and is kept as a negative control.
    """
    if target is fs.param:
        return update_plain(fs, obs)
    dz = _innovation(fs, obs)
    a_fwd = relation_matrix(fs.param, target, fs.x, fs.earth)
    p_target = _symmetrize(a_fwd @ fs.P @ a_fwd.T)
    h = observation_matrix(target, fs.x, obs.kind, fs.earth)
    k, p_target_new = _gain_and_update(p_target, h, noise_covariance(obs))
    xi = _canonical_correction(k @ dz, obs, fs.injection)
    x_new = inject_error(target, fs.x, xi, fs.earth, fs.injection)
    back_state = fs.x if backward_at_predicted else x_new
    a_back = relation_matrix(target, fs.param, back_state, fs.earth)
    p_new = _symmetrize(a_back @ p_target_new @ a_back.T)
    report = UpdateReport(dz, float(np.trace(fs.P)), float(np.trace(p_new)), target)
    return replace(fs, x=x_new, P=p_new), report


def update_transform(
    fs: FilterState, obs: Observation, target: ErrorParam
) -> tuple[FilterState, UpdateReport]:
    """Plain update followed by the single post-update covariance
    transformation built from the predicted and updated states; the updated
    state itself is untouched."""
    x_minus = fs.x
    fs_new, report = update_plain(fs, obs)
    if target is fs.param:
        return fs_new, report
    t = transformation_matrix(fs.param, target, fs_new.x, x_minus, fs.earth)
    p_new = _symmetrize(t @ fs_new.P @ t.T)
    report.target = target
    report.transform = t
    report.trace_post = float(np.trace(p_new))
    return replace(fs_new, P=p_new), report


def step_observation(fs: FilterState, obs: Observation) -> tuple[FilterState, UpdateReport]:
    """Dispatch an observation through the configured strategy."""
    if fs.strategy.kind == "plain":
        return update_plain(fs, obs)
    target = fs.strategy.target_for(obs.kind, fs.param)
    if fs.strategy.kind == "switch":
        return update_switch(fs, obs, target)
    if fs.strategy.kind == "transform":
        return update_transform(fs, obs, target)
    raise ValueError(f"unknown strategy kind {fs.strategy.kind!r}")


def state_difference(a: NavState, b: NavState) -> float:
    """Largest per-block discrepancy between two navigation states."""
    return max(
        float(np.linalg.norm(lie.so3_log(a.att @ b.att.T))),
        float(np.linalg.norm(a.vel - b.vel)),
        float(np.linalg.norm(a.pos - b.pos)),
        float(np.linalg.norm(a.bg - b.bg)),
        float(np.linalg.norm(a.ba - b.ba)),
    )


@dataclass
class FilterRun:
    """What :func:`run_filter` records on the IMU grid, the initial state
    first: sample times, navigation states and the covariance block traces
    (attitude, velocity, position, gyro bias, accelerometer bias).  A diverged
    run ends at its last completed step and carries the divergence message."""

    t: np.ndarray
    att: np.ndarray
    vel: np.ndarray
    pos: np.ndarray
    bg: np.ndarray
    ba: np.ndarray
    p_trace: np.ndarray
    diverged: str | None = None


def run_filter(fs: FilterState, imu, dt: float, observations, on_update=None, update=None) -> FilterRun:
    """Drive one filter through IMU samples and observations.

    ``imu`` holds the samples as arrays, as :class:`cteskf.sim.ImuStream`
    does: times ``t`` (N,) and raw rates ``gyro``, ``accel`` (N, 3), sample k
    held over step k; 0 < ``dt`` <= :data:`MAX_DT`.  The state time after k
    steps is the initial time plus k dt.  After each step, every observation
    stamped at or before that time plus dt/2 is applied, in time order (a
    stable sort); observations after the last sample are never applied, and
    one stamped before the initial time plus dt/2 raises ``ValueError``
    before the first step.  ``update(fs, obs)`` applies one observation and
    returns ``(fs, report)``; ``None`` selects :func:`step_observation`,
    looked up at call time so that a wrapper bound to the module attribute
    (the benchmark's tracer) sees every update.  ``on_update(before, after)``
    receives the filter states around each update.

    The steps up to the next observation (at most :data:`CHUNK`) form one
    segment, propagated at the state's biases by one
    :func:`mechanize_sequence` and one :func:`propagate_covariance_sequence`
    call.  A :class:`FilterDivergence` from an update, or a state or
    covariance that stops being finite, ends the run at the last step
    completed before it.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"propagation step dt={dt} s must be positive and at most {MAX_DT} s")
    update = step_observation if update is None else update
    pending = sorted(observations, key=lambda o: o.time)
    t0 = fs.x.time
    if pending and pending[0].time < t0 + 0.5 * dt:
        early = pending[0]
        raise ValueError(
            f"{early.kind} observation at t={early.time:.6g} precedes the first propagated "
            f"epoch t={t0 + dt:.6g} by more than dt/2"
        )
    n = len(imu.t)
    # the step after which each observation is applied: the first whose end
    # time plus dt/2 reaches its stamp (n: after the last sample, never)
    due = np.searchsorted(t0 + dt * np.arange(1.5, n + 1.0), [o.time for o in pending]).tolist() + [n]
    run = FilterRun(
        np.concatenate(([t0], imu.t)), np.empty((n + 1, 3, 3)), *np.empty((4, n + 1, 3)), np.empty((n + 1, 5))
    )
    _store(run, 0, fs)

    def trimmed(rows, message):
        arrays = {name: getattr(run, name)[:rows] for name in ("t", "att", "vel", "pos", "bg", "ba", "p_trace")}
        return FilterRun(**arrays, diverged=message)

    k = j = 0
    while k < n:
        stop = min(due[j] + 1, k + CHUNK, n)
        x = fs.x
        gyro, accel = imu.gyro[k:stop], imu.accel[k:stop]
        # a non-finite input or result is found below and ends the run
        with np.errstate(invalid="ignore", over="ignore"):
            atts, vels, poss = mechanize_sequence(x, gyro, accel, dt, fs.earth)
            p, history = propagate_covariance_sequence(
                fs.param, fs.P, atts, vels, poss, gyro, accel, x.bg, x.ba, dt, fs.qc, fs.earth, record_every=1
            )
        m = stop - k
        ps = np.array(history[1:])
        finite = np.isfinite(
            np.concatenate((atts[1:].reshape(m, 9), vels[1:], poss[1:], ps.reshape(m, 225)), axis=1)
        ).all(axis=1)
        # the segment's rows but its last, which holds the state after the
        # updates that follow it
        rows = slice(k + 1, stop)
        run.att[rows], run.vel[rows], run.pos[rows], run.bg[rows], run.ba[rows] = (
            atts[1:-1], vels[1:-1], poss[1:-1], x.bg, x.ba
        )
        run.p_trace[rows] = ps[:-1].diagonal(axis1=1, axis2=2).reshape(m - 1, 5, 3).sum(axis=2)
        if not finite.all():
            bad = k + int(np.argmin(finite))
            return trimmed(
                bad + 1, f"state or covariance became non-finite at t={run.t[bad + 1]:.3f} ({fs.param.value})"
            )
        fs = replace(fs, x=NavState(atts[-1], vels[-1], poss[-1], x.bg, x.ba, t0 + stop * dt), P=p)
        try:
            while due[j] < stop:
                before = fs
                fs, _ = update(fs, pending[j])
                j += 1
                if on_update is not None:
                    on_update(before, fs)
        except FilterDivergence as exc:
            return trimmed(stop, str(exc))
        _store(run, stop, fs)
        k = stop
    return run


def _store(run: FilterRun, row: int, fs: FilterState) -> None:
    """Record the filter state and its covariance block traces in one row."""
    x = fs.x
    run.att[row], run.vel[row], run.pos[row], run.bg[row], run.ba[row] = x.att, x.vel, x.pos, x.bg, x.ba
    run.p_trace[row] = fs.P.diagonal().reshape(5, 3).sum(axis=1)


# ---------------------------------------------------------------------------
# The propagation engine: whole segments of steps at fixed biases, without a
# Python loop over matrices.  F and G come from system_matrix evaluated on
# the stacked state history.
# ---------------------------------------------------------------------------


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Running products m[0], m[0] m[1], ..., m[0] ... m[N-1] of an (N,k,k)
    stack by recursive doubling: log2(N) batched matmuls."""
    out = m.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[:-shift] @ out[shift:]
        shift *= 2
    return out


def mechanize_sequence(
    x0: NavState, gyro: np.ndarray, accel: np.ndarray, dt: float, earth: EarthModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strapdown mechanization over raw IMU arrays, biases held at x0's
    values; each sample is the constant rate over its step.

    Per step the attitude advances by the body rotation increment composed
    with the Earth rotation over the step, and velocity and position by the
    midpoint rule of :func:`cteskf.ins.midpoint_translation`.  Returns
    attitude (N+1,3,3), velocity (N+1,3) and position (N+1,3) histories
    including the initial state.
    """
    n = len(gyro)
    omega_b = gyro - x0.bg
    f_b = accel - x0.ba
    body_half = lie.so3_exp(omega_b * (0.5 * dt))

    # attitude: the update R <- E (E R B_k) B_k composes into
    # R_k = E^(2k) R_0 B_0^2 ... B_(k-1)^2, a prefix product, which keeps
    # orthonormality to a few ulps; one Newton step of symmetric
    # orthogonalization, R <- R (3I - R^T R)/2, restores it on the last
    # attitude, where the next segment starts
    atts = np.empty((n + 1, 3, 3))
    atts[0] = x0.att
    atts[1:] = earth.frame_turns(dt, n) @ x0.att @ _prefix_products(body_half @ body_half)
    atts[-1] = atts[-1] @ ((_THREE_I3 - atts[-1].T @ atts[-1]) / 2.0)

    # velocity and position: the midpoint rule on Python floats, since
    # gravity at the current position keeps this loop sequential; the
    # specific force is resolved at the midpoint attitude E R_k B_k
    forces = earth.frame_turn(0.5 * dt) @ atts[:-1] @ (body_half @ f_b[:, :, None])
    vel, pos = tuple(x0.vel.tolist()), tuple(x0.pos.tolist())
    vels, poss = [vel], [pos]
    for f_e in forces[:, :, 0].tolist():
        vel, pos = midpoint_translation(f_e, vel, pos, dt, earth)
        vels.append(vel)
        poss.append(pos)
    return atts, np.array(vels), np.array(poss)


def _compose(phi: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compose per-step transition pairs (N,15,15), earliest step first.

    The recursion P <- Phi P Phi^T + W composes associatively,
    (Phi2, W2) o (Phi1, W1) = (Phi2 Phi1, Phi2 W1 Phi2^T + W2), so adjacent
    pairs are merged level by level; a step left over at an odd level is
    folded into the last merged pair.  Returns the pair of the whole sequence.
    """
    while len(phi) > 1:
        odd = len(phi) % 2
        if odd:
            last_phi, last_w = phi[-1], w[-1]
            phi, w = phi[:-1], w[:-1]
        late = phi[1::2]
        w = late @ w[0::2] @ late.transpose(0, 2, 1) + w[1::2]
        phi = late @ phi[0::2]
        if odd:
            w[-1] = last_phi @ w[-1] @ last_phi.T + last_w
            phi[-1] = last_phi @ phi[-1]
    return phi[0], w[0]


def propagate_covariance_sequence(
    param: ErrorParam,
    p0: np.ndarray,
    atts: np.ndarray,
    vels: np.ndarray,
    poss: np.ndarray,
    gyro: np.ndarray,
    accel: np.ndarray,
    bg: np.ndarray,
    ba: np.ndarray,
    dt: float,
    qc: np.ndarray,
    earth: EarthModel,
    record_every: int = 0,
    chunk: int = CHUNK,
) -> tuple[np.ndarray, list]:
    """Covariance recursion P <- (I + F dt) P (I + F dt)^T + G Qc G^T dt over a
    precomputed state history, with F and G frozen at each step's pre-step
    state and bias-corrected sample; the composition of steps matches the
    step-by-step recursion to rounding.

    The steps between snapshots are composed into one transition pair
    (:func:`_compose`) and applied to P at once; at most ``chunk`` steps are
    held in memory.  Returns the final covariance and, if record_every > 0,
    snapshots taken every that many steps (starting at step 0 with P0).
    """
    n = len(gyro)
    omega_b = gyro - bg
    f_b = accel - ba
    p = np.array(p0, dtype=float)
    history = []
    # segments end on snapshot steps and at chunk ends; without snapshots a
    # chunk is one segment
    every = record_every or chunk
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        sm = system_matrix(
            param,
            NavState(atts[start:stop], vels[start:stop], poss[start:stop]),
            ImuSample(0.0, omega_b[start:stop], f_b[start:stop]),
            earth,
        )
        phi = I15 + sm.F * dt
        w = (sm.G @ qc @ sm.G.transpose(0, 2, 1)) * dt
        bounds = [start, *range(start - start % every + every, stop, every), stop]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if record_every and a % record_every == 0:
                history.append(p)
            phi_seg, w_seg = _compose(phi[a - start : b - start], w[a - start : b - start])
            p = _symmetrize(phi_seg @ p @ phi_seg.T + w_seg)
    if record_every and n % record_every == 0:
        history.append(p)
    return p, history
