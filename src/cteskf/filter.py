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
sample sequence and its observations.
"""

from __future__ import annotations

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
from .ins import EarthModel, ImuSample, NavState, correct_imu, midpoint_translation, propagate_state
from .sensors import Observation, innovation, noise_covariance, observation_matrix

I15 = np.eye(15)


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


def propagate(fs: FilterState, u: ImuSample, dt: float) -> FilterState:
    """Advance state and covariance by one IMU step.

    The covariance uses the first-order transition I + F dt with F, G frozen
    at the pre-step estimate: P <- Phi P Phi^T + G Qc G^T dt.
    """
    if not np.isfinite(fs.P).all():
        raise FilterDivergence(f"covariance is non-finite at t={fs.x.time:.3f} ({fs.param.value})")
    corrected = ImuSample(u.time, *correct_imu(fs.x, u))
    sm = system_matrix(fs.param, fs.x, corrected, fs.earth, fs.qc)
    x_new = propagate_state(fs.x, corrected, dt, fs.earth, subtract_biases=False)
    phi = I15 + sm.F * dt
    p_new = phi @ fs.P @ phi.T + (sm.G @ sm.Qc @ sm.G.T) * dt
    p_new = _symmetrize(p_new)
    if not np.isfinite(p_new).all():
        raise FilterDivergence(
            f"covariance became non-finite at t={x_new.time:.3f} ({fs.param.value})"
        )
    return replace(fs, x=x_new, P=p_new)


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
    representative (same rotation, magnitude <= pi).

    Transients under very large initial attitude errors can command such
    corrections; for the group-exponential injection the wrap is exact on the
    rotation.  First-order injection has no valid reading of them, so they
    are left for inject_error to reject.  A non-finite correction (from a
    non-finite gain) has no representative and ends the run.
    """
    if not np.isfinite(xi).all():
        raise FilterDivergence(f"non-finite correction from the {obs.kind} observation at t={obs.time:.3f}")
    norm = np.linalg.norm(xi[0:3])
    if norm >= np.pi and injection is InjectionMode.RETRACTION:
        xi = xi.copy()
        while norm >= np.pi:
            xi[0:3] *= 1.0 - 2.0 * np.pi / norm
            norm = np.linalg.norm(xi[0:3])
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


def run_filter(fs: FilterState, samples, dt: float, observations, on_update=None, update=None) -> FilterRun:
    """Drive one filter through a sequence of IMU samples (anything with a
    length and integer indexing, read one sample per step) and its
    observations.

    After each propagation step, every observation stamped at or before the
    propagated state's time plus dt/2 is applied, in time order (a stable
    sort, so simultaneous observations keep their given order); observations
    after the last sample are never applied.  An observation stamped before
    the initial state's time plus dt/2 matches no propagated epoch, so it
    raises ``ValueError`` before the first step.  ``update(fs, obs)`` applies
    one observation and returns ``(fs, report)``; ``None`` selects
    :func:`step_observation`, looked up at call time so that a wrapper bound
    to the module attribute (the benchmark's tracer) sees every update.
    ``on_update(before, after)`` receives the filter states around each
    update.  A
    :class:`FilterDivergence` ends the run at the last step completed before
    it.
    """
    update = step_observation if update is None else update
    pending = sorted(observations, key=lambda o: o.time)
    if pending and pending[0].time < fs.x.time + 0.5 * dt:
        early = pending[0]
        raise ValueError(
            f"{early.kind} observation at t={early.time:.6g} precedes the first propagated "
            f"epoch t={fs.x.time + dt:.6g} by more than dt/2"
        )
    n = len(samples)
    run = FilterRun(
        np.empty(n + 1), np.empty((n + 1, 3, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 3)),
        np.empty((n + 1, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 5)),
    )

    def record(k, t, f):
        run.t[k] = t
        run.att[k], run.vel[k], run.pos[k] = f.x.att, f.x.vel, f.x.pos
        run.bg[k], run.ba[k] = f.x.bg, f.x.ba
        run.p_trace[k] = f.P.diagonal().reshape(5, 3).sum(axis=1)

    record(0, fs.x.time, fs)
    j = 0
    for k in range(n):
        u = samples[k]
        try:
            fs = propagate(fs, u, dt)
            while j < len(pending) and pending[j].time <= fs.x.time + 0.5 * dt:
                before = fs
                fs, _ = update(fs, pending[j])
                j += 1
                if on_update is not None:
                    on_update(before, fs)
        except FilterDivergence as exc:
            arrays = {name: getattr(run, name)[: k + 1] for name in ("t", "att", "vel", "pos", "bg", "ba", "p_trace")}
            return FilterRun(**arrays, diverged=str(exc))
        record(k + 1, u.time, fs)
    return run


# ---------------------------------------------------------------------------
# Batch helpers for long propagation-only runs.  These reproduce repeated
# propagate()/propagate_state() calls to rounding without a Python loop over
# matrices; equivalence is pinned by tests.  F and G come from the same
# system_matrix as the per-step path, evaluated on a stacked state.
# ---------------------------------------------------------------------------


def _so3_exp_batch(phi: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(phi, axis=-1)
    small = theta < lie.SMALL_ANGLE
    t2 = theta * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / theta)
        b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(theta)) / t2)
    px = lie.skew(phi)
    return np.eye(3) + a[..., None, None] * px + b[..., None, None] * (px @ px)


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
    """Run :func:`cteskf.ins.propagate_state` over raw IMU arrays.

    Returns attitude (N+1,3,3), velocity (N+1,3) and position (N+1,3)
    histories including the initial state.  Biases are held at x0's values.
    """
    n = len(gyro)
    omega_b = gyro - x0.bg
    f_b = accel - x0.ba
    earth_half = earth.frame_turn(0.5 * dt)
    body_half = _so3_exp_batch(omega_b * (0.5 * dt))

    # attitude: without the per-step renormalization the update
    # R <- E (E R B_k) B_k composes into R_k = E^(2k) R_0 B_0^2 ... B_(k-1)^2,
    # a prefix product; one Newton step restores orthonormality at the end
    earth_turn = _so3_exp_batch(np.arange(1, n + 1)[:, None] * (earth.omega_ie * -dt))
    atts = np.empty((n + 1, 3, 3))
    atts[0] = x0.att
    atts[1:] = earth_turn @ x0.att @ _prefix_products(body_half @ body_half)
    atts[1:] = atts[1:] @ ((3.0 * np.eye(3) - np.swapaxes(atts[1:], -1, -2) @ atts[1:]) / 2.0)
    att_mid = earth_half @ atts[:-1] @ body_half

    # velocity and position: the midpoint rule on Python floats, since
    # gravity at the current position keeps this loop sequential
    vel, pos = tuple(x0.vel.tolist()), tuple(x0.pos.tolist())
    vels, poss = [vel], [pos]
    for f_e in np.einsum("nij,nj->ni", att_mid, f_b).tolist():
        vel, pos = midpoint_translation(f_e, vel, pos, dt, earth)
        vels.append(vel)
        poss.append(pos)
    return atts, np.array(vels), np.array(poss)


def _compose(phi: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compose per-step transition pairs along axis -3, earliest step first.

    The recursion P <- Phi P Phi^T + W composes associatively,
    (Phi2, W2) o (Phi1, W1) = (Phi2 Phi1, Phi2 W1 Phi2^T + W2), so adjacent
    pairs are merged level by level; a step left over at an odd level is
    folded into the last merged pair.  Returns the pair of the whole sequence.
    """
    while phi.shape[-3] > 1:
        odd = phi.shape[-3] % 2
        if odd:
            last_phi, last_w = phi[..., -1, :, :], w[..., -1, :, :]
            phi, w = phi[..., :-1, :, :], w[..., :-1, :, :]
        late = phi[..., 1::2, :, :]
        w = late @ w[..., 0::2, :, :] @ np.swapaxes(late, -1, -2) + w[..., 1::2, :, :]
        phi = late @ phi[..., 0::2, :, :]
        if odd:
            w[..., -1, :, :] = last_phi @ w[..., -1, :, :] @ np.swapaxes(last_phi, -1, -2) + last_w
            phi[..., -1, :, :] = last_phi @ phi[..., -1, :, :]
    return phi[..., 0, :, :], w[..., 0, :, :]


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
    chunk: int = 1024,
) -> tuple[np.ndarray, list]:
    """Covariance recursion P <- (I + F dt) P (I + F dt)^T + G Qc G^T dt over a
    precomputed state history; matches repeated :func:`propagate` calls to
    rounding.

    The steps between snapshots are composed into one transition pair
    (:func:`_compose`) and applied to P at once; at most ``chunk`` steps are
    held in memory.  Returns the final covariance and, if record_every > 0,
    snapshots taken every that many steps (starting at step 0 with P0).
    """
    n = len(gyro)
    omega_b = gyro - bg
    f_b = accel - ba
    p = _symmetrize(np.array(p0, dtype=float))
    history = []
    # segments end on snapshot steps; without snapshots a chunk is a segment
    seg = record_every or chunk
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
        # a partial segment up to the first snapshot step in the chunk, whole
        # segments (composed as one batch), then a partial one to the chunk end
        head = min(-(-start // seg) * seg, stop) - start
        full = (stop - start - head) // seg
        tail = head + full * seg
        pairs = []
        if head:
            pairs.append((head, *_compose(phi[:head], w[:head])))
        if full:
            shape = (full, seg, 15, 15)
            phis, ws = _compose(phi[head:tail].reshape(shape), w[head:tail].reshape(shape))
            pairs += [(seg, phi_seg, w_seg) for phi_seg, w_seg in zip(phis, ws)]
        if tail < stop - start:
            pairs.append((stop - start - tail, *_compose(phi[tail:], w[tail:])))
        step = start
        for length, phi_seg, w_seg in pairs:
            if record_every and step % record_every == 0:
                history.append(p.copy())
            p = _symmetrize(phi_seg @ p @ phi_seg.T + w_seg)
            step += length
    if record_every and n % record_every == 0:
        history.append(p.copy())
    return p, history
