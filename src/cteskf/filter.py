"""Continuous-discrete error-state Kalman filter engine.

A :class:`FilterState` is a self-contained value (state, covariance and
configuration); every operation returns a new one.  Its state and covariance
may carry a leading member axis (``P`` (N, 15, 15), ``x.att`` (N, 3, 3),
...): a *bank* of N filters of one configuration, which every operation
below advances at once.  A single filter is evaluated as a bank of one.
:func:`step_observation`, the one update, provides three strategies:

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

:func:`run_filter` is the one event loop: it drives a bank that shares one
IMU time grid and one observation grid through its IMU samples and
observations.  Between two observations it propagates the whole
segment at once with :func:`mechanize_sequence` and
:func:`propagate_covariance_sequence`, the one strapdown mechanization and
the one covariance recursion of the package.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, fields, replace

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
from .sensors import Observation, innovation, noise_covariance, observation_matrix, select_members

I15 = np.eye(15)
_THREE_I3 = 3.0 * np.eye(3)

MAX_DT = 0.5  # s, the longest propagation step run_filter accepts
CHUNK = 1024  # member-steps of F, G and P held in memory at once


class FilterDivergence(RuntimeError):
    """Raised when the covariance or state stops being finite or solvable.

    ``members`` maps the index of each member of a bank that diverged to its
    message; ``None`` stands for every member, with this message."""

    def __init__(self, message: str, members: dict | None = None):
        super().__init__(message)
        self.members = members


def _diverge(bad: np.ndarray, message) -> None:
    """Raise :class:`FilterDivergence` for the members flagged in ``bad``,
    each with its ``message(index)``."""
    flagged = np.flatnonzero(bad).tolist()
    if flagged:
        members = {i: message(i) for i in flagged}
        raise FilterDivergence(members[flagged[0]], members)


@dataclass
class Strategy:
    """Update strategy: ``plain``, or ``switch``/``transform`` with a map from
    observation kind to the target parameterization."""

    kind: str = "plain"
    targets: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("plain", "switch", "transform"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")


def mixed_sensor_strategy(kind: str = "transform") -> Strategy:
    """Default CT/switch target map: Earth-frame velocity observations to the
    left-invariant representation, body-frame odometry to the right-invariant."""
    return Strategy(
        kind,
        {"gnss_vel": ErrorParam.LEFT_INVARIANT, "odo": ErrorParam.RIGHT_INVARIANT},
    )


@dataclass
class FilterState:
    """Filter value: navigation state, covariance and configuration; a bank
    when ``P`` is (N, 15, 15) and ``x`` carries the same member axis."""

    x: NavState
    P: np.ndarray
    param: ErrorParam
    strategy: Strategy = field(default_factory=Strategy)
    injection: InjectionMode = InjectionMode.RETRACTION
    qc: np.ndarray = field(default_factory=lambda: np.zeros((12, 12)))
    earth: EarthModel = field(default_factory=EarthModel)

    def select(self, idx) -> "FilterState":
        """Index the member axis, as :meth:`cteskf.ins.NavState.select` does."""
        return replace(self, x=self.x.select(idx), P=self.P[idx])


def _t(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + _t(p)) / 2.0


def _gain_and_update(p: np.ndarray, h: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gain and updated covariance via a symmetric factorization, for
    one filter or a bank ((..., 15, 15), (..., 3, 15), (..., 3, 3))."""
    hp = h @ p
    s = _symmetrize(hp @ _t(h) + r)
    # s is symmetric, so its singular values are the magnitudes of its
    # eigenvalues and the 2-norm condition number needs no SVD
    ev = np.abs(np.linalg.eigvalsh(s))
    lo, hi = ev.min(axis=-1), ev.max(axis=-1)
    if not (lo.min() > 0.0 and (hi / lo).max() <= 1e12):
        cond = [h / l if l > 0.0 else np.inf for h, l in zip(np.ravel(hi).tolist(), np.ravel(lo).tolist())]
        _diverge(~(np.array(cond) <= 1e12), lambda i: f"innovation covariance is singular (cond={cond[i]:.3e})")
    # Cholesky factor and solve straight through LAPACK (what cho_factor and
    # cho_solve call), without their per-call argument checks
    s3, hp3 = s.reshape(-1, 3, 3), hp.reshape(-1, 3, 15)
    k = np.empty((len(s3), 15, 3))
    for i, (si, hpi) in enumerate(zip(s3, hp3)):
        c, info = lapack.dpotrf(si)
        if info > 0:
            raise LinAlgError(f"{info}-th leading minor of the innovation covariance is not positive definite")
        k[i] = lapack.dpotrs(c, hpi)[0].T
    k = k.reshape(hp.shape[:-2] + (15, 3))
    return k, _symmetrize(p - k @ hp)


def _innovation(fs: FilterState, obs: Observation) -> np.ndarray:
    """The innovation of ``obs`` at the filter's state.  A non-finite one
    (from a non-finite observation) has no finite correction and ends the
    member's run before K dz is formed."""
    dz = innovation(fs.x, obs)
    if not np.isfinite(dz).all():
        _diverge(
            ~np.isfinite(dz).all(axis=-1),
            lambda i: f"non-finite correction from the {obs.kind} observation at t={obs.time:.3f}",
        )
    return dz


def _canonical_correction(xi: np.ndarray, obs: Observation, injection: InjectionMode) -> np.ndarray:
    """Wrap a rotation-vector correction beyond pi onto its canonical
    representative (same rotation, magnitude < pi); one correction (15,) or
    one per member (..., 15).

    Transients under very large initial attitude errors can command such
    corrections; for the group-exponential injection the wrap is exact on the
    rotation: one step scales the vector to the remainder of its norm modulo
    2 pi.  First-order injection has no valid reading of a correction at or
    beyond pi, so one ends the member's run.  A non-finite correction (from
    a non-finite gain or a norm that overflows), or one whose wrapped norm is
    still pi (an odd multiple of pi, with two representatives), has no
    representative and ends the member's run too.
    """
    rows = xi.reshape(-1, 15)
    norms = [math.hypot(*v) for v in rows[:, 0:3].tolist()]
    if not (np.isfinite(rows).all() and math.isfinite(sum(norms))):
        _diverge(
            ~(np.isfinite(rows).all(axis=1) & np.isfinite(norms)),
            lambda i: f"non-finite correction from the {obs.kind} observation at t={obs.time:.3f}",
        )
    if max(norms) >= np.pi:
        if injection is InjectionMode.FIRST_ORDER:
            _diverge(
                np.array(norms) >= np.pi,
                lambda i: f"first-order attitude correction at or beyond pi from the {obs.kind} observation "
                f"at t={obs.time:.3f}",
            )
        rows = rows.copy()
        still = np.zeros(len(rows), dtype=bool)
        for i, norm in enumerate(norms):
            if norm >= np.pi:
                rows[i, 0:3] *= math.remainder(norm, 2.0 * np.pi) / norm
                still[i] = np.linalg.norm(rows[i, 0:3]) >= np.pi
        _diverge(still, lambda i: f"attitude correction of norm pi from the {obs.kind} observation at t={obs.time:.3f}")
        xi = rows.reshape(xi.shape)
    return xi


def step_observation(fs: FilterState, obs: Observation, back_at_predicted: bool = False) -> FilterState:
    """Apply one observation to a bank through its strategy: one gain and
    injection, in the switch target of ``obs.kind`` for ``switch`` and in the
    filter's own parameterization otherwise, then the switch back or the
    transformation.  The predicted error state is zero; the estimated error
    K dz is injected into the navigation state and implicitly reset to zero.
    ``back_at_predicted`` switches back at the predicted state instead of the
    updated one, which degenerates to the plain update and is kept as a
    negative control.  A single filter is passed as ``fs.select(None)``.
    """
    if fs.P.ndim != 3:
        raise ValueError("step_observation updates a bank: pass a single filter as fs.select(None)")
    own = fs.param
    target = own if fs.strategy.kind == "plain" else fs.strategy.targets.get(obs.kind, own)
    gain = target if fs.strategy.kind == "switch" else own
    dz = _innovation(fs, obs)
    p = fs.P
    if gain is not own:
        a = relation_matrix(own, gain, fs.x, fs.earth)
        p = _symmetrize(a @ p @ _t(a))
    h = observation_matrix(gain, fs.x, obs.kind, fs.earth)
    k, p = _gain_and_update(p, h, noise_covariance(obs))
    xi = _canonical_correction(lie.matvec(k, dz), obs, fs.injection)
    x = inject_error(gain, fs.x, xi, fs.earth, fs.injection)
    if target is not own:
        if fs.strategy.kind == "switch":
            back = relation_matrix(target, own, fs.x if back_at_predicted else x, fs.earth)
        else:
            back = transformation_matrix(own, target, x, fs.x, fs.earth)
        p = _symmetrize(back @ p @ _t(back))
    return replace(fs, x=x, P=p)


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
    first: sample times, and the attitudes, velocities, positions and
    covariance block traces (attitude, velocity, position, gyro bias,
    accelerometer bias) that its ``record`` names; a field it does not
    record is ``None``.  A diverged run ends at its last completed step and
    carries the divergence message as the attribute ``diverged``, outside
    the fields, which are the arrays."""

    t: np.ndarray
    att: np.ndarray | None
    vel: np.ndarray | None
    pos: np.ndarray | None
    p_trace: np.ndarray | None
    diverged: InitVar[str | None] = None

    def __post_init__(self, diverged):
        self.diverged = diverged


# the FilterRun fields that run_filter can record, and the shape of a record
_RECORDED = {"att": (3, 3), "vel": (3,), "pos": (3,), "p_trace": (5,)}


def run_filter(fs: FilterState, imu, observations, on_update=None, update=None, record=tuple(_RECORDED)):
    """Drive a bank of filters in lockstep through IMU samples and
    observations; a single filter is a bank of one, ``fs.select(None)``.

    ``imu`` holds the samples as arrays, as :class:`cteskf.sim.ImuStream`
    does: times ``t`` (n,) and raw rates ``gyro``, ``accel``, (n, 3) shared
    by every member or (N, n, 3) one row per member of a bank of N, and the
    step ``dt``, 0 < ``dt`` <= :data:`MAX_DT`; sample k is held over step k.
    The state time after k steps is the initial time plus k dt.  After each
    step, every observation stamped at or before that time plus dt/2 is
    applied, in time order (a stable sort); observations after the last
    sample are never applied, and one stamped before the initial time plus
    dt/2 raises ``ValueError`` before the first step.  So every update sees
    a state within dt/2 of its stamp, the one observation-time check.  The
    members share the observation grid: an observation's ``value`` and
    ``sigma`` are shared or hold one row per member, as the fixes that
    :func:`cteskf.sim.synthesize` draws for a bank do; another number of
    rows raises ``ValueError`` before the first step.

    ``update(bank, obs)`` applies one observation to the members still
    running and returns the updated bank; ``None`` selects
    :func:`step_observation`, looked up at call time so that a wrapper
    bound to the module attribute (the benchmark's tracer) sees every
    update.  ``on_update(before, after)`` receives the banks of the members
    still running around each update.

    ``record`` names the :class:`FilterRun` fields to record, of ``att``,
    ``vel``, ``pos`` and ``p_trace`` (``t`` is always recorded); a field it
    leaves out is ``None``, and an unknown name raises ``ValueError`` before
    the first step.  A run holds (members x (n + 1)) rows of each field it
    records.

    The steps up to the next observation (at most :data:`CHUNK`) form one
    segment, propagated at the state's biases by one
    :func:`mechanize_sequence` call and :func:`propagate_covariance_sequence`
    calls of at most :data:`CHUNK` member-steps.  A member whose state or
    covariance stops being finite, or whose update raises
    :class:`FilterDivergence`, ends its run at the last step completed
    before it and leaves the bank; the others run on.  Returns one
    :class:`FilterRun` per member; a 2-D ``P`` raises ``ValueError``.
    """
    dt = imu.dt
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"propagation step dt={dt} s must be positive and at most {MAX_DT} s")
    if fs.P.ndim != 3:
        raise ValueError("run_filter runs a bank: pass a single filter as fs.select(None)")
    unknown = set(record) - {f.name for f in fields(FilterRun)}
    if unknown:
        raise ValueError(f"run_filter cannot record {sorted(unknown)}; FilterRun records {['t', *_RECORDED]}")
    bank, size = fs, len(fs.P)
    update = update or step_observation
    pending = sorted(observations, key=lambda o: o.time)
    for obs in pending:
        rows = {len(a) for a in (obs.value, obs.sigma) if a.ndim == 2}
        if rows - {size}:
            raise ValueError(f"{obs.kind} observation at t={obs.time:.6g} has {rows} member rows, the bank {size}")
    t0 = bank.x.time
    if pending and pending[0].time < t0 + 0.5 * dt:
        early = pending[0]
        raise ValueError(
            f"{early.kind} observation at t={early.time:.6g} precedes the first propagated "
            f"epoch t={t0 + dt:.6g} by more than dt/2"
        )
    n = len(imu.t)
    gyro = np.broadcast_to(imu.gyro, (size, n, 3))
    accel = np.broadcast_to(imu.accel, (size, n, 3))
    # the step after which each observation is applied: the first whose end
    # time plus dt/2 reaches its stamp (n: after the last sample, never)
    due = np.searchsorted(t0 + dt * np.arange(1.5, n + 1.0), [o.time for o in pending]).tolist() + [n]
    t = np.concatenate(([t0], imu.t))
    stores = {name: np.empty((size, n + 1) + shape) for name, shape in _RECORDED.items() if name in record}
    ends = [(n + 1, None)] * size
    active = np.arange(size)

    def leave(failed: dict):
        """End the runs of the members at the bank indices in ``failed``,
        each with its (rows recorded, message); the indices that run on."""
        nonlocal active
        for i, end in failed.items():
            ends[active[i]] = end
        keep = np.setdiff1d(np.arange(len(active)), list(failed))
        active = active[keep]
        return keep

    _store(stores, slice(None), 0, bank.x, _traces(bank.P))
    k = j = 0
    while k < n and len(active):
        stop = min(due[j] + 1, k + CHUNK, n)
        # a slice indexes a full bank faster than an index array
        members = active if len(active) < size else slice(None)
        seg_gyro, seg_accel = gyro[members, k:stop], accel[members, k:stop]
        # a non-finite input or result is found below and ends its member
        with np.errstate(invalid="ignore", over="ignore"):
            atts, vels, poss = mechanize_sequence(bank.x, seg_gyro, seg_accel, dt, bank.earth)
            p, traces, finite = _covariances(bank, atts, vels, poss, seg_gyro, seg_accel, dt)
        finite &= np.isfinite(atts[:, 1:]).all(axis=(2, 3))
        finite &= np.isfinite(vels[:, 1:]).all(axis=2) & np.isfinite(poss[:, 1:]).all(axis=2)
        # the segment's rows but its last, which holds the state after the
        # updates that follow it
        interior = NavState(atts[:, 1:-1], vels[:, 1:-1], poss[:, 1:-1])
        _store(stores, members, slice(k + 1, stop), interior, traces[:, :-1])
        if not finite.all():
            bad = (k + np.argmin(finite, axis=1)).tolist()
            keep = leave({
                i: (bad[i] + 1, f"state or covariance became non-finite at t={t[bad[i] + 1]:.3f} ({bank.param.value})")
                for i in np.flatnonzero(~finite.all(axis=1)).tolist()
            })
            bank, atts, vels, poss, p = bank.select(keep), atts[keep], vels[keep], poss[keep], p[keep]
            if not len(active):
                break
        x = NavState(atts[:, -1], vels[:, -1], poss[:, -1], bank.x.bg, bank.x.ba, t0 + stop * dt)
        bank = replace(bank, x=x, P=p)
        while due[j] < stop and len(active):
            obs = pending[j] if len(active) == size else select_members(pending[j], active)
            before = bank
            try:
                bank = update(bank, obs)
            except FilterDivergence as exc:
                failed = exc.members or dict.fromkeys(range(len(active)), str(exc))
                # the members left retry the observation
                bank = before.select(leave({i: (stop, message) for i, message in failed.items()}))
                continue
            j += 1
            if on_update is not None:
                on_update(before, bank)
        if len(active):
            _store(stores, active if len(active) < size else slice(None), stop, bank.x, _traces(bank.P))
        k = stop
    return [
        FilterRun(t[:rows], **{name: stores[name][i, :rows] if name in stores else None for name in _RECORDED},
                  diverged=message)
        for i, (rows, message) in enumerate(ends)
    ]


def _traces(p: np.ndarray) -> np.ndarray:
    """The block traces (..., 5) of covariances (..., 15, 15), in state order."""
    return p.diagonal(axis1=-2, axis2=-1).reshape(p.shape[:-2] + (5, 3)).sum(axis=-1)


def _covariances(bank: FilterState, atts, vels, poss, gyro, accel, dt):
    """The covariance recursion of a bank over a segment's state histories,
    in calls of at most :data:`CHUNK` member-steps: the final covariances,
    and each member's covariance block traces (M, m, 5) after each step and
    whether its covariance is finite there (M, m)."""
    members, m = gyro.shape[:2]
    piece = max(1, CHUNK // members)
    p, traces, finite = bank.P, np.empty((members, m, 5)), np.empty((members, m), dtype=bool)
    for a in range(0, m, piece):
        b = min(a + piece, m)
        p, history = propagate_covariance_sequence(
            bank.param, p, atts[:, a : b + 1], vels[:, a : b + 1], poss[:, a : b + 1], gyro[:, a:b], accel[:, a:b],
            bank.x.bg, bank.x.ba, dt, bank.qc, bank.earth, record_every=1,
        )
        ps = np.array(history[1:]).swapaxes(0, 1)
        finite[:, a:b] = np.isfinite(ps).all(axis=(2, 3))
        traces[:, a:b] = _traces(ps)
    return p, traces, finite


def _store(stores: dict, members, rows, x: NavState, traces: np.ndarray) -> None:
    """Write states and covariance block traces into the recorded fields at
    the bank ``members`` and the record ``rows`` (one row or a range)."""
    values = {"att": x.att, "vel": x.vel, "pos": x.pos, "p_trace": traces}
    for name, store in stores.items():
        store[members, rows] = values[name]


# ---------------------------------------------------------------------------
# The propagation engine: whole segments of steps at fixed biases, without a
# Python loop over matrices.  F and G come from system_matrix evaluated on
# the stacked state history.  The step axis is the third from last of every
# stack (-2 of a vector stack), so a leading member axis runs a bank.
# ---------------------------------------------------------------------------


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Running products m[0], m[0] m[1], ..., m[0] ... m[N-1] along the step
    axis of a (..., N, k, k) stack by recursive doubling: log2(N) batched
    matmuls."""
    out = m.copy()
    shift = 1
    while shift < out.shape[-3]:
        out[..., shift:, :, :] = out[..., :-shift, :, :] @ out[..., shift:, :, :]
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
    including the initial state.  A bank (x0 fields and samples with a
    leading member axis, ``gyro`` (M, N, 3)) gives (M, N+1, ...) histories.
    """
    n = gyro.shape[-2]
    omega_b = gyro - x0.bg[..., None, :]
    f_b = accel - x0.ba[..., None, :]
    body_half = lie.so3_exp(omega_b * (0.5 * dt))

    # attitude: the update R <- E (E R B_k) B_k composes into
    # R_k = E^(2k) R_0 B_0^2 ... B_(k-1)^2, a prefix product, which keeps
    # orthonormality to a few ulps; one Newton step of symmetric
    # orthogonalization, R <- R (3I - R^T R)/2, restores it on the last
    # attitude, where the next segment starts
    atts = np.empty(omega_b.shape[:-2] + (n + 1, 3, 3))
    atts[..., 0, :, :] = x0.att
    atts[..., 1:, :, :] = earth.frame_turns(dt, n) @ x0.att[..., None, :, :] @ _prefix_products(body_half @ body_half)
    last = atts[..., -1, :, :]
    atts[..., -1, :, :] = last @ ((_THREE_I3 - _t(last) @ last) / 2.0)

    # velocity and position: the midpoint rule on Python floats, member by
    # member, since gravity at the current position keeps this loop
    # sequential; the specific force is resolved at the midpoint attitude
    # E R_k B_k
    forces = earth.frame_turn(0.5 * dt) @ atts[..., :-1, :, :] @ (body_half @ f_b[..., None])
    count = math.prod(atts.shape[:-3])
    vels, poss = _midpoint_histories(
        forces.reshape(count, n, 3), x0.vel.reshape(count, 3), x0.pos.reshape(count, 3), dt, earth
    )
    shape = atts.shape[:-2] + (3,)
    return atts, np.array(vels).reshape(shape), np.array(poss).reshape(shape)


def _midpoint_histories(forces, vel0, pos0, dt, earth) -> tuple[list, list]:
    """Each member's velocity and position history, initial state first, one
    after the other, from its Earth-frame specific forces (M, N, 3) and
    initial velocity and position (M, 3)."""
    vels, poss = [], []
    for member, vel, pos in zip(forces.tolist(), vel0.tolist(), pos0.tolist()):
        vel, pos = tuple(vel), tuple(pos)
        vels.append(vel)
        poss.append(pos)
        for f_e in member:
            vel, pos = midpoint_translation(f_e, vel, pos, dt, earth)
            vels.append(vel)
            poss.append(pos)
    return vels, poss


def _compose(phi: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compose per-step transition pairs (N, ..., 15, 15), earliest step
    first along the first axis.

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
        w = late @ w[0::2] @ _t(late) + w[1::2]
        phi = late @ phi[0::2]
        if odd:
            w[-1] = last_phi @ w[-1] @ _t(last_phi) + last_w
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
) -> tuple[np.ndarray, list]:
    """Covariance recursion P <- (I + F dt) P (I + F dt)^T + G Qc G^T dt over a
    precomputed state history, with F and G frozen at each step's pre-step
    state and bias-corrected sample; the composition of steps matches the
    step-by-step recursion to rounding.

    The steps between snapshots are composed into one transition pair
    (:func:`_compose`) and applied to P at once; at most :data:`CHUNK`
    steps are held in memory.  Returns the final covariance and, if
    record_every > 0, snapshots taken every that many steps (starting at
    step 0 with P0).  A
    bank (``p0`` (M, 15, 15), histories as :func:`mechanize_sequence` gives
    them and biases (M, 3)) propagates every member at once.
    """
    n = gyro.shape[-2]
    omega_b = gyro - bg[..., None, :]
    f_b = accel - ba[..., None, :]
    p = np.array(p0, dtype=float)
    history = []
    # segments end on snapshot steps and at chunk ends; without snapshots a
    # chunk is one segment
    every = record_every or CHUNK
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        sm = system_matrix(
            param,
            NavState(atts[..., start:stop, :, :], vels[..., start:stop, :], poss[..., start:stop, :]),
            ImuSample(0.0, omega_b[..., start:stop, :], f_b[..., start:stop, :]),
            earth,
        )
        # the step axis first, ahead of a member axis
        phi = np.moveaxis(I15 + sm.F * dt, -3, 0)
        w = np.moveaxis((sm.G @ qc @ _t(sm.G)) * dt, -3, 0)
        bounds = [start, *range(start - start % every + every, stop, every), stop]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if record_every and a % record_every == 0:
                history.append(p)
            phi_seg, w_seg = _compose(phi[a - start : b - start], w[a - start : b - start])
            p = _symmetrize(phi_seg @ p @ _t(phi_seg) + w_seg)
    if record_every and n % record_every == 0:
        history.append(p)
    return p, history
