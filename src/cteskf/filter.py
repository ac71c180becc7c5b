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
segment at once with :func:`mechanize_sequence`, the one strapdown
mechanization of the package, and steps the covariance through the
segment's transition pairs.  :func:`propagate_covariance_sequence` composes
those pairs instead, for a long propagation-only leg.
"""

from __future__ import annotations

import bisect
import logging
import math
from collections import Counter
from dataclasses import InitVar, dataclass, field, fields, replace

import numpy as np

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
# the piece size of every whole-leg stage: member-steps of a run_filter
# covariance piece, steps of a composed run or a mechanization piece, rows
# of a truth or ideal-IMU piece.  A piece's (512, 15, 15) transition stacks
# (0.9 MB) fit a 2 MiB L2 cache.  The piece size leaves the bits of
# truth, IMU and mechanization unchanged; composed covariances move at
# rounding level
CHUNK = 512
MIDPOINT_COLUMNS = 16  # bank size from which mechanize_sequence runs the midpoint rule on member arrays


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
    """Kalman gain and updated covariance by one batched solve, for one
    filter or a bank ((..., 15, 15), (..., 3, 15), (..., 3, 3)).  A member
    whose innovation covariance is not positive definite, or whose condition
    number exceeds 1e12, ends its run; so does one whose innovation
    covariance is not finite, before the eigenvalues are sought."""
    # a covariance that overflows is found below and ends its member
    with np.errstate(over="ignore", invalid="ignore"):
        hp = h @ p
        s = _symmetrize(hp @ _t(h) + r)
    if not np.isfinite(s).all():
        _diverge(~np.isfinite(s).all(axis=(-2, -1)), lambda i: "innovation covariance is not finite")
    # ascending eigenvalues of the symmetric s: a positive first one makes it
    # positive definite, and last/first is then its condition number
    ev = np.linalg.eigvalsh(s)
    lo, hi = ev[..., 0], ev[..., -1]
    _diverge(
        ~((lo > 0.0) & (hi <= 1e12 * lo)),
        lambda i: f"innovation covariance is not positive definite or has condition number above 1e12 "
        f"(eigenvalues {np.ravel(lo)[i]:.3e} to {np.ravel(hi)[i]:.3e})",
    )
    k = _t(np.linalg.solve(s, hp))
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


@dataclass
class FilterRun:
    """What :func:`run_filter` records on the IMU grid from its first
    recorded row, by default the initial state: sample times, and the
    attitudes, velocities, positions and covariance block traces (attitude,
    velocity, position, gyro bias, accelerometer bias) that its ``record``
    names; a field it does not record is ``None``.  A diverged run ends at its last completed step and
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


def _check_step(dt: float) -> None:
    """Raise ``ValueError`` unless 0 < ``dt`` <= :data:`MAX_DT`."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"propagation step dt={dt} s must be positive and at most {MAX_DT} s")


def run_filter(
    fs: FilterState, imu, observations, on_update=None, update=None, record=tuple(_RECORDED), first_row: int = 0
):
    """Drive a bank of filters in lockstep through IMU samples and
    observations; a single filter is a bank of one, ``fs.select(None)``.

    ``imu`` holds the samples as arrays, as :class:`cteskf.sim.ImuStream`
    does: times ``t`` (n,) and raw rates ``gyro``, ``accel``, (n, 3) shared
    by every member or (N, n, 3) one row per member of a bank of N, and the
    step ``dt``, 0 < ``dt`` <= :data:`MAX_DT`; sample k is held over step k.
    The state time after k steps is the initial time plus k dt.  After each
    step, every observation stamped at or before that time plus dt/2 is
    applied, in time order (a stable sort); observations after the last
    sample are never applied, and each call logs their count per kind at
    debug level on the ``cteskf.filter`` logger; one stamped before the
    initial time plus dt/2 raises ``ValueError`` before the first step.  So
    every update sees a state within dt/2 of its stamp, the one
    observation-time check.  The members share the observation grid and
    each fix's ``sigma``: its ``value`` is shared or holds one row per
    member, as the fixes that :func:`cteskf.sim.synthesize` draws for a
    bank do; another number of rows raises ``ValueError`` before the first
    step.

    ``update(bank, obs)`` applies one observation to the members still
    running and returns the updated bank; ``None`` selects
    :func:`step_observation`, looked up at call time so that a wrapper
    bound to the module attribute (the benchmark's tracer) sees every
    update.  ``on_update(before, after)`` receives the banks of the members
    still running around each update.

    ``record`` names the :class:`FilterRun` fields to record, of ``att``,
    ``vel``, ``pos`` and ``p_trace`` (``t`` is always recorded); a field it
    leaves out is ``None``, and an unknown name raises ``ValueError`` before
    the first step.  Row k of the record holds the state after k steps (row
    0 the initial state), and the rows before ``first_row`` are not
    recorded: a run holds (members x (n + 1 - ``first_row``)) rows of each
    field it records, ``t`` included, and a member that ends before
    ``first_row`` holds none.  A ``first_row`` outside 0..n raises
    ``ValueError`` before the first step.

    The steps up to the next observation (at most :data:`CHUNK`) form one
    segment, propagated at the state's biases by one
    :func:`mechanize_sequence` call and the step-by-step covariance
    recursion of :func:`_covariances`.  A member whose state or
    covariance stops being finite, or whose update raises
    :class:`FilterDivergence`, ends its run at the last step completed
    before it and leaves the bank; the others run on.  Returns one
    :class:`FilterRun` per member; a 2-D ``P`` raises ``ValueError``.
    """
    dt = imu.dt
    _check_step(dt)
    if fs.P.ndim != 3:
        raise ValueError("run_filter runs a bank: pass a single filter as fs.select(None)")
    unknown = set(record) - {f.name for f in fields(FilterRun)}
    if unknown:
        raise ValueError(f"run_filter cannot record {sorted(unknown)}; FilterRun records {['t', *_RECORDED]}")
    n = len(imu.t)
    if not 0 <= first_row <= n:
        raise ValueError(f"first recorded row {first_row} lies outside the record's rows 0..{n}")
    bank, size = fs, len(fs.P)
    update = update or step_observation
    w_fixed = _step_free_noise(fs.param, fs.qc, dt)
    pending = sorted(observations, key=lambda o: o.time)
    for obs in pending:
        rows = len(obs.value) if obs.value.ndim == 2 else size
        if rows != size:
            raise ValueError(f"{obs.kind} observation at t={obs.time:.6g} has {rows} member rows, the bank {size}")
    t0 = bank.x.time
    if pending and pending[0].time < t0 + 0.5 * dt:
        early = pending[0]
        raise ValueError(
            f"{early.kind} observation at t={early.time:.6g} precedes the first propagated "
            f"epoch t={t0 + dt:.6g} by more than dt/2"
        )
    gyro = np.broadcast_to(imu.gyro, (size, n, 3))
    accel = np.broadcast_to(imu.accel, (size, n, 3))
    # the step after which each observation is applied: the first whose end
    # time plus dt/2 reaches its stamp (n: after the last sample, never)
    due = np.searchsorted(t0 + dt * np.arange(1.5, n + 1.0), [o.time for o in pending]).tolist() + [n]
    late = Counter(o.kind for o in pending[bisect.bisect_left(due, n) :])
    if late:
        logging.getLogger(__name__).debug(
            "observations never applied, stamped after the last sample's time plus dt/2, t=%.6g: %s",
            t0 + (n + 0.5) * dt, ", ".join(f"{count} {kind}" for kind, count in late.items()),
        )
    t = np.concatenate(([t0], imu.t))
    stores = {name: np.empty((size, n + 1 - first_row) + shape) for name, shape in _RECORDED.items() if name in record}
    traced = "p_trace" in stores

    def store_row(members, row: int, bank: FilterState):
        """Record the bank's state and covariance block traces as ``row``."""
        x, traces = bank.x, _traces(bank.P.diagonal(axis1=-2, axis2=-1))[:, None] if traced else None
        _store(stores, members, row - first_row, NavState(x.att[:, None], x.vel[:, None], x.pos[:, None]), traces)

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

    store_row(slice(None), 0, bank)
    k = j = 0
    while k < n and len(active):
        stop = min(due[j] + 1, k + CHUNK, n)
        # a slice indexes a full bank faster than an index array
        members = active if len(active) < size else slice(None)
        seg_gyro, seg_accel = gyro[members, k:stop], accel[members, k:stop]
        # a non-finite input or result is found below and ends its member
        with np.errstate(invalid="ignore", over="ignore"):
            atts, vels, poss = mechanize_sequence(bank.x, seg_gyro, seg_accel, dt, bank.earth)
            p, traces, finite = _covariances(bank, atts, vels, poss, seg_gyro, seg_accel, dt, w_fixed, traced)
        finite &= np.isfinite(atts[:, 1:]).all(axis=(2, 3))
        finite &= np.isfinite(vels[:, 1:]).all(axis=2) & np.isfinite(poss[:, 1:]).all(axis=2)
        # the segment's rows but its last, which holds the state after the
        # updates that follow it
        interior = NavState(atts[:, 1:-1], vels[:, 1:-1], poss[:, 1:-1])
        _store(stores, members, k + 1 - first_row, interior, traces[:, :-1] if traced else None)
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
            store_row(active if len(active) < size else slice(None), stop, bank)
        k = stop
    return [
        FilterRun(
            t[first_row:rows],
            **{name: stores[name][i, : max(0, rows - first_row)] if name in stores else None for name in _RECORDED},
            diverged=message,
        )
        for i, (rows, message) in enumerate(ends)
    ]


def _traces(diag: np.ndarray) -> np.ndarray:
    """The block traces (..., 5) of covariances from their diagonals (..., 15), in state order."""
    return diag.reshape(diag.shape[:-1] + (5, 3)).sum(axis=-1)


def _covariances(bank: FilterState, atts, vels, poss, gyro, accel, dt, w_fixed, traced: bool):
    """The covariance recursion P <- sym(Phi_k P Phi_k^T + W_k) of a bank
    over a segment's state histories, one step after the other, with the
    transition pairs (:func:`_step_pairs`, ``w_fixed`` as there) built for
    pieces of at most :data:`CHUNK` member-steps at once.  Returns the final
    covariances, whether each member's covariance is finite after each step
    (M, m), and, when ``traced``, its covariance block traces there
    (M, m, 5), else ``None``.

    Once a covariance is not finite it stays so, so a finite final
    covariance clears every step of its piece; only a piece whose final
    covariance is not finite is stepped again from its first covariance,
    checking each step."""
    members, m = gyro.shape[:2]
    piece = max(1, CHUNK // members)
    p, finite = bank.P, np.ones((members, m), dtype=bool)
    diags = np.empty((members, m, 15)) if traced else None
    omega_b, f_b = gyro - bank.x.bg[:, None], accel - bank.x.ba[:, None]
    for a in range(0, m, piece):
        b = min(a + piece, m)
        phi, w = _step_pairs(
            bank.param, NavState(atts[:, a:b], vels[:, a:b], poss[:, a:b]),
            ImuSample(0.0, omega_b[:, a:b], f_b[:, a:b]), dt, bank.qc, bank.earth, w_fixed,
        )
        q = p
        for k in range(b - a):
            p = _symmetrize(phi[k] @ p @ _t(phi[k]) + w[k])
            if traced:
                diags[:, a + k] = p.diagonal(axis1=-2, axis2=-1)
        if not np.isfinite(p).all():
            for k in range(b - a):
                q = _symmetrize(phi[k] @ q @ _t(phi[k]) + w[k])
                finite[:, a + k] = np.isfinite(q).all(axis=(1, 2))
    return p, _traces(diags) if traced else None, finite


def _store(stores: dict, members, start: int, x: NavState, traces) -> None:
    """Write the states and covariance block traces (M, rows, ...) of
    consecutive rows into the recorded fields at the bank ``members``, the
    first at the stored row ``start``; rows before stored row 0 are not
    recorded and are dropped."""
    stop = start + x.att.shape[1]
    if stop <= 0:
        return
    skip = max(0, -start)
    rows = slice(start + skip, stop)
    values = {"att": x.att, "vel": x.vel, "pos": x.pos, "p_trace": traces}
    for name, store in stores.items():
        store[members, rows] = values[name][:, skip:]


# ---------------------------------------------------------------------------
# The propagation engine: whole segments of steps at fixed biases, without a
# Python loop over matrices.  F and G come from system_matrix evaluated on
# the stacked state history.  The step axis is the third from last of every
# stack (-2 of a vector stack), so a leading member axis runs a bank.
# ---------------------------------------------------------------------------


def _prefix_products(m: np.ndarray) -> None:
    """Replace a (..., N, k, k) stack by its running products m[0],
    m[0] m[1], ..., m[0] ... m[N-1] along the step axis, by recursive
    doubling: log2(N) batched matmuls, each level's product the one
    temporary.  Row i's product depends on rows <= i only, so a longer
    stack leaves the bits of its first rows."""
    shift = 1
    while shift < m.shape[-3]:
        m[..., shift:, :, :] = m[..., :-shift, :, :] @ m[..., shift:, :, :]
        shift *= 2


def mechanize_sequence(
    x0: NavState, gyro: np.ndarray, accel: np.ndarray, dt: float, earth: EarthModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strapdown mechanization over raw IMU arrays, biases held at x0's
    values; each sample is the constant rate over its step.

    Per step the attitude advances by the body rotation increment composed
    with the Earth rotation over the step, and velocity and position by the
    midpoint rule of :func:`cteskf.ins.midpoint_translation`, on member
    arrays for a bank of at least :data:`MIDPOINT_COLUMNS` members and on
    floats below, with the same bits either way.  Returns
    attitude (N+1,3,3), velocity (N+1,3) and position (N+1,3) histories
    including the initial state.  A bank (x0 fields and samples with a
    leading member axis, ``gyro`` (M, N, 3)) gives (M, N+1, ...) histories.

    Beyond these histories a call holds one level of the attitude prefix
    product and the temporaries of one piece of at most :data:`CHUNK`
    steps; the pieces give the bits of one whole-leg piece.  The half
    increments of each piece are evaluated twice, except for the last
    piece's, which are kept: a one-piece leg, such as a :func:`run_filter`
    segment, evaluates them once.
    """
    n = gyro.shape[-2]
    lead = x0.att.shape[:-2]
    count = math.prod(lead)
    atts = np.empty(lead + (n + 1, 3, 3))
    atts[..., 0, :, :] = x0.att

    def halves(a):
        # the half increments B_k = exp(omega_k dt/2) of the piece from step
        # a; B_k^2 is the body rotation increment of step k
        return lie.so3_exp((gyro[..., a : a + CHUNK, :] - x0.bg[..., None, :]) * (0.5 * dt))

    for a in range(0, n, CHUNK):
        kept = halves(a)
        np.matmul(kept, kept, out=atts[..., 1 + a : 1 + a + CHUNK, :, :])

    # attitude: the update R <- E (E R B_k) B_k composes into
    # R_k = E^(2k) R_0 B_0^2 ... B_(k-1)^2, a prefix product, which keeps
    # orthonormality to a few ulps; one Newton step of symmetric
    # orthogonalization, R <- R (3I - R^T R)/2, restores it on the last
    # attitude, where the next segment starts.  Velocity and position: the
    # midpoint rule, sequential since gravity is taken at the current
    # position, from the previous piece's last row; the specific force is
    # resolved at the midpoint attitude E R_k B_k
    _prefix_products(atts[..., 1:, :, :])
    if count >= MIDPOINT_COLUMNS:
        # the member-array form writes one (3, M) slab per step
        midpoint, (vels, poss) = _midpoint_columns, np.empty((2, n + 1, 3, count)).transpose(0, 3, 1, 2)
    else:
        midpoint, (vels, poss) = _midpoint_floats, np.empty((2, count, n + 1, 3))
    vels[:, 0], poss[:, 0] = x0.vel.reshape(count, 3), x0.pos.reshape(count, 3)
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        half = kept if b == n else halves(a)
        piece = atts[..., 1 + a : 1 + b, :, :]
        np.matmul(earth.frame_turns(dt, a, b) @ x0.att[..., None, :, :], piece, out=piece)
        f_b = accel[..., a:b, :] - x0.ba[..., None, :]
        forces = earth.frame_turn(0.5 * dt) @ atts[..., a:b, :, :] @ (half @ f_b[..., None])
        midpoint(forces.reshape(count, b - a, 3), vels[:, a : b + 1], poss[:, a : b + 1], dt, earth)
    last = atts[..., -1, :, :]
    atts[..., -1, :, :] = last @ ((_THREE_I3 - _t(last) @ last) / 2.0)
    shape = lead + (n + 1, 3)
    return atts, vels.reshape(shape), poss.reshape(shape)


def _midpoint_floats(forces, vels, poss, dt, earth) -> None:
    """Each member's velocity and position history by the midpoint rule,
    one member after the other on Python floats, from its Earth-frame
    specific forces (M, N, 3): fills rows 1..N of ``vels`` and ``poss``
    (M, N+1, 3), arrays that hold the initial velocity and position in
    row 0."""
    vel_rows, pos_rows = [], []
    for member, vel, pos in zip(forces.tolist(), vels[:, 0].tolist(), poss[:, 0].tolist()):
        member_vels, member_poss = [], []
        for f_e in member:
            vel, pos = midpoint_translation(f_e, vel, pos, dt, earth)
            member_vels.append(vel)
            member_poss.append(pos)
        vel_rows.append(member_vels)
        pos_rows.append(member_poss)
    vels[:, 1:], poss[:, 1:] = vel_rows, pos_rows


def _midpoint_columns(forces, vels, poss, dt, earth) -> None:
    """:func:`_midpoint_floats` with every member at once, one step after
    the other on (3, M) arrays that hold a member per column.  Each
    component takes the operations of :func:`cteskf.ins.midpoint_translation`
    in their order, so a member gets the same bits in either form."""
    n = forces.shape[1]
    wx, wy, wz = earth.omega_ie.tolist()
    # omega_ie x v row by row, (wy vz - wz vy, wz vx - wx vz, wx vy - wy vx):
    # both products of each row in one multiplication, then one difference
    w = np.array([[[wy], [wz], [wx]], [[wz], [wx], [wy]]])
    turns = np.array([[2, 0, 1], [1, 2, 0]])
    half_dt = 0.5 * dt
    f = forces.transpose(1, 2, 0)
    vels, poss = vels.transpose(1, 2, 0), poss.transpose(1, 2, 0)
    vel, pos = vels[0], poss[0]
    for k in range(n):
        cross = w * vel[turns]
        acc = f[k] - 2.0 * (cross[0] - cross[1]) + earth.gravity_columns(pos)
        mid = vel + half_dt * acc
        cross = w * mid[turns]
        acc = f[k] - 2.0 * (cross[0] - cross[1]) + earth.gravity_columns(pos + half_dt * vel)
        new = vel + dt * acc
        vels[k + 1] = new
        poss[k + 1] = pos = pos + half_dt * (vel + new)
        vel = new


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


def _noise_input(sign: float) -> np.ndarray:
    """G with ``sign`` I on the gyro and accelerometer noise and I on the
    bias noise."""
    g = np.zeros((15, 12))
    g[0:6, 0:6] = sign * np.eye(6)
    g[9:15, 6:12] = np.eye(6)
    return g


# G of the left-invariant error, and the additive G at the attitude R = I
_FIXED_G = {ErrorParam.ADDITIVE_EKF: _noise_input(1.0), ErrorParam.LEFT_INVARIANT: _noise_input(-1.0)}


def _step_free_noise(param: ErrorParam, qc: np.ndarray, dt: float) -> np.ndarray | None:
    """The process noise G Qc G^T dt when it is the same at every step, else
    ``None``; formed once per :func:`run_filter` or
    :func:`propagate_covariance_sequence` call.

    The left-invariant G is constant, so its term is the per-step one to the
    bit.  The additive G maps the gyro and accelerometer noise through the
    attitude R, which leaves the term unchanged when Qc's 3x3 blocks among
    those two noises are multiples of I, R (c I) R^T = c I, and no block
    couples them to the bias noise; the form :meth:`cteskf.sim.ImuSpec.qc`
    gives.  The per-step term then differs from this one by the rounding of
    R R^T.  The right-invariant G depends on the state.
    """
    g = _FIXED_G.get(param)
    if g is None:
        return None
    qc = np.asarray(qc, dtype=float)
    if param is ErrorParam.ADDITIVE_EKF:
        blocks = qc[0:6, 0:6].reshape(2, 3, 2, 3).swapaxes(1, 2)
        if qc[0:6, 6:12].any() or qc[6:12, 0:6].any() or not np.array_equal(blocks, blocks[..., :1, :1] * np.eye(3)):
            return None
    return (g @ qc @ g.T) * dt


def _step_pairs(param, x: NavState, u: ImuSample, dt, qc, earth, w_fixed) -> tuple[np.ndarray, np.ndarray]:
    """The transition pairs I + F dt and G Qc G^T dt of a stack of steps,
    the step axis first, ahead of a member axis; ``w_fixed``, when not
    ``None``, stands for every step's noise term, and G is then not used."""
    sm = system_matrix(param, x, u, earth)
    phi = sm.F
    phi *= dt
    phi += I15
    phi = np.moveaxis(phi, -3, 0)
    if w_fixed is not None:
        return phi, np.broadcast_to(w_fixed, phi.shape)
    return phi, np.moveaxis((sm.G @ qc @ _t(sm.G)) * dt, -3, 0)


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
) -> tuple[np.ndarray, list]:
    """Covariance recursion P <- (I + F dt) P (I + F dt)^T + G Qc G^T dt over a
    precomputed state history, with F and G frozen at each step's pre-step
    state and bias-corrected sample, composed rather than stepped: the
    transition pairs of each run of at most :data:`CHUNK` steps are composed
    into one (:func:`_compose`) and applied to P at once, which matches the
    step-by-step recursion to rounding.  A bank (``p0`` (M, 15, 15),
    histories as :func:`mechanize_sequence` gives them and biases (M, 3))
    propagates every member at once.  A ``dt`` outside (0, :data:`MAX_DT`],
    an ``accel`` whose rows differ from ``gyro``'s, or a state history with
    fewer rows than there are samples raises ``ValueError`` before any piece
    is built.

    Returns the final covariance and an empty list, a second value kept for
    the benchmark's callers, which unpack two.
    """
    n = gyro.shape[-2]
    _check_step(dt)
    if accel.shape[-2] != n:
        raise ValueError(f"accel holds {accel.shape[-2]} samples where gyro holds {n}")
    for name, rows in (("atts", atts.shape[-3]), ("vels", vels.shape[-2]), ("poss", poss.shape[-2])):
        if rows < n:
            raise ValueError(f"state history {name} holds {rows} rows, fewer than the {n} samples")
    p = np.array(p0, dtype=float)
    w_fixed = _step_free_noise(param, qc, dt)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        phi, w = _compose(*_step_pairs(
            param,
            NavState(atts[..., start:stop, :, :], vels[..., start:stop, :], poss[..., start:stop, :]),
            ImuSample(0.0, gyro[..., start:stop, :] - bg[..., None, :], accel[..., start:stop, :] - ba[..., None, :]),
            dt, qc, earth, w_fixed,
        ))
        p = _symmetrize(phi @ p @ _t(phi) + w)
    return p, []
