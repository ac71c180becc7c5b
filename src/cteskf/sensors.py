"""Observation models: GNSS velocity in the Earth frame and body-frame wheel
odometry, with innovations and observation matrices for each error-state
parameterization.

The observation matrices satisfy the exact consistency relation
``H_b = H_a A`` between parameterizations; they are written in closed form but
validated against that relation and against finite-difference linearization
of the innovation.  The noise covariance depends only on the sensor, never on
the parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errorstate import ErrorParam
from .ins import EarthModel, NavState, vel_frame_convert
from .lie import matvec, skew

I3 = np.eye(3)

KINDS = ("gnss_vel", "odo")


@dataclass
class Observation:
    """One velocity fix of a sensor ``kind``: ``gnss_vel`` measures the
    Earth-frame velocity, ``odo`` the body-frame velocity of non-steering
    wheels (its lateral and vertical channels are zero pseudo-observations).
    ``value`` is the measured 3-vector and ``sigma`` its per-axis standard
    deviations; in a bank either may carry a leading member axis
    (:func:`cteskf.sim.synthesize` draws a bank's fixes with a ``value``
    (N, 3) and a shared ``sigma``)."""

    kind: str
    time: float
    value: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unsupported observation kind {self.kind!r}")
        self.value = np.asarray(self.value, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        # a NaN sigma would fail the innovation covariance's eigensolver
        if not np.all((self.sigma > 0.0) & (self.sigma < np.inf)):
            raise ValueError("observation sigma must be positive and finite")


def select_members(obs: Observation, idx) -> Observation:
    """The observation of the bank members ``idx``: arrays that carry a
    member axis are indexed, shared ones are kept."""
    def pick(a):
        return a[idx] if a.ndim == 2 else a

    return replace(obs, value=pick(obs.value), sigma=pick(obs.sigma))


def innovation(x: NavState, obs: Observation) -> np.ndarray:
    """Predicted-minus-measured observation at the current estimate; a bank
    state gives one innovation per member, (..., 3).  The stamp is not read:
    :func:`cteskf.filter.run_filter`'s schedule matches it to the state."""
    predicted = x.vel if obs.kind == "gnss_vel" else matvec(x.att.swapaxes(-1, -2), x.vel)
    return predicted - obs.value


def observation_matrix(
    param: ErrorParam, x: NavState, kind: str, earth: EarthModel
) -> np.ndarray:
    """3x15 observation matrix for the given parameterization and sensor; a
    bank state gives one per member, (..., 3, 15)."""
    att = x.att
    h = np.zeros(att.shape[:-2] + (3, 15))
    rt = att.swapaxes(-1, -2)
    omega_mat = earth.omega_mat

    if kind == "gnss_vel":
        if param is ErrorParam.ADDITIVE_EKF:
            h[..., :, 3:6] = I3
        elif param is ErrorParam.LEFT_INVARIANT:
            h[..., :, 3:6] = -att
            h[..., :, 6:9] = omega_mat @ att
        else:
            nu = vel_frame_convert(x, earth)
            h[..., :, 0:3] = skew(nu) - omega_mat @ skew(x.pos)
            h[..., :, 3:6] = -I3
            h[..., :, 6:9] = omega_mat
        return h

    if kind == "odo":
        if param is ErrorParam.ADDITIVE_EKF:
            h[..., :, 0:3] = rt @ skew(x.vel)
            h[..., :, 3:6] = rt
        elif param is ErrorParam.LEFT_INVARIANT:
            h[..., :, 0:3] = -skew(matvec(rt, x.vel))
            h[..., :, 3:6] = -I3
            h[..., :, 6:9] = rt @ omega_mat @ att
        else:
            h[..., :, 0:3] = -(rt @ skew(x.pos) @ omega_mat)
            h[..., :, 3:6] = -rt
            h[..., :, 6:9] = rt @ omega_mat
        return h

    raise ValueError(f"unsupported observation kind {kind!r}")


def noise_covariance(obs: Observation) -> np.ndarray:
    """Diagonal observation noise covariance; parameterization-independent.
    Per-member sigmas (..., 3) give one matrix per member."""
    return (obs.sigma**2)[..., None] * I3
