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

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errorstate import ErrorParam
from .ins import EarthModel, NavState, vel_frame_convert
from .lie import matvec, skew

I3 = np.eye(3)


@dataclass
class GnssVelObs:
    """GNSS velocity in the Earth frame with per-axis standard deviations."""

    time: float
    vel: np.ndarray
    sigma: np.ndarray = field(default_factory=lambda: np.full(3, 0.2))

    kind = "gnss_vel"

    def __post_init__(self):
        self.vel = np.asarray(self.vel, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if np.any(self.sigma <= 0.0):
            raise ValueError("observation sigma must be positive")


@dataclass
class OdoObs:
    """Body-frame velocity from non-steering wheels; lateral and vertical
    channels are zero pseudo-observations sharing the same sigma."""

    time: float
    vel_body: np.ndarray
    sigma: np.ndarray = field(default_factory=lambda: np.full(3, 0.1))

    kind = "odo"

    def __post_init__(self):
        self.vel_body = np.asarray(self.vel_body, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if np.any(self.sigma <= 0.0):
            raise ValueError("observation sigma must be positive")


Observation = Union[GnssVelObs, OdoObs]


def _data_fields(obs: Observation) -> dict:
    return {name: value for name, value in vars(obs).items() if isinstance(value, np.ndarray)}


def stack_observations(members) -> list:
    """One observation list for a filter bank from each member's own list:
    each observation's arrays (``vel``/``vel_body``, ``sigma``) gain a
    leading member axis, as views of one array.  ``members`` is read once,
    one list at a time, so it may be a generator that builds them.  The
    members must observe on one grid: a list of another length, or an
    observation of another kind or time stamp than member 0's, raises
    ``ValueError``."""
    grid, data = None, []
    for m, own in enumerate(members):
        stamps = [(obs.kind, obs.time) for obs in own]
        grid = stamps if grid is None else grid
        if len(stamps) != len(grid):
            raise ValueError(f"member {m} has {len(stamps)} observations, member 0 has {len(grid)}")
        for idx, ((kind, time), (kind0, time0)) in enumerate(zip(stamps, grid)):
            if kind != kind0 or time != time0:
                raise ValueError(
                    f"observation {idx} of member {m} is {kind} at t={time:.6g}, "
                    f"member 0's is {kind0} at t={time0:.6g}"
                )
        # (observation, field, axis): both kinds hold a 3-vector and its sigmas
        data.append(np.array([list(_data_fields(obs).values()) for obs in own]).reshape(len(own), -1, 3))
    if grid is None:
        raise ValueError("a bank needs at least one member")
    data = np.stack(data)
    # the last member's observations carry the stacked arrays
    return [
        replace(obs, **{name: data[:, idx, f] for f, name in enumerate(_data_fields(obs))})
        for idx, obs in enumerate(own)
    ]


def select_members(obs: Observation, idx) -> Observation:
    """The observation of the bank members ``idx``: arrays that carry a
    member axis are indexed, shared ones are kept."""
    return replace(obs, **{name: value[idx] for name, value in _data_fields(obs).items() if value.ndim == 2})


def innovation(
    x: NavState, obs: Observation, earth: EarthModel, time_tol: float = np.inf
) -> np.ndarray:
    """Predicted-minus-measured observation at the current estimate; a bank
    state gives one innovation per member, (..., 3)."""
    if abs(obs.time - x.time) > time_tol:
        raise ValueError(
            f"observation at t={obs.time} does not match filter time t={x.time}"
        )
    if obs.kind == "gnss_vel":
        return x.vel - obs.vel
    if obs.kind == "odo":
        return matvec(x.att.swapaxes(-1, -2), x.vel) - obs.vel_body
    raise ValueError(f"unsupported observation kind {obs.kind!r}")


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
