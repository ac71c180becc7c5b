"""ECEF strapdown INS: state types, kinematic models and the midpoint rule
of the discrete mechanization (:func:`cteskf.filter.mechanize_sequence`).

Two equivalent formulations of the inertial kinematics are provided: the
classical one in terms of the Earth-relative velocity, and the group-affine
one on SE2(3) in terms of the inertial velocity resolved in the Earth frame.
Both share the same attitude equation; the velocities differ by the frame
transport term ``omega_ie x r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lie
from .lie import GroupState, skew

WGS84_RATE = 7.292115e-5  # rad/s
EARTH_GM = 3.986004418e14  # m^3/s^2
EARTH_RADIUS = 6378137.0  # m
G0 = 9.80665  # m/s^2, standard gravity for IMU-spec unit conversions

# Somigliana coefficients (normal gravity on the reference ellipsoid)
_GAMMA_EQUATOR = 9.7803253359
_SOMIGLIANA_K = 1.931852652458e-3
_ECC_SQ = 6.69437999014e-3


@dataclass
class EarthModel:
    """Earth rotation and gravity field configuration.

    gravity_mode selects how the local gravity vector g(r) is evaluated:
    ``constant`` uses ``gravity_const`` verbatim, ``spherical`` uses a
    GM/r^2 central field minus the centrifugal term, ``normal`` uses the
    Somigliana magnitude at geocentric latitude directed along -r.
    """

    omega_ie: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, WGS84_RATE]))
    gravity_mode: str = "spherical"
    gravity_const: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -G0]))

    def __post_init__(self):
        self.omega_ie = np.asarray(self.omega_ie, dtype=float)
        self.gravity_const = np.asarray(self.gravity_const, dtype=float)
        if np.linalg.norm(self.omega_ie) >= 1e-3:
            raise ValueError("earth rotation rate above 1e-3 rad/s is not plausible")
        if self.gravity_mode not in ("constant", "spherical", "normal"):
            raise ValueError(f"unknown gravity mode {self.gravity_mode!r}")
        self.omega_mat = skew(self.omega_ie)
        self.omega_sq = self.omega_mat @ self.omega_mat
        self._omega_xyz = tuple(self.omega_ie.tolist())
        self._omega_sq_rows = self.omega_sq.tolist()
        self._turn_dt, self._turn = None, None
        # rate and unit-axis skew (and its square) of the Earth rotation
        self._rate = float(np.linalg.norm(self.omega_ie))
        self._axis_mat = skew(self.omega_ie / self._rate) if self._rate > 0.0 else np.zeros((3, 3))
        self._axis_sq = self._axis_mat @ self._axis_mat

    def frame_turn(self, dt: float) -> np.ndarray:
        """Rotation so3_exp(-omega_ie dt) that the Earth frame turns through
        over dt.  The last one is cached, since every step of a fixed-rate run
        asks for the same one; the returned array is shared and read-only."""
        if dt != self._turn_dt:
            turn = lie.so3_exp(self.omega_ie * -dt)
            turn.flags.writeable = False
            self._turn_dt, self._turn = dt, turn
        return self._turn

    def frame_turns(self, dt: float, start: int, stop: int) -> np.ndarray:
        """The rotations so3_exp(-omega_ie k dt), k = start+1..stop, that the
        Earth frame turns through by the end of steps start..stop-1 of length
        dt, (stop - start, 3, 3): rows start..stop-1 of the turns over the
        first n steps, ``frame_turns(dt, 0, n)``, to the bit.  All turn about
        the one axis a of the Earth rotation, so Rodrigues' formula
        I - sin(b) [a]x + (1 - cos(b)) [a]x^2 with b = |omega_ie| k dt needs
        no per-step axis."""
        angle = np.arange(start + 1, stop + 1)[:, None, None] * (self._rate * dt)
        return np.eye(3) - np.sin(angle) * self._axis_mat + (1.0 - np.cos(angle)) * self._axis_sq

    def gravity(self, r: np.ndarray) -> np.ndarray:
        """Local gravity vector g(r): mass attraction plus centrifugal effect,
        for one position (3,) or a stack (..., 3)."""
        r = np.asarray(r, dtype=float)
        if self.gravity_mode == "constant":
            return np.broadcast_to(self.gravity_const, r.shape).copy()
        dist_sq = np.einsum("...i,...i->...", r, r)
        if np.any(dist_sq == 0.0):
            raise ValueError(f"{self.gravity_mode} gravity is undefined at the origin")
        if self.gravity_mode == "spherical":
            return (-EARTH_GM / (dist_sq * np.sqrt(dist_sq)))[..., None] * r - r @ self.omega_sq.T
        sin_lat_sq = r[..., 2] ** 2 / dist_sq
        gamma = (
            _GAMMA_EQUATOR
            * (1.0 + _SOMIGLIANA_K * sin_lat_sq)
            / np.sqrt(1.0 - _ECC_SQ * sin_lat_sq)
        )
        return -(gamma / np.sqrt(dist_sq))[..., None] * r

    def gravity_xyz(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """:meth:`gravity` on the scalar components of r, for sequential loops
        that would otherwise pay array overhead on every call."""
        if self.gravity_mode == "constant":
            return tuple(self.gravity_const.tolist())
        dist_sq = x * x + y * y + z * z
        if dist_sq == 0.0:
            raise ValueError(f"{self.gravity_mode} gravity is undefined at the origin")
        if self.gravity_mode == "spherical":
            c = -EARTH_GM / (dist_sq * math.sqrt(dist_sq))
            (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = self._omega_sq_rows
            return (
                c * x - (s00 * x + s01 * y + s02 * z),
                c * y - (s10 * x + s11 * y + s12 * z),
                c * z - (s20 * x + s21 * y + s22 * z),
            )
        sin_lat_sq = z * z / dist_sq
        gamma = (
            _GAMMA_EQUATOR
            * (1.0 + _SOMIGLIANA_K * sin_lat_sq)
            / math.sqrt(1.0 - _ECC_SQ * sin_lat_sq)
        )
        c = -gamma / math.sqrt(dist_sq)
        return c * x, c * y, c * z

    def gravity_columns(self, r: np.ndarray) -> np.ndarray:
        """:meth:`gravity_xyz` on positions (3, M), one per column, for the
        member-array midpoint rule: the same operations component by
        component, in the same order, so each column gets the bits
        :meth:`gravity_xyz` gives its position."""
        if self.gravity_mode == "constant":
            return self.gravity_const[:, None]
        sq = r * r
        dist_sq = sq[0] + sq[1] + sq[2]
        if not dist_sq.all():
            raise ValueError(f"{self.gravity_mode} gravity is undefined at the origin")
        if self.gravity_mode == "spherical":
            c = -EARTH_GM / (dist_sq * np.sqrt(dist_sq))
            # row i of omega_sq r as s_i0 x + s_i1 y + s_i2 z, the products at once
            terms = self.omega_sq[:, :, None] * r
            return c * r - (terms[:, 0] + terms[:, 1] + terms[:, 2])
        sin_lat_sq = sq[2] / dist_sq
        gamma = (
            _GAMMA_EQUATOR
            * (1.0 + _SOMIGLIANA_K * sin_lat_sq)
            / np.sqrt(1.0 - _ECC_SQ * sin_lat_sq)
        )
        return (-gamma / np.sqrt(dist_sq)) * r


def gravitational_accel(r: np.ndarray, earth: EarthModel) -> np.ndarray:
    """Gravitational (mass-attraction) acceleration: g(r) + (omega_ie x)^2 r,
    for one position (3,) or a stack (..., 3)."""
    return earth.gravity(r) + r @ earth.omega_sq.T


@dataclass
class NavState:
    """Full navigation state: attitude DCM (body to ECEF), ECEF velocity and
    position, gyro and accelerometer biases, and a timestamp.

    The array fields may carry leading axes, ``att`` (..., 3, 3) and the
    vectors (..., 3): a step history for
    :func:`cteskf.errorstate.system_matrix`, or the members of a filter bank
    (:func:`cteskf.filter.run_filter`), which share the time."""

    att: np.ndarray
    vel: np.ndarray
    pos: np.ndarray
    bg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ba: np.ndarray = field(default_factory=lambda: np.zeros(3))
    time: float = 0.0

    def copy(self) -> "NavState":
        return NavState(
            self.att.copy(), self.vel.copy(), self.pos.copy(), self.bg.copy(), self.ba.copy(), self.time
        )

    def select(self, idx) -> "NavState":
        """Index the leading axis of every array field: an integer picks one
        member of a bank, an index array a smaller bank, and ``None`` makes
        a single state a bank of one."""
        return NavState(self.att[idx], self.vel[idx], self.pos[idx], self.bg[idx], self.ba[idx], self.time)

    @staticmethod
    def stack(states: list) -> "NavState":
        """The bank of states that share one time."""
        fields = zip(*((s.att, s.vel, s.pos, s.bg, s.ba) for s in states))
        return NavState(*(np.stack(f) for f in fields), states[0].time)


@dataclass
class ImuSample:
    """Measured angular rate and specific force in the body frame.

    For :func:`cteskf.errorstate.system_matrix` ``gyro`` and ``accel`` may
    also hold a history (..., 3)."""

    time: float
    gyro: np.ndarray
    accel: np.ndarray


@dataclass
class StateDerivative:
    """Time derivative of a NavState under the classical kinematics.

    The attitude rate is reported both as the matrix derivative and as the
    body-frame rate relative to the Earth frame (datt = att @ skew(rate)).
    """

    datt: np.ndarray
    att_rate_body: np.ndarray
    dvel: np.ndarray
    dpos: np.ndarray
    dbg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dba: np.ndarray = field(default_factory=lambda: np.zeros(3))


def classic_derivative(x: NavState, u: ImuSample, earth: EarthModel) -> StateDerivative:
    """Classical ECEF kinematics of a raw IMU sample: transport and Coriolis
    on the Earth-relative velocity, gravity included; bias means are
    constant."""
    omega_b, f_b = u.gyro - x.bg, u.accel - x.ba
    datt = x.att @ skew(omega_b) - earth.omega_mat @ x.att
    dvel = x.att @ f_b - 2.0 * (earth.omega_mat @ x.vel) + earth.gravity(x.pos)
    rate_body = omega_b - x.att.T @ earth.omega_ie
    return StateDerivative(datt, rate_body, dvel, x.vel.copy())


def left_rate_matrix(omega_b: np.ndarray, f_b: np.ndarray) -> np.ndarray:
    """Input-side generator of the group-affine model (multiplies on the right)."""
    w = np.zeros((5, 5))
    w[:3, :3] = skew(omega_b)
    w[:3, 3] = f_b
    w[3, 4] = 1.0
    return w


def right_rate_matrix(g_accel: np.ndarray, omega_ie: np.ndarray) -> np.ndarray:
    """Frame-side generator of the group-affine model (multiplies on the left).

    g_accel is the gravitational acceleration frozen at the current position
    estimate; its variation with motion is neglected.
    """
    u = np.zeros((5, 5))
    u[:3, :3] = -skew(omega_ie)
    u[:3, 3] = g_accel
    u[3, 4] = -1.0
    return u


def group_affine_derivative(
    chi: GroupState, omega_b: np.ndarray, f_b: np.ndarray, g_accel: np.ndarray, earth: EarthModel
) -> np.ndarray:
    """Time derivative of the SE2(3) state, chi W + U chi, as a 5x5 matrix."""
    w = left_rate_matrix(omega_b, f_b)
    u = right_rate_matrix(g_accel, earth.omega_ie)
    return chi.as_matrix() @ w + u @ chi.as_matrix()


def vel_frame_convert(x: NavState, earth: EarthModel) -> np.ndarray:
    """Inertial velocity resolved in the Earth frame: v + omega_ie x r, for
    one state or a stacked one (``vel``, ``pos`` of shape (..., 3))."""
    return x.vel + x.pos @ earth.omega_mat.T


def group_vel_to_classic(nu: np.ndarray, r: np.ndarray, earth: EarthModel) -> np.ndarray:
    """Inverse of :func:`vel_frame_convert`, for one vector or stacks."""
    return nu - r @ earth.omega_mat.T


def group_from_nav(x: NavState, earth: EarthModel) -> GroupState:
    """View the navigation state as an SE2(3) element (biases dropped); a
    state of stacks gives an element of stacks."""
    return GroupState(x.att.copy(), vel_frame_convert(x, earth), x.pos.copy())


def nav_from_group(
    chi: GroupState, earth: EarthModel, bg: np.ndarray, ba: np.ndarray, time: float
) -> NavState:
    """Rebuild a NavState from an SE2(3) element plus bias and time carry-overs."""
    vel = group_vel_to_classic(chi.nu, chi.rho, earth)
    return NavState(chi.rot.copy(), vel, chi.rho.copy(), bg.copy(), ba.copy(), time)


def midpoint_translation(
    f_e: list, vel: list, pos: list, dt: float, earth: EarthModel
) -> tuple[tuple, tuple]:
    """Velocity and position after one midpoint-rule step of the classical
    kinematics, acc = f_e - 2 omega_ie x v + g(r), on Python floats.

    f_e is the specific force resolved in the Earth frame, held over the step;
    the acceleration is evaluated at the start and at the midpoint.  The
    sequential loop of :func:`cteskf.filter.mechanize_sequence` calls it once
    per step, where array overhead would dominate on 3-vectors.
    """
    wx, wy, wz = earth._omega_xyz
    fx, fy, fz = f_e
    vx, vy, vz = vel
    px, py, pz = pos
    half_dt = 0.5 * dt
    gx, gy, gz = earth.gravity_xyz(px, py, pz)
    ax = fx - 2.0 * (wy * vz - wz * vy) + gx
    ay = fy - 2.0 * (wz * vx - wx * vz) + gy
    az = fz - 2.0 * (wx * vy - wy * vx) + gz
    mx, my, mz = vx + half_dt * ax, vy + half_dt * ay, vz + half_dt * az
    gx, gy, gz = earth.gravity_xyz(px + half_dt * vx, py + half_dt * vy, pz + half_dt * vz)
    ax = fx - 2.0 * (wy * mz - wz * my) + gx
    ay = fy - 2.0 * (wz * mx - wx * mz) + gy
    az = fz - 2.0 * (wx * my - wy * mx) + gz
    nx, ny, nz = vx + dt * ax, vy + dt * ay, vz + dt * az
    return (nx, ny, nz), (px + half_dt * (vx + nx), py + half_dt * (vy + ny), pz + half_dt * (vz + nz))
