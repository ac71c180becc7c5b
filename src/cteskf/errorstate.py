"""Error-state parameterizations and every matrix defined over them.

Three 15-dimensional error parameterizations share the block layout
``[attitude(3), velocity(3), position(3), gyro bias(3), accel bias(3)]``:

* additive: ``delta_x = estimate - truth`` per block, attitude via the
  Earth-frame small rotation between estimated and true DCM;
* left-invariant: body-frame errors of the SE2(3) element, eta = chi_hat^-1 chi;
* right-invariant: Earth-frame errors, eta = chi chi_hat^-1.

Bias errors are additive in all three; every 9x9 navigation-block matrix here
is extended to 15x15 with an identity bias block and no cross coupling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import lie
from .ins import (
    EarthModel,
    ImuSample,
    NavState,
    gravitational_accel,
    group_from_nav,
    nav_from_group,
    vel_frame_convert,
)
from .lie import skew

I3 = np.eye(3)


class ErrorParam(enum.Enum):
    """Tag selecting the error-state definition of a filter."""

    ADDITIVE_EKF = "ekf"
    LEFT_INVARIANT = "left-invariant"
    RIGHT_INVARIANT = "right-invariant"


class InjectionMode(enum.Enum):
    FIRST_ORDER = "first-order"
    RETRACTION = "retraction"


@dataclass
class SystemMatrices:
    """Continuous-time linearized error dynamics: xi_dot = F xi + G w.

    Noise columns of G are ordered [gyro, accel, gyro-bias walk, accel-bias
    walk]; Qc is the matching 12x12 diagonal PSD of w.
    """

    F: np.ndarray
    G: np.ndarray
    Qc: np.ndarray


def process_noise(
    gyro_psd: float, accel_psd: float, gyro_bias_psd: float, accel_bias_psd: float
) -> np.ndarray:
    """Diagonal 12x12 continuous PSD from per-axis noise densities (SI units)."""
    return np.diag(
        [gyro_psd] * 3 + [accel_psd] * 3 + [gyro_bias_psd] * 3 + [accel_bias_psd] * 3
    )


def system_matrix(
    param: ErrorParam,
    x: NavState,
    u: ImuSample,
    earth: EarthModel,
    qc: np.ndarray | None = None,
) -> SystemMatrices:
    """F and G for the requested parameterization, evaluated at the estimate.

    The sample ``u`` must already be bias-corrected.  Gravity terms are frozen
    at the current position estimate; no gravity-gradient rows appear.  The
    state and sample may carry a leading step axis (``att`` (..., 3, 3),
    ``vel``/``pos``/``gyro``/``accel`` (..., 3)); F and G then stack the same
    way, one pair per step.  F is the transposed view of a C-contiguous
    stack of F^T, so that (I + F dt)^T can be formed in place
    (:func:`cteskf.filter._step_pairs`).
    """
    att = x.att
    batch = att.shape[:-2]
    f = np.zeros(batch + (15, 15)).swapaxes(-1, -2)
    g = np.zeros(batch + (15, 12))
    omega_mat = earth.omega_mat

    if param is ErrorParam.ADDITIVE_EKF:
        f[..., 0:3, 0:3] = -omega_mat
        f[..., 0:3, 9:12] = att
        f[..., 3:6, 0:3] = -skew((att @ u.accel[..., None])[..., 0])
        f[..., 3:6, 3:6] = -2.0 * omega_mat
        f[..., 3:6, 12:15] = att
        f[..., 6:9, 3:6] = I3
        g[..., 0:3, 0:3] = att
        g[..., 3:6, 3:6] = att
    elif param is ErrorParam.LEFT_INVARIANT:
        omega_b = skew(u.gyro)
        f[..., 0:3, 0:3] = -omega_b
        f[..., 0:3, 9:12] = -I3
        f[..., 3:6, 0:3] = -skew(u.accel)
        f[..., 3:6, 3:6] = -omega_b
        f[..., 3:6, 12:15] = -I3
        f[..., 6:9, 3:6] = I3
        f[..., 6:9, 6:9] = -omega_b
        g[..., 0:3, 0:3] = -I3
        g[..., 3:6, 3:6] = -I3
    elif param is ErrorParam.RIGHT_INVARIANT:
        nu_att = -skew(vel_frame_convert(x, earth)) @ att
        pos_att = -skew(x.pos) @ att
        f[..., 0:3, 0:3] = -omega_mat
        f[..., 0:3, 9:12] = -att
        f[..., 3:6, 0:3] = skew(gravitational_accel(x.pos, earth))
        f[..., 3:6, 3:6] = -omega_mat
        f[..., 3:6, 9:12] = nu_att
        f[..., 3:6, 12:15] = -att
        f[..., 6:9, 3:6] = I3
        f[..., 6:9, 6:9] = -omega_mat
        f[..., 6:9, 9:12] = pos_att
        g[..., 0:3, 0:3] = -att
        g[..., 3:6, 0:3] = nu_att
        g[..., 3:6, 3:6] = -att
        g[..., 6:9, 0:3] = pos_att
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(param)

    g[..., 9:12, 6:9] = I3
    g[..., 12:15, 9:12] = I3
    if qc is None:
        qc = np.zeros((12, 12))
    return SystemMatrices(f, g, qc)


def _extended(batch: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A (*batch, 15, 15) stack with a zero navigation block and an identity
    bias block, and a view of its 9x9 navigation block to fill in."""
    out = np.zeros(batch + (15, 15))
    out[..., 9:, 9:] = np.eye(6)
    return out, out[..., :9, :9]


def _identity(batch: tuple) -> np.ndarray:
    return np.broadcast_to(np.eye(15), batch + (15, 15)).copy()


def relation_matrix(
    src: ErrorParam, dst: ErrorParam, x: NavState, earth: EarthModel
) -> np.ndarray:
    """Matrix A with xi_dst = A xi_src, evaluated at the state estimate.

    All six directed pairs are closed forms (each is the analytic inverse of
    its reverse), extended to 15x15 with an identity bias block.  A state
    whose fields carry a leading member axis gives one matrix per member.
    """
    att = x.att
    batch = att.shape[:-2]
    if src is dst:
        return _identity(batch)
    rt = att.swapaxes(-1, -2)
    omega_mat = earth.omega_mat
    out, block = _extended(batch)

    if src is ErrorParam.ADDITIVE_EKF and dst is ErrorParam.LEFT_INVARIANT:
        block[..., 0:3, 0:3] = -rt
        block[..., 3:6, 3:6] = -rt
        block[..., 3:6, 6:9] = -(rt @ omega_mat)
        block[..., 6:9, 6:9] = -rt
        return out
    if src is ErrorParam.LEFT_INVARIANT and dst is ErrorParam.ADDITIVE_EKF:
        block[..., 0:3, 0:3] = -att
        block[..., 3:6, 3:6] = -att
        block[..., 3:6, 6:9] = omega_mat @ att
        block[..., 6:9, 6:9] = -att
        return out

    nu = vel_frame_convert(x, earth)
    nu_x = skew(nu)
    pos_x = skew(x.pos)

    if src is ErrorParam.ADDITIVE_EKF and dst is ErrorParam.RIGHT_INVARIANT:
        block[..., 0:3, 0:3] = -I3
        block[..., 3:6, 0:3] = -nu_x
        block[..., 3:6, 3:6] = -I3
        block[..., 3:6, 6:9] = -omega_mat
        block[..., 6:9, 0:3] = -pos_x
        block[..., 6:9, 6:9] = -I3
        return out
    if src is ErrorParam.RIGHT_INVARIANT and dst is ErrorParam.ADDITIVE_EKF:
        block[..., 0:3, 0:3] = -I3
        block[..., 3:6, 0:3] = nu_x - omega_mat @ pos_x
        block[..., 3:6, 3:6] = -I3
        block[..., 3:6, 6:9] = omega_mat
        block[..., 6:9, 0:3] = pos_x
        block[..., 6:9, 6:9] = -I3
        return out

    chi = lie.GroupState(att, nu, x.pos)
    if src is ErrorParam.LEFT_INVARIANT and dst is ErrorParam.RIGHT_INVARIANT:
        block[...] = lie.adjoint(chi)
    else:
        block[...] = lie.adjoint_inv(chi)
    return out


def transformation_matrix_generic(
    original: ErrorParam,
    target: ErrorParam,
    x_plus: NavState,
    x_minus: NavState,
    earth: EarthModel,
) -> np.ndarray:
    """A^-1(x_plus) A(x_minus) with A mapping the original error to the target
    error; composed numerically (the closed forms below must agree with this)."""
    a_plus = relation_matrix(original, target, x_plus, earth)
    a_minus = relation_matrix(original, target, x_minus, earth)
    return np.linalg.solve(a_plus, a_minus)


def transformation_matrix(
    original: ErrorParam,
    target: ErrorParam,
    x_plus: NavState,
    x_minus: NavState,
    earth: EarthModel,
) -> np.ndarray:
    """Closed-form post-update covariance transformation.

    Applied as P <- T P T^T to the covariance of a filter running in the
    ``original`` parameterization right after its update; x_plus / x_minus are
    the updated and predicted states of that update.  Determinant is one.
    States whose fields carry a leading member axis give one matrix per
    member.
    """
    att_p, att_m = x_plus.att, x_minus.att
    batch = att_p.shape[:-2]
    if original is target:
        return _identity(batch)
    omega_mat = earth.omega_mat
    out, block = _extended(batch)

    def t(m):
        return m.swapaxes(-1, -2)

    if original is ErrorParam.ADDITIVE_EKF and target is ErrorParam.LEFT_INVARIANT:
        d = att_p @ t(att_m)
        block[..., 0:3, 0:3] = d
        block[..., 3:6, 3:6] = d
        block[..., 3:6, 6:9] = d @ omega_mat - omega_mat @ d
        block[..., 6:9, 6:9] = d
        return out
    if original is ErrorParam.LEFT_INVARIANT and target is ErrorParam.ADDITIVE_EKF:
        e = t(att_p) @ att_m
        block[..., 0:3, 0:3] = e
        block[..., 3:6, 3:6] = e
        block[..., 6:9, 6:9] = e
        return out

    nu_p = vel_frame_convert(x_plus, earth)
    nu_m = vel_frame_convert(x_minus, earth)
    if original is ErrorParam.ADDITIVE_EKF and target is ErrorParam.RIGHT_INVARIANT:
        block[..., 0:3, 0:3] = I3
        block[..., 3:6, 3:6] = I3
        block[..., 6:9, 6:9] = I3
        block[..., 3:6, 0:3] = (
            -skew(nu_p) + omega_mat @ skew(x_plus.pos) + skew(nu_m) - omega_mat @ skew(x_minus.pos)
        )
        block[..., 6:9, 0:3] = -skew(x_plus.pos) + skew(x_minus.pos)
        return out
    if original is ErrorParam.RIGHT_INVARIANT and target is ErrorParam.ADDITIVE_EKF:
        block[..., 0:3, 0:3] = I3
        block[..., 3:6, 3:6] = I3
        block[..., 6:9, 6:9] = I3
        block[..., 3:6, 0:3] = skew(nu_p) - skew(nu_m)
        block[..., 6:9, 0:3] = skew(x_plus.pos) - skew(x_minus.pos)
        return out

    if original is ErrorParam.LEFT_INVARIANT and target is ErrorParam.RIGHT_INVARIANT:
        e = t(att_p) @ att_m
        block[..., 0:3, 0:3] = e
        block[..., 3:6, 3:6] = e
        block[..., 6:9, 6:9] = e
        block[..., 3:6, 0:3] = t(att_p) @ (skew(nu_m) - skew(nu_p)) @ att_m
        block[..., 6:9, 0:3] = t(att_p) @ (skew(x_minus.pos) - skew(x_plus.pos)) @ att_m
        return out
    # right-invariant -> left-invariant
    d = att_p @ t(att_m)
    block[..., 0:3, 0:3] = d
    block[..., 3:6, 3:6] = d
    block[..., 6:9, 6:9] = d
    block[..., 3:6, 0:3] = skew(nu_p) @ d - d @ skew(nu_m)
    block[..., 6:9, 0:3] = skew(x_plus.pos) @ d - d @ skew(x_minus.pos)
    return out


def inject_error(
    param: ErrorParam,
    x_minus: NavState,
    xi_plus: np.ndarray,
    earth: EarthModel,
    mode: InjectionMode = InjectionMode.RETRACTION,
) -> NavState:
    """Absorb an estimated error state into the predicted navigation state.

    In first-order mode the three parameterizations of equivalent errors
    produce identical states up to rounding; retraction uses the group
    exponential instead of the linearized factor.  A state whose fields
    carry a leading member axis takes one error state per member, (..., 15).
    """
    xi_plus = np.asarray(xi_plus, dtype=float)
    phi = xi_plus[..., 0:3]
    if np.any(np.linalg.norm(phi, axis=-1) >= np.pi):
        raise ValueError("attitude error at or beyond pi cannot be injected")
    bg = x_minus.bg - xi_plus[..., 9:12]
    ba = x_minus.ba - xi_plus[..., 12:15]

    if param is ErrorParam.ADDITIVE_EKF:
        if mode is InjectionMode.RETRACTION:
            att = lie.so3_exp(-phi) @ x_minus.att
        else:
            att = lie.orthonormalize((I3 - skew(phi)) @ x_minus.att)
        vel = x_minus.vel - xi_plus[..., 3:6]
        pos = x_minus.pos - xi_plus[..., 6:9]
        return NavState(att, vel, pos, bg, ba, x_minus.time)

    chi_hat = group_from_nav(x_minus, earth)
    if mode is InjectionMode.RETRACTION:
        delta = lie.se23_exp(xi_plus[..., :9])
        if param is ErrorParam.LEFT_INVARIANT:
            chi = lie.compose(chi_hat, delta)
        else:
            chi = lie.compose(delta, chi_hat)
        chi.rot = lie.newton_orthonormalize(chi.rot)
    else:
        dnu, drho = xi_plus[..., 3:6], xi_plus[..., 6:9]
        if param is ErrorParam.LEFT_INVARIANT:
            rot = chi_hat.rot @ (I3 + skew(phi))
            nu = chi_hat.nu + lie.matvec(chi_hat.rot, dnu)
            rho = chi_hat.rho + lie.matvec(chi_hat.rot, drho)
        else:
            rot = (I3 + skew(phi)) @ chi_hat.rot
            nu = chi_hat.nu + np.cross(phi, chi_hat.nu) + dnu
            rho = chi_hat.rho + np.cross(phi, chi_hat.rho) + drho
        chi = lie.GroupState(lie.orthonormalize(rot), nu, rho)
    return nav_from_group(chi, earth, bg, ba, x_minus.time)
