"""Matrix Lie group operations for SO(3) and SE2(3).

All functions are pure and operate on plain numpy arrays.  Rotations are
3x3 orthonormal matrices with determinant +1; SE2(3) elements are handled
either as :class:`GroupState` values or as their 5x5 matrix embedding

    [ R   nu  rho ]
    [ 0    1   0  ]
    [ 0    0   1  ]

with tangent vectors ordered ``[phi, dnu, drho]`` (9,).

Every function takes one object or a stack of them along leading axes
through one implementation, and a stack gives each object the bits it gives
alone.  In :func:`skew`, the exponentials, the SO(3) Jacobians,
:func:`so3_log` and the quaternion conversions a non-finite object gives
non-finite entries in its own result only, with no warning; all NaN from the
exponentials, Jacobians and :func:`so3_log`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this rotation angle the Jacobians' coefficients are replaced by
# their 4th-order Taylor expansions to avoid cancellation.
SMALL_ANGLE = 1e-7

_TINY = np.finfo(float).tiny
_I3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of ``v`` such that ``skew(v) @ w == cross(v, w)``;
    a stack of vectors (..., 3) gives a stack of matrices (..., 3, 3).

    Each entry is copied, not formed by a product, so a non-finite component
    stays in its own entries, and a long stack makes no (multi-threaded)
    BLAS call."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def unskew(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`skew` (antisymmetric part is not enforced)."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _so3_terms(phi: np.ndarray):
    """For rotation vectors phi (..., 3): skew(phi), the coefficients
    sin(theta)/theta and (1 - cos(theta))/theta^2, and theta.  The last
    three are arrays shaped to scale a stack of matrices, never numpy
    scalars, whose power and trigonometry round differently from an array's.
    With h = theta/2 and s = sin(h)/h the coefficients are s cos(h) and
    s^2/2; h is floored at the smallest normal float, where s is exactly 1,
    so no small-angle branch is needed."""
    phi = np.asarray(phi, dtype=float)
    theta = np.sqrt((phi * phi).sum(axis=-1))[..., None, None]
    half = np.maximum(0.5 * theta, _TINY)
    s = np.sin(half) / half
    return skew(phi), s * np.cos(half), 0.5 * s * s, theta


def _left_jacobian_c(theta: np.ndarray) -> np.ndarray:
    """(theta - sin(theta))/theta^3, the left Jacobian's coefficient of
    skew(phi)^2, for the angles of :func:`_so3_terms`; below SMALL_ANGLE
    from its Taylor expansion."""
    t2, t = theta * theta, np.maximum(theta, SMALL_ANGLE)
    return np.where(theta < SMALL_ANGLE, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, (t - np.sin(t)) / t**3)


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of a rotation vector (rad); a stack of vectors
    (..., 3) gives a stack of rotations (..., 3, 3)."""
    with np.errstate(invalid="ignore"):
        px, a, b, _ = _so3_terms(phi)
        # skew(phi)^2 as a temporary numpy can reuse: on a long stack a named
        # one raised the peak memory of a 120k-step mechanization by 16 MiB
        return _I3 + a * px + b * (px @ px)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Rotation vector (norm <= pi) of a rotation matrix; a (..., 3, 3) stack
    gives a (..., 3) stack.

    With the unit quaternion [w, v] of :func:`rot_to_quat` (w >= 0),
    phi = v 2 atan2(|v|, w) / |v| (Sola, Deray & Atchuthan, arXiv:1812.01537),
    which stays accurate at every angle up to pi; at exactly pi both signs
    of the axis are logarithms of ``rot``.  |v| is floored at the smallest
    normal float, so the identity gives a zero vector and no small-angle
    branch is needed."""
    q = rot_to_quat(rot)
    v = q[..., 1:]
    norm = np.maximum(np.sqrt((v * v).sum(axis=-1, keepdims=True)), _TINY)
    return v * (2.0 * np.arctan2(norm, q[..., :1]) / norm)


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3): integral of exp along the geodesic; a stack of
    vectors (..., 3) gives a stack of matrices (..., 3, 3)."""
    with np.errstate(invalid="ignore"):
        px, _, b, theta = _so3_terms(phi)
        return _I3 + b * px + _left_jacobian_c(theta) * (px @ px)


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`so3_left_jacobian`, I - skew(phi)/2 + c skew(phi)^2
    with c = 1/theta^2 - 1/(2 theta tan(theta/2)), below SMALL_ANGLE from its
    Taylor expansion."""
    with np.errstate(invalid="ignore"):
        px, _, _, theta = _so3_terms(phi)
        t2, t = theta * theta, np.maximum(theta, SMALL_ANGLE)
        c = np.where(
            theta < SMALL_ANGLE, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0, 1.0 / t**2 - 0.5 / (t * np.tan(0.5 * t))
        )
        return _I3 - 0.5 * px + c * (px @ px)


def orthonormalize(rot: np.ndarray) -> np.ndarray:
    """Exact symmetric orthogonalization via SVD (nearest rotation), for one
    matrix or a (..., 3, 3) stack."""
    u, _, vt = np.linalg.svd(rot)
    r = u @ vt
    flip = np.linalg.det(r) < 0.0
    if flip.any():
        u[..., :, -1] *= np.where(flip, -1.0, 1.0)[..., None]
        r = u @ vt
    return r


@dataclass
class GroupState:
    """SE2(3) element: rotation, group velocity column and position column."""

    rot: np.ndarray
    nu: np.ndarray
    rho: np.ndarray

    def as_matrix(self) -> np.ndarray:
        m = np.eye(5)
        m[:3, :3] = self.rot
        m[:3, 3] = self.nu
        m[:3, 4] = self.rho
        return m

    @staticmethod
    def from_matrix(m: np.ndarray, tol: float = 1e-12) -> "GroupState":
        m = np.asarray(m, dtype=float)
        expected = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
        if np.max(np.abs(m[3:, :] - expected)) > tol:
            raise ValueError("bottom rows of an SE2(3) matrix must be [0 0 0 1 0], [0 0 0 0 1]")
        return GroupState(m[:3, :3].copy(), m[:3, 3].copy(), m[:3, 4].copy())

    @staticmethod
    def identity() -> "GroupState":
        return GroupState(np.eye(3), np.zeros(3), np.zeros(3))

    def copy(self) -> "GroupState":
        return GroupState(self.rot.copy(), self.nu.copy(), self.rho.copy())


def se23_hat(xi: np.ndarray) -> np.ndarray:
    """Embed a 9-vector [phi, dnu, drho] into the 5x5 Lie algebra."""
    xi = np.asarray(xi, dtype=float)
    m = np.zeros(xi.shape[:-1] + (5, 5))
    m[..., :3, :3] = skew(xi[..., :3])
    m[..., :3, 3] = xi[..., 3:6]
    m[..., :3, 4] = xi[..., 6:9]
    return m


def se23_vee(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Inverse of :func:`se23_hat`; rejects matrices with nonzero bottom rows."""
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m[..., 3:, :])) > tol:
        raise ValueError("bottom two rows of an se2(3) element must vanish")
    return np.concatenate([unskew(m[..., :3, :3]), m[..., :3, 3], m[..., :3, 4]], axis=-1)


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector, for one pair or stacks (..., k, n) and (..., n)."""
    return (m @ v[..., None])[..., 0]


def se23_exp(xi: np.ndarray) -> GroupState:
    """Closed-form exponential; the SO(3) left Jacobian maps both columns.
    A (..., 9) stack gives a GroupState of stacks."""
    xi = np.asarray(xi, dtype=float)
    # the exponential and the Jacobian share their terms
    with np.errstate(invalid="ignore"):
        px, a, b, theta = _so3_terms(xi[..., :3])
        px2 = px @ px
        rot, jac = _I3 + a * px + b * px2, _I3 + b * px + _left_jacobian_c(theta) * px2
        return GroupState(rot, matvec(jac, xi[..., 3:6]), matvec(jac, xi[..., 6:9]))


def se23_log(chi: GroupState) -> np.ndarray:
    """Inverse of :func:`se23_exp` for rotation angles below pi."""
    phi = so3_log(chi.rot)
    jinv = so3_left_jacobian_inv(phi)
    return np.concatenate([phi, matvec(jinv, chi.nu), matvec(jinv, chi.rho)], axis=-1)


def compose(a: GroupState, b: GroupState) -> GroupState:
    """Group product a * b, for single elements or stacks."""
    return GroupState(a.rot @ b.rot, matvec(a.rot, b.nu) + a.nu, matvec(a.rot, b.rho) + a.rho)


def inverse(a: GroupState) -> GroupState:
    """Closed-form group inverse (R^T, -R^T nu, -R^T rho)."""
    rt = a.rot.swapaxes(-1, -2)
    return GroupState(rt.copy(), -matvec(rt, a.nu), -matvec(rt, a.rho))


def adjoint(chi: GroupState) -> np.ndarray:
    """9x9 adjoint satisfying hat(Ad_chi xi) = chi hat(xi) chi^-1; a
    GroupState of stacks gives a (..., 9, 9) stack."""
    rot = chi.rot
    ad = np.zeros(rot.shape[:-2] + (9, 9))
    ad[..., 0:3, 0:3] = rot
    ad[..., 3:6, 3:6] = rot
    ad[..., 6:9, 6:9] = rot
    ad[..., 3:6, 0:3] = skew(chi.nu) @ rot
    ad[..., 6:9, 0:3] = skew(chi.rho) @ rot
    return ad


def adjoint_inv(chi: GroupState) -> np.ndarray:
    """Adjoint of the group inverse, computed in closed form, for one
    element or stacks."""
    rt = chi.rot.swapaxes(-1, -2)
    ad = np.zeros(rt.shape[:-2] + (9, 9))
    ad[..., 0:3, 0:3] = rt
    ad[..., 3:6, 3:6] = rt
    ad[..., 6:9, 6:9] = rt
    ad[..., 3:6, 0:3] = -(rt @ skew(chi.nu))
    ad[..., 6:9, 0:3] = -(rt @ skew(chi.rho))
    return ad


# Entries of the flattened matrix m and their signs.  The radicands of the
# four quaternion forms, t + 1 = m00 + m11 + m22 + 1 for the trace form and
# m_ii - m_jj - m_kk + 1 for the form on diagonal entry i ((i, j, k)
# cyclic), are a + b + c + 1 over the first twelve; the differences and sums
# the forms divide (m21 - m12, m02 - m20, m10 - m01, m10 + m01, m20 + m02,
# m21 + m12) are the sums of the last two sixes.  Adding a negated entry
# gives the bits of subtracting it.
_QUAT_ENTRIES = np.array([0, 0, 4, 8, 4, 4, 8, 0, 8, 8, 0, 4, 7, 2, 3, 3, 6, 7, 5, 6, 1, 1, 2, 5])
_QUAT_SIGNS = np.array([1.0] * 5 + [-1.0] * 3 + [1.0] + [-1.0] * 3 + [1.0] * 6 + [-1.0] * 3 + [1.0] * 3)
# per form (trace, then largest diagonal entry 0, 1, 2), the pair each
# quaternion component divides; the form's own component is 0.25 times the
# scale instead
_QUAT_PAIR = np.array([[0, 0, 1, 2], [0, 0, 3, 4], [1, 3, 0, 5], [2, 4, 5, 0]])


def rot_to_quat(rot: np.ndarray) -> np.ndarray:
    """Unit quaternions [w, x, y, z] (w >= 0) of a rotation matrix or a
    (..., 3, 3) stack of them.

    A matrix with a positive trace takes the trace form; any other takes the
    form built on its largest diagonal entry.  Each matrix's form is picked
    by index, not by gathering the matrices of each form, so one matrix
    costs a few array operations.  The norm is taken with the dot kernel a
    single vector's ``np.linalg.norm`` uses, so a stack gives the same bits
    as its matrices converted one at a time.
    """
    rot = np.asarray(rot, dtype=float)
    flat = rot.reshape(-1, 9)
    terms = flat[:, _QUAT_ENTRIES]
    terms *= _QUAT_SIGNS
    form = np.argmax(flat[:, 0::4], axis=1) + 1
    form[flat[:, 0] + flat[:, 4] + flat[:, 8] > 0.0] = 0
    rows = np.arange(len(flat))
    with np.errstate(invalid="ignore"):
        radicand = terms[:, 0:4] + terms[:, 4:8] + terms[:, 8:12] + 1.0
        s = np.sqrt(radicand[rows, form]) * 2.0
        q = (terms[:, 12:18] + terms[:, 18:24])[rows[:, None], _QUAT_PAIR[form]] / s[:, None]
        q[rows, form] = 0.25 * s
        norm = np.sqrt(np.matmul(q[:, None, :], q[:, :, None]))[:, 0]
        q /= np.where(q[:, :1] < 0.0, -norm, norm)
    return q.reshape(rot.shape[:-2] + (4,))


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion [w, x, y, z] (normalized internally);
    a (..., 4) stack gives a (..., 3, 3) stack.  The norm takes the dot
    kernel of a single vector's ``np.linalg.norm``, as in :func:`rot_to_quat`."""
    q = np.asarray(q, dtype=float)
    with np.errstate(invalid="ignore"):
        w, x, y, z = np.moveaxis(q / np.sqrt(np.matmul(q[..., None, :], q[..., :, None]))[..., 0], -1, 0)
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(q.shape[:-1] + (3, 3))
