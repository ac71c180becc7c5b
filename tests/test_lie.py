import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from cteskf import lie


def random_rotation(rng):
    return lie.so3_exp(rng.uniform(-np.pi * 0.9, np.pi * 0.9, 3))


def random_group_state(rng, vel_scale=10.0, pos_scale=100.0):
    return lie.GroupState(
        random_rotation(rng),
        rng.normal(scale=vel_scale, size=3),
        rng.normal(scale=pos_scale, size=3),
    )


class TestSkew:
    def test_zero(self):
        np.testing.assert_array_equal(lie.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_basis_vector(self):
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(lie.skew(np.array([1.0, 0.0, 0.0])), expected)

    def test_matches_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(lie.skew(a) @ b, np.cross(a, b), atol=1e-15)

    def test_antisymmetric(self):
        m = lie.skew(np.array([0.3, -1.2, 2.0]))
        np.testing.assert_allclose(m, -m.T, atol=0.0)

    def test_stack_matches_cross_product_row_wise(self):
        rng = np.random.default_rng(1)
        v, w = rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 6, 3))
        m = lie.skew(v)
        assert m.shape == (4, 6, 3, 3)
        np.testing.assert_allclose((m @ w[..., None])[..., 0], np.cross(v, w), atol=1e-15)
        for idx in np.ndindex(4, 6):
            np.testing.assert_array_equal(m[idx], lie.skew(v[idx]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_non_finite_component_stays_in_its_entries(self, shape):
        # a non-finite state reaches the divergence checks as inf/NaN entries
        # where it has them, with no numpy warning on the way
        v = np.broadcast_to([np.inf, 1.0, np.nan], shape)
        expected = np.array([[0.0, np.nan, 1.0], [np.nan, 0.0, -np.inf], [-1.0, np.inf, 0.0]])
        np.testing.assert_array_equal(lie.skew(v), np.broadcast_to(expected, shape[:-1] + (3, 3)))


class TestSo3ExpLog:
    def test_exp_zero_is_identity(self):
        np.testing.assert_array_equal(lie.so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = lie.so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)

    def test_small_angle_matches_first_order(self):
        phi = np.array([1e-6, 2e-6, -1e-6])
        np.testing.assert_allclose(lie.so3_exp(phi), np.eye(3) + lie.skew(phi), atol=1e-11)

    def test_exp_is_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = lie.so3_exp(rng.uniform(-3.0, 3.0, 3))
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_stack_matches_one_at_a_time(self):
        # zero, below and above the small-angle threshold, and up to pi
        rng = np.random.default_rng(2)
        phi = np.concatenate([np.zeros((1, 3)), *(rng.normal(scale=s, size=(8, 3)) for s in (1e-9, 1e-4, 0.3, 1.5))])
        stack = lie.so3_exp(phi.reshape(3, 11, 3))
        assert stack.shape == (3, 11, 3, 3)
        for got, v in zip(stack.reshape(-1, 3, 3), phi):
            np.testing.assert_array_equal(got, lie.so3_exp(v))
        assert np.isnan(lie.so3_exp(np.array([[np.nan, 0.0, 0.0], [0.1, 0.0, 0.0]]))[0]).all()

    def test_log_identity(self):
        np.testing.assert_array_equal(lie.so3_log(np.eye(3)), np.zeros(3))

    def test_log_round_trip(self):
        phi = np.array([0.3, -0.2, 0.1])
        np.testing.assert_allclose(lie.so3_log(lie.so3_exp(phi)), phi, atol=1e-12)

    def test_log_pi_about_x(self):
        r = lie.so3_exp(np.array([np.pi, 0.0, 0.0]))
        phi = lie.so3_log(r)
        np.testing.assert_allclose(phi, [np.pi, 0.0, 0.0], atol=1e-7)
        # sign convention: first nonzero axis component positive
        assert phi[0] > 0.0

    def test_log_near_pi_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            phi = (np.pi - 1e-9) * axis
            r = lie.so3_exp(phi)
            np.testing.assert_allclose(lie.so3_exp(lie.so3_log(r)), r, atol=1e-9)

    def test_log_exp_inverse_generic(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            phi = rng.uniform(-1.0, 1.0, 3) * 0.99 * np.pi / np.sqrt(3.0)
            back = lie.so3_log(lie.so3_exp(phi))
            np.testing.assert_allclose(back, phi, rtol=1e-9, atol=1e-12)


    @staticmethod
    def unit_axes(rng, n):
        axes = rng.normal(size=(n, 3))
        return axes / np.linalg.norm(axes, axis=1, keepdims=True)

    def test_log_matches_scipy_near_pi(self):
        # the arccos form lost up to 7e-4 rad just outside a near-pi branch
        rng = np.random.default_rng(21)
        for gap in (1.01e-6, 2e-6, 5e-6, 1e-5, 1e-4, 1e-3):
            rots = Rotation.from_rotvec((np.pi - gap) * self.unit_axes(rng, 5000)).as_matrix()
            err = np.abs(lie.so3_log(rots) - Rotation.from_matrix(rots).as_rotvec()).max()
            assert err <= 1e-14, (gap, err)
        rots = Rotation.random(20000, random_state=22).as_matrix()
        assert np.abs(lie.so3_log(rots) - Rotation.from_matrix(rots).as_rotvec()).max() <= 1e-14

    def test_log_matches_scipy_near_identity(self):
        rng = np.random.default_rng(23)
        for angle in (0.0, 1e-12, 1e-9, 1e-7):
            rots = Rotation.from_rotvec(angle * self.unit_axes(rng, 1000)).as_matrix()
            assert np.abs(lie.so3_log(rots) - Rotation.from_matrix(rots).as_rotvec()).max() <= 1e-14

    def test_log_stack_shape(self):
        rots = Rotation.random(12, random_state=24).as_matrix()
        stacked = lie.so3_log(rots)
        assert stacked.shape == (12, 3)
        assert np.array_equal(lie.so3_log(rots.reshape(3, 4, 3, 3)), stacked.reshape(3, 4, 3))
        assert lie.so3_log(np.empty((0, 3, 3))).shape == (0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_log_of_non_finite_is_nan(self, bad):
        # warnings fail this suite, so this also checks that none is raised
        for entries in ((0, 0), (0, 1), (2, 2)):
            rot = np.eye(3)
            rot[entries] = bad
            assert np.isnan(lie.so3_log(rot)).all()
        assert np.isnan(lie.so3_log(np.full((2, 3, 3), bad))).all()


def rotation_vectors(min_angle=0.0, max_angle=np.pi):
    """Rotation vectors with an angle in [min_angle, max_angle] about an
    arbitrary axis."""
    axis = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(lambda a: np.linalg.norm(a) > 0.1)
    angle = st.floats(min_angle, max_angle)
    return st.builds(lambda a, t: t * a / np.linalg.norm(a), axis, angle)


class TestProperties:
    @given(rotation_vectors(max_angle=1e-6))
    def test_log_inverts_exp_near_identity(self, phi):
        np.testing.assert_allclose(lie.so3_log(lie.so3_exp(phi)), phi, rtol=0, atol=1e-13)

    @given(rotation_vectors(np.pi - 1e-2, np.pi - 1e-9))
    def test_log_inverts_exp_near_pi(self, phi):
        # closer to pi than 1e-9, rounding leaves the sign of the axis open
        np.testing.assert_allclose(lie.so3_log(lie.so3_exp(phi)), phi, rtol=0, atol=1e-13)

    @given(rotation_vectors())
    def test_exp_inverts_log(self, phi):
        rot = lie.so3_exp(phi)
        np.testing.assert_allclose(lie.so3_exp(lie.so3_log(rot)), rot, rtol=0, atol=1e-14)

    @given(st.lists(rotation_vectors(), min_size=1, max_size=20))
    def test_log_stack_equals_one_at_a_time(self, phis):
        rots = np.array([lie.so3_exp(phi) for phi in phis])
        assert np.array_equal(lie.so3_log(rots), np.array([lie.so3_log(r) for r in rots]))

    @given(
        rotation_vectors(max_angle=np.pi - 1e-3),
        st.tuples(*[st.floats(-100.0, 100.0)] * 6).map(np.array),
    )
    def test_se23_log_inverts_exp(self, phi, cols):
        xi = np.concatenate([phi, cols])
        np.testing.assert_allclose(lie.se23_log(lie.se23_exp(xi)), xi, rtol=0, atol=1e-9)

    @given(rotation_vectors(min_angle=2.5), st.floats(0.0, 1.0))
    def test_quaternion_round_trip_on_every_branch(self, phi, small):
        # large angles about the three cyclic permutations of an axis take the
        # three largest-diagonal branches; a small angle takes the trace branch
        rots = np.array([lie.so3_exp(np.roll(phi, k)) for k in range(3)] + [lie.so3_exp(small * phi)])
        diag = np.diagonal(rots, axis1=1, axis2=2)
        assume(len(set(np.where(diag.sum(axis=1) > 0.0, 3, np.argmax(diag, axis=1)))) == 4)
        q = lie.rot_to_quat(rots)
        back = lie.quat_to_rot(q)
        assert np.array_equal(back, np.array([lie.quat_to_rot(qk) for qk in q]))
        np.testing.assert_allclose(back, rots, rtol=0, atol=1e-14)


def _arrays(out):
    """The arrays of a map's result; a GroupState holds three."""
    return [out.rot, out.nu, out.rho] if isinstance(out, lie.GroupState) else [out]


# each map and how it builds its argument from a rotation vector and six
# other numbers
MAPS = {
    "so3_exp": (lie.so3_exp, lambda phi, cols: phi),
    "so3_left_jacobian": (lie.so3_left_jacobian, lambda phi, cols: phi),
    "so3_left_jacobian_inv": (lie.so3_left_jacobian_inv, lambda phi, cols: phi),
    "se23_exp": (lie.se23_exp, lambda phi, cols: np.concatenate([phi, cols])),
    "skew": (lie.skew, lambda phi, cols: cols[:3]),
    "so3_log": (lie.so3_log, lambda phi, cols: lie.so3_exp(phi)),
    "rot_to_quat": (lie.rot_to_quat, lambda phi, cols: lie.so3_exp(phi)),
    # a quaternion of either sign whose norm squared cannot underflow
    "quat_to_rot": (lie.quat_to_rot, lambda phi, cols: (1.0 + cols[0]) * lie.rot_to_quat(lie.so3_exp(phi))),
}
# the maps whose whole result is NaN for a non-finite argument
NAN_MAPS = ("so3_exp", "so3_left_jacobian", "so3_left_jacobian_inv", "se23_exp", "so3_log")


def series(phi):
    """so3_exp, so3_left_jacobian and so3_left_jacobian_inv of phi from
    their 4th-order Taylor coefficients."""
    px = lie.skew(phi)
    px2, t2 = px @ px, phi @ phi
    return (
        np.eye(3) + (1.0 - t2 / 6.0 + t2 * t2 / 120.0) * px + (0.5 - t2 / 24.0 + t2 * t2 / 720.0) * px2,
        np.eye(3) + (0.5 - t2 / 24.0 + t2 * t2 / 720.0) * px + (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0) * px2,
        np.eye(3) - 0.5 * px + (1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0) * px2,
    )


class TestOneFormPerMap:
    """Every map takes one object or a stack through one implementation."""

    @pytest.mark.parametrize("name", MAPS)
    @given(
        st.lists(
            st.tuples(
                st.one_of(rotation_vectors(max_angle=10 * lie.SMALL_ANGLE), rotation_vectors()),
                st.tuples(*[st.floats(-100.0, 100.0)] * 6).map(np.array),
            ),
            min_size=6,
            max_size=6,
        )
    )
    def test_stack_equals_one_at_a_time(self, name, args):
        fn, build = MAPS[name]
        objects = np.array([build(phi, cols) for phi, cols in args])
        alone = [_arrays(fn(obj)) for obj in objects]
        for k, stacked in enumerate(_arrays(fn(objects.reshape((2, 3) + objects.shape[1:])))):
            assert stacked.shape[:2] == (2, 3)
            assert np.array_equal(stacked.reshape((6,) + stacked.shape[2:]), [a[k] for a in alone], equal_nan=True)

    @given(
        st.lists(
            st.one_of(rotation_vectors(max_angle=lie.SMALL_ANGLE), rotation_vectors(lie.SMALL_ANGLE, 10 * lie.SMALL_ANGLE)),
            min_size=1,
            max_size=8,
        )
    )
    def test_small_angles_on_both_sides_of_the_threshold_follow_the_series(self, phis):
        phis = np.array(phis)
        got = (lie.so3_exp(phis), lie.so3_left_jacobian(phis), lie.so3_left_jacobian_inv(phis))
        for i, phi in enumerate(phis):
            for value, expected in zip(got, series(phi)):
                np.testing.assert_allclose(value[i], expected, rtol=0, atol=1e-15)
        chi = lie.se23_exp(np.concatenate([phis, np.ones_like(phis), -np.ones_like(phis)], axis=1))
        np.testing.assert_allclose(chi.nu, lie.matvec(got[1], np.ones_like(phis)), rtol=0, atol=0)

    @given(st.lists(rotation_vectors(), min_size=1, max_size=12))
    def test_jacobian_times_inverse_is_identity_on_a_stack(self, phis):
        phis = np.array(phis)
        prod = lie.so3_left_jacobian(phis) @ lie.so3_left_jacobian_inv(phis)
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_gives_nan(self, name, bad):
        # a non-finite IMU sample must surface as a non-finite state, not
        # raise, and leave the other members of a stack alone; warnings fail
        # this suite, so this also checks that none is raised.  The bad
        # object is zero but its first entry: (inf, 0, 0) for a vector
        fn, build = MAPS[name]
        rng = np.random.default_rng(25)
        objects = np.array([build(rng.uniform(-1.0, 1.0, 3), rng.normal(size=6)) for _ in range(3)])
        objects[1] = 0.0
        objects[1].flat[0] = bad
        for k, out in enumerate(_arrays(fn(objects))):
            assert np.isnan(out[1]).all() if name in NAN_MAPS else not np.isfinite(out[1]).all()
            for i in (0, 2):
                assert np.array_equal(out[i], _arrays(fn(objects[i]))[k])
        for k, out in enumerate(_arrays(fn(objects[1]))):
            assert np.array_equal(out, _arrays(fn(objects))[k][1], equal_nan=True)


class TestJacobians:
    def test_left_jacobian_integral_oracle(self):
        # J_l(phi) = integral of exp(s phi) ds over [0, 1], by quadrature
        from scipy.integrate import simpson

        rng = np.random.default_rng(4)
        for _ in range(10):
            phi = rng.uniform(-2.0, 2.0, 3)
            s = np.linspace(0.0, 1.0, 401)
            samples = np.stack([lie.so3_exp(si * phi) for si in s])
            oracle = simpson(samples, x=s, axis=0)
            np.testing.assert_allclose(lie.so3_left_jacobian(phi), oracle, atol=1e-9)

    def test_jacobian_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            phi = rng.uniform(-2.0, 2.0, 3)
            prod = lie.so3_left_jacobian(phi) @ lie.so3_left_jacobian_inv(phi)
            np.testing.assert_allclose(prod, np.eye(3), atol=1e-12)

    def test_small_angle_consistency(self):
        phi = np.array([1e-9, -2e-9, 3e-9])
        np.testing.assert_allclose(lie.so3_left_jacobian(phi), np.eye(3) + 0.5 * lie.skew(phi), atol=1e-15)


class TestSe23HatVee:
    def test_zero(self):
        np.testing.assert_array_equal(lie.se23_hat(np.zeros(9)), np.zeros((5, 5)))

    def test_velocity_placement(self):
        xi = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
        m = lie.se23_hat(xi)
        np.testing.assert_array_equal(m[:3, 3], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m[:3, :3], np.zeros((3, 3)))
        np.testing.assert_array_equal(m[:3, 4], np.zeros(3))

    def test_vee_hat_round_trip_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            xi = rng.normal(size=9)
            np.testing.assert_array_equal(lie.se23_vee(lie.se23_hat(xi)), xi)

    def test_vee_rejects_bad_bottom_rows(self):
        m = np.zeros((5, 5))
        m[4, 0] = 1e-6
        with pytest.raises(ValueError):
            lie.se23_vee(m)


class TestSe23ExpLog:
    def test_zero_gives_identity(self):
        chi = lie.se23_exp(np.zeros(9))
        np.testing.assert_array_equal(chi.as_matrix(), np.eye(5))

    def test_pure_translation(self):
        xi = np.array([0.0, 0.0, 0.0, 1.0, -2.0, 3.0, 4.0, 5.0, -6.0])
        chi = lie.se23_exp(xi)
        np.testing.assert_array_equal(chi.rot, np.eye(3))
        np.testing.assert_array_equal(chi.nu, xi[3:6])
        np.testing.assert_array_equal(chi.rho, xi[6:9])

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi = rng.uniform(-1.0, 1.0, 9) * np.array([2, 2, 2, 5, 5, 5, 5, 5, 5])
            np.testing.assert_allclose(
                lie.se23_exp(xi).as_matrix(), expm(lie.se23_hat(xi)), atol=1e-10
            )

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            xi = rng.uniform(-1.0, 1.0, 9) * np.array([1.5, 1.5, 1.5, 8, 8, 8, 50, 50, 50])
            back = lie.se23_log(lie.se23_exp(xi))
            np.testing.assert_allclose(back, xi, rtol=1e-9, atol=1e-12)


class TestComposeInverse:
    def test_identity_neutral(self):
        rng = np.random.default_rng(9)
        b = random_group_state(rng)
        c = lie.compose(lie.GroupState.identity(), b)
        np.testing.assert_array_equal(c.as_matrix(), b.as_matrix())

    def test_double_inverse(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_group_state(rng)
            back = lie.inverse(lie.inverse(a))
            np.testing.assert_allclose(back.as_matrix(), a.as_matrix(), atol=1e-13)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_group_state(rng)
            np.testing.assert_allclose(
                lie.compose(a, lie.inverse(a)).as_matrix(), np.eye(5), atol=1e-12
            )

    def test_compose_matches_dense_product(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b = random_group_state(rng), random_group_state(rng)
            np.testing.assert_allclose(
                lie.compose(a, b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-14
            )

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(13)
        a = random_group_state(rng)
        b = lie.GroupState.from_matrix(a.as_matrix())
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_array_equal(lie.adjoint(lie.GroupState.identity()), np.eye(9))

    def test_velocity_block(self):
        chi = lie.GroupState(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
        ad = lie.adjoint(chi)
        np.testing.assert_array_equal(ad[3:6, 0:3], lie.skew([1.0, 0.0, 0.0]))

    def test_conjugation_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            chi = random_group_state(rng)
            xi = rng.normal(size=9)
            lhs = lie.se23_hat(lie.adjoint(chi) @ xi)
            rhs = chi.as_matrix() @ lie.se23_hat(xi) @ lie.inverse(chi).as_matrix()
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))

    def test_adjoint_inverse(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            chi = random_group_state(rng)
            prod = lie.adjoint(chi) @ lie.adjoint_inv(chi)
            np.testing.assert_allclose(prod, np.eye(9), atol=1e-9)

    def test_homomorphism(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            a, b = random_group_state(rng, 5, 10), random_group_state(rng, 5, 10)
            lhs = lie.adjoint(lie.compose(a, b))
            rhs = lie.adjoint(a) @ lie.adjoint(b)
            assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(rhs))


class TestRenormalization:
    def test_svd_orthonormalize(self):
        rng = np.random.default_rng(18)
        r = random_rotation(rng) + rng.normal(scale=1e-3, size=(3, 3))
        r2 = lie.orthonormalize(r)
        np.testing.assert_allclose(r2.T @ r2, np.eye(3), atol=1e-14)
        assert np.linalg.det(r2) > 0.0


class TestQuaternions:
    def test_round_trip(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            r = random_rotation(rng)
            np.testing.assert_allclose(lie.quat_to_rot(lie.rot_to_quat(r)), r, atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(lie.rot_to_quat(np.eye(3)), [1.0, 0.0, 0.0, 0.0], atol=0.0)

    @staticmethod
    def branch_stack():
        """Rotations covering the trace branch and each largest-diagonal
        branch, including angles at and just below pi about each axis."""
        from scipy.spatial.transform import Rotation

        mats = [Rotation.random(400, random_state=3).as_matrix()]
        for axis in np.eye(3):
            for angle in (np.pi, np.pi - 1e-9, np.pi - 1e-6, 2.0):
                mats.append(lie.so3_exp(axis * angle)[None])
        return np.concatenate(mats)

    def test_stack_matches_one_by_one_on_every_branch(self):
        rots = self.branch_stack()
        diag = np.diagonal(rots, axis1=1, axis2=2)
        branch = np.where(diag.sum(axis=1) > 0.0, 3, np.argmax(diag, axis=1))
        assert set(branch) == {0, 1, 2, 3}
        stacked = lie.rot_to_quat(rots)
        assert np.array_equal(stacked, np.array([lie.rot_to_quat(r) for r in rots]))
        assert np.array_equal(lie.rot_to_quat(rots.reshape(2, -1, 3, 3)), stacked.reshape(2, -1, 4))

    def test_stack_agrees_with_scipy_and_round_trips(self):
        from scipy.spatial.transform import Rotation

        rots = self.branch_stack()
        q = lie.rot_to_quat(rots)
        assert (q[:, 0] >= 0.0).all()
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, rtol=0, atol=1e-15)
        ref = np.roll(Rotation.from_matrix(rots).as_quat(), 1, axis=1)
        ref *= np.where(ref[:, :1] < 0.0, -1.0, 1.0)
        # at exactly pi both signs have w = 0
        err = np.minimum(np.abs(q - ref).max(axis=1), np.abs(q + ref).max(axis=1))
        assert err.max() < 1e-12
        back = np.array([lie.quat_to_rot(qk) for qk in q])
        np.testing.assert_allclose(back, rots, rtol=0, atol=1e-12)
