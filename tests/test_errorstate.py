import numpy as np
import pytest

from cteskf import lie
from cteskf.errorstate import (
    ErrorParam,
    InjectionMode,
    inject_error,
    relation_matrix,
    system_matrix,
    transformation_matrix,
    transformation_matrix_generic,
)
from cteskf.filter import mechanize_sequence
from cteskf.ins import EARTH_RADIUS, EarthModel, ImuSample, NavState, vel_frame_convert

PARAMS = [ErrorParam.ADDITIVE_EKF, ErrorParam.LEFT_INVARIANT, ErrorParam.RIGHT_INVARIANT]
PAIRS = [(a, b) for a in PARAMS for b in PARAMS if a is not b]


def small_scale_earth():
    """Full Earth rotation, constant gravity; keeps states near the origin so
    the position-skew blocks of the relation matrices stay well scaled."""
    return EarthModel(gravity_mode="constant", gravity_const=np.array([0.0, 0.0, -9.80665]))


def random_state(rng, pos_scale=30.0, vel_scale=5.0):
    return NavState(
        lie.so3_exp(rng.uniform(-2.0, 2.0, 3)),
        rng.normal(scale=vel_scale, size=3),
        rng.normal(scale=pos_scale, size=3),
        bg=rng.normal(scale=1e-4, size=3),
        ba=rng.normal(scale=1e-3, size=3),
    )


def one_step(x, u, dt, earth):
    """The state after one mechanize_sequence step with the raw sample u."""
    atts, vels, poss = mechanize_sequence(x, u.gyro[None], u.accel[None], dt, earth)
    return NavState(atts[1], vels[1], poss[1], x.bg, x.ba)


def random_imu(rng):
    return ImuSample(0.0, rng.normal(scale=0.3, size=3), rng.normal(scale=5.0, size=3))


class TestSystemMatrix:
    def test_ekf_gyro_bias_block(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(0)
        x = random_state(rng)
        sm = system_matrix(ErrorParam.ADDITIVE_EKF, x, random_imu(rng), earth)
        np.testing.assert_array_equal(sm.F[0:3, 9:12], x.att)

    def test_left_invariant_f_trajectory_independent(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(1)
        x = random_state(rng)
        u = random_imu(rng)
        f1 = system_matrix(ErrorParam.LEFT_INVARIANT, x, u, earth).F
        x2 = x.copy()
        x2.vel = x2.vel + rng.normal(scale=100.0, size=3)
        x2.pos = x2.pos + rng.normal(scale=1000.0, size=3)
        f2 = system_matrix(ErrorParam.LEFT_INVARIANT, x2, u, earth).F
        np.testing.assert_array_equal(f1, f2)

    @pytest.mark.parametrize("mode", ["constant", "spherical", "normal"])
    @pytest.mark.parametrize("param", PARAMS)
    def test_stacked_state_matches_per_state_calls(self, param, mode):
        # one call on a stacked state gives each step's F and G; only the
        # gravity entries may differ, by rounding between the stacked and the
        # one-position gravity formula
        earth = EarthModel(gravity_mode=mode)
        rng = np.random.default_rng(5)
        n = 12
        att = np.array([lie.so3_exp(rng.uniform(-2.0, 2.0, 3)) for _ in range(n)])
        vel = rng.normal(scale=20.0, size=(n, 3))
        pos = rng.normal(size=(n, 3))
        pos *= EARTH_RADIUS / np.linalg.norm(pos, axis=1)[:, None]
        gyro, accel = rng.normal(scale=0.3, size=(n, 3)), rng.normal(scale=5.0, size=(n, 3))
        stacked = system_matrix(param, NavState(att, vel, pos), ImuSample(0.0, gyro, accel), earth)
        assert stacked.F.shape == (n, 15, 15) and stacked.G.shape == (n, 15, 12)
        for k in range(n):
            one = system_matrix(param, NavState(att[k], vel[k], pos[k]), ImuSample(0.0, gyro[k], accel[k]), earth)
            np.testing.assert_allclose(stacked.F[k], one.F, rtol=1e-15, atol=0.0)
            np.testing.assert_array_equal(stacked.G[k], one.G)

    def test_g_relation_exact(self):
        # G_dst = A(x) G_src must hold identically for the printed blocks
        earth = small_scale_earth()
        rng = np.random.default_rng(2)
        for src, dst in PAIRS:
            x = random_state(rng)
            u = random_imu(rng)
            g_src = system_matrix(src, x, u, earth).G
            g_dst = system_matrix(dst, x, u, earth).G
            a = relation_matrix(src, dst, x, earth)
            scale = max(1.0, np.abs(g_dst).max())
            np.testing.assert_allclose(a @ g_src, g_dst, atol=1e-12 * scale)

    @pytest.mark.parametrize("src,dst", PAIRS)
    def test_f_relation_with_finite_difference(self, src, dst):
        # F_dst A - Adot - A F_src ~ 0 with Adot by central difference along
        # the noise-free flow of the estimate
        earth = small_scale_earth()
        rng = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(5):
            x0 = random_state(rng)
            u = random_imu(rng)
            x1 = one_step(x0, u, eps, earth)
            x2 = one_step(x1, u, eps, earth)
            u_corr = ImuSample(0.0, u.gyro - x1.bg, u.accel - x1.ba)
            f_src = system_matrix(src, x1, u_corr, earth).F
            f_dst = system_matrix(dst, x1, u_corr, earth).F
            a_mid = relation_matrix(src, dst, x1, earth)
            a_dot = (relation_matrix(src, dst, x2, earth) - relation_matrix(src, dst, x0, earth)) / (2.0 * eps)
            residual = f_dst @ a_mid - a_dot - a_mid @ f_src
            assert np.abs(residual).max() < 1e-6


class TestRelationMatrix:
    def test_same_param_is_identity(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(4))
        for p in PARAMS:
            np.testing.assert_array_equal(relation_matrix(p, p, x, earth), np.eye(15))

    def test_left_jacobian_blocks(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(5))
        a = relation_matrix(ErrorParam.ADDITIVE_EKF, ErrorParam.LEFT_INVARIANT, x, earth)
        np.testing.assert_array_equal(a[0:3, 0:3], -x.att.T)
        np.testing.assert_allclose(a[3:6, 6:9], -(x.att.T @ earth.omega_mat), atol=0.0)

    def test_closed_form_inverses(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(6)
        for src, dst in PAIRS:
            x = random_state(rng)
            prod = relation_matrix(src, dst, x, earth) @ relation_matrix(dst, src, x, earth)
            np.testing.assert_allclose(prod, np.eye(15), atol=1e-10)

    def test_adjoint_is_jr_jl_inverse(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_state(rng)
            jl = relation_matrix(ErrorParam.ADDITIVE_EKF, ErrorParam.LEFT_INVARIANT, x, earth)
            jr = relation_matrix(ErrorParam.ADDITIVE_EKF, ErrorParam.RIGHT_INVARIANT, x, earth)
            ad = relation_matrix(ErrorParam.LEFT_INVARIANT, ErrorParam.RIGHT_INVARIANT, x, earth)
            scale = max(1.0, np.abs(ad).max())
            np.testing.assert_allclose(jr @ np.linalg.inv(jl), ad, atol=1e-12 * scale)

    def test_composition_closes(self):
        # l->r equals (ekf->r) composed with inverse of (ekf->l)
        earth = small_scale_earth()
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = random_state(rng)
            a_lr = relation_matrix(ErrorParam.LEFT_INVARIANT, ErrorParam.RIGHT_INVARIANT, x, earth)
            a_er = relation_matrix(ErrorParam.ADDITIVE_EKF, ErrorParam.RIGHT_INVARIANT, x, earth)
            a_el = relation_matrix(ErrorParam.ADDITIVE_EKF, ErrorParam.LEFT_INVARIANT, x, earth)
            composed = a_er @ np.linalg.inv(a_el)
            np.testing.assert_allclose(composed, a_lr, atol=1e-10 * max(1.0, np.abs(a_lr).max()))

    def test_determinant_is_plus_minus_one(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(9)
        for src, dst in PAIRS:
            x = random_state(rng)
            det = np.linalg.det(relation_matrix(src, dst, x, earth))
            assert abs(abs(det) - 1.0) < 1e-9

    def test_earth_scale_still_invertible(self):
        earth = EarthModel()
        x = NavState(np.eye(3), np.array([5.0, 0.0, 0.0]), np.array([6378137.0, 0.0, 0.0]))
        a = relation_matrix(ErrorParam.ADDITIVE_EKF, ErrorParam.RIGHT_INVARIANT, x, earth)
        ainv = relation_matrix(ErrorParam.RIGHT_INVARIANT, ErrorParam.ADDITIVE_EKF, x, earth)
        np.testing.assert_allclose(a @ ainv, np.eye(15), atol=1e-8)


def perturbed_state(rng, x):
    """Update-sized perturbation of x, standing in for a post-update state."""
    out = x.copy()
    out.att = lie.so3_exp(rng.normal(scale=0.05, size=3)) @ x.att
    out.vel = x.vel + rng.normal(scale=1.0, size=3)
    out.pos = x.pos + rng.normal(scale=2.0, size=3)
    return out


class TestTransformationMatrix:
    def test_equal_states_give_identity(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(10))
        for src, dst in PAIRS:
            t = transformation_matrix(src, dst, x, x, earth)
            np.testing.assert_allclose(t, np.eye(15), atol=1e-12)

    def test_right_to_ekf_lower_blocks(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(11)
        x_minus = random_state(rng)
        x_plus = perturbed_state(rng, x_minus)
        t = transformation_matrix(ErrorParam.RIGHT_INVARIANT, ErrorParam.ADDITIVE_EKF, x_plus, x_minus, earth)
        nu_p, nu_m = vel_frame_convert(x_plus, earth), vel_frame_convert(x_minus, earth)
        np.testing.assert_allclose(t[3:6, 0:3], lie.skew(nu_p) - lie.skew(nu_m), atol=1e-14)
        np.testing.assert_allclose(t[6:9, 0:3], lie.skew(x_plus.pos) - lie.skew(x_minus.pos), atol=1e-14)

    def test_closed_forms_match_generic_composition(self):
        # central cross-check of this module
        earth = small_scale_earth()
        rng = np.random.default_rng(12)
        for src, dst in PAIRS:
            for _ in range(20):
                x_minus = random_state(rng)
                x_plus = perturbed_state(rng, x_minus)
                closed = transformation_matrix(src, dst, x_plus, x_minus, earth)
                generic = transformation_matrix_generic(src, dst, x_plus, x_minus, earth)
                assert np.linalg.norm(closed - generic) < 1e-10

    def test_determinant_one(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(13)
        for src, dst in PAIRS:
            for _ in range(20):
                x_minus = random_state(rng)
                x_plus = perturbed_state(rng, x_minus)
                t = transformation_matrix(src, dst, x_plus, x_minus, earth)
                assert abs(np.linalg.det(t) - 1.0) < 1e-10


class TestInjectError:
    def test_zero_error_is_noop(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(14))
        for p in PARAMS:
            for mode in InjectionMode:
                out = inject_error(p, x, np.zeros(15), earth, mode)
                np.testing.assert_allclose(out.att, x.att, atol=1e-15)
                np.testing.assert_allclose(out.vel, x.vel, atol=1e-12)
                np.testing.assert_allclose(out.pos, x.pos, atol=1e-12)

    def test_ekf_position_sign(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(15))
        xi = np.zeros(15)
        xi[6:9] = [1.0, 2.0, 3.0]
        out = inject_error(ErrorParam.ADDITIVE_EKF, x, xi, earth, InjectionMode.FIRST_ORDER)
        np.testing.assert_allclose(out.pos, x.pos - np.array([1.0, 2.0, 3.0]), atol=1e-12)

    def test_bias_sign(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(16))
        xi = np.zeros(15)
        xi[9:12] = [1e-3, 0.0, 0.0]
        for p in PARAMS:
            out = inject_error(p, x, xi, earth, InjectionMode.RETRACTION)
            np.testing.assert_allclose(out.bg, x.bg - np.array([1e-3, 0.0, 0.0]), atol=1e-15)

    def test_first_order_injection_is_parameterization_invariant(self):
        # equivalent errors (related by the relation matrices) injected in any
        # parameterization must land on the same state
        earth = small_scale_earth()
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_state(rng)
            dx = rng.normal(scale=1e-4, size=15)
            states = []
            for p in PARAMS:
                xi = relation_matrix(ErrorParam.ADDITIVE_EKF, p, x, earth) @ dx
                states.append(inject_error(p, x, xi, earth, InjectionMode.FIRST_ORDER))
            ref = states[0]
            for other in states[1:]:
                assert np.linalg.norm(lie.so3_log(other.att @ ref.att.T)) < 1e-8
                assert np.linalg.norm(other.vel - ref.vel) < 1e-8
                assert np.linalg.norm(other.pos - ref.pos) < 1e-8

    def test_retraction_differs_at_second_order(self):
        earth = small_scale_earth()
        rng = np.random.default_rng(18)
        x = random_state(rng)
        xi = np.zeros(15)
        xi[0:3] = [1e-2, -2e-2, 1.5e-2]
        xi[3:6] = [1e-2, 0.0, 0.0]
        first = inject_error(ErrorParam.LEFT_INVARIANT, x, xi, earth, InjectionMode.FIRST_ORDER)
        retr = inject_error(ErrorParam.LEFT_INVARIANT, x, xi, earth, InjectionMode.RETRACTION)
        gap = np.linalg.norm(lie.so3_log(first.att @ retr.att.T)) + np.linalg.norm(first.vel - retr.vel)
        assert 0.0 < gap < 1e-2

    @pytest.mark.parametrize("param", [ErrorParam.LEFT_INVARIANT, ErrorParam.RIGHT_INVARIANT])
    def test_invariant_retraction_is_orthonormal_to_rounding(self, param):
        # the retraction composes two rotations, each orthonormal to a few
        # ulps, and one Newton step brings the product back to rounding
        # level, on a bank of random states at Earth scale with corrections
        # up to radians
        rng = np.random.default_rng(22)
        n = 500
        x = NavState(
            lie.so3_exp(rng.uniform(-2.0, 2.0, (n, 3))), rng.normal(scale=5.0, size=(n, 3)),
            np.array([EARTH_RADIUS, 0.0, 0.0]) + rng.normal(scale=30.0, size=(n, 3)), np.zeros((n, 3)), np.zeros((n, 3)),
        )
        xi = rng.normal(scale=[0.5] * 3 + [1.0] * 12, size=(n, 15))
        xi[:, 0:3] *= np.minimum(1.0, 3.0 / np.linalg.norm(xi[:, 0:3], axis=1))[:, None]
        att = inject_error(param, x, xi, EarthModel(), InjectionMode.RETRACTION).att
        assert np.abs(att.swapaxes(-1, -2) @ att - np.eye(3)).max() <= 4.0 * np.finfo(float).eps

    def test_rejects_pi_attitude_error(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(19))
        xi = np.zeros(15)
        xi[0:3] = [np.pi, 0.0, 0.0]
        with pytest.raises(ValueError):
            inject_error(ErrorParam.ADDITIVE_EKF, x, xi, earth)

    def test_retraction_consistency_left(self):
        # group-exponential injection matches the definition eta_l = chi_hat^-1 chi
        earth = small_scale_earth()
        rng = np.random.default_rng(20)
        x = random_state(rng)
        xi = np.concatenate([rng.normal(scale=0.1, size=9), np.zeros(6)])
        out = inject_error(ErrorParam.LEFT_INVARIANT, x, xi, earth, InjectionMode.RETRACTION)
        from cteskf.ins import group_from_nav

        chi_hat = group_from_nav(x, earth)
        chi_new = group_from_nav(out, earth)
        eta = lie.compose(lie.inverse(chi_hat), chi_new)
        np.testing.assert_allclose(lie.se23_log(eta), xi[:9], atol=1e-9)
