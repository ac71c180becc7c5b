import numpy as np
import pytest

from cteskf import lie
from cteskf.filter import mechanize_sequence
from cteskf.ins import (
    EarthModel,
    ImuSample,
    NavState,
    WGS84_RATE,
    EARTH_GM,
    EARTH_RADIUS,
    classic_derivative,
    gravitational_accel,
    group_affine_derivative,
    group_from_nav,
    group_vel_to_classic,
    left_rate_matrix,
    nav_from_group,
    right_rate_matrix,
    vel_frame_convert,
)

EQUATOR = np.array([EARTH_RADIUS, 0.0, 0.0])


def quiet_earth(g=None):
    """Earth with no rotation and a constant (default zero) gravity vector."""
    g = np.zeros(3) if g is None else np.asarray(g, dtype=float)
    return EarthModel(omega_ie=np.zeros(3), gravity_mode="constant", gravity_const=g)


def stationary_specific_force(x: NavState, earth: EarthModel) -> np.ndarray:
    """Force balance: the specific force that keeps an ECEF-fixed state still."""
    return x.att.T @ (2.0 * (earth.omega_mat @ x.vel) - earth.gravity(x.pos))


def stationary_gyro(x: NavState, earth: EarthModel) -> np.ndarray:
    """Body rate that keeps the attitude constant in the Earth frame."""
    return x.att.T @ earth.omega_ie


class TestClassicDerivative:
    def test_stationary_force_balance(self):
        earth = EarthModel()
        rng = np.random.default_rng(0)
        x = NavState(lie.so3_exp(rng.normal(size=3)), np.zeros(3), EQUATOR)
        u = ImuSample(0.0, stationary_gyro(x, earth), stationary_specific_force(x, earth))
        d = classic_derivative(x, u, earth)
        np.testing.assert_allclose(d.dvel, np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(d.datt, np.zeros((3, 3)), atol=1e-12)

    def test_pure_translation(self):
        earth = quiet_earth()
        x = NavState(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
        d = classic_derivative(x, ImuSample(0.0, np.zeros(3), np.zeros(3)), earth)
        np.testing.assert_array_equal(d.dpos, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(d.dvel, np.zeros(3))

    def test_coriolis_term(self):
        earth = EarthModel(gravity_mode="constant", gravity_const=np.zeros(3))
        x = NavState(np.eye(3), np.array([0.0, 100.0, 0.0]), EQUATOR)
        d = classic_derivative(x, ImuSample(0.0, np.zeros(3), np.zeros(3)), earth)
        # hand expansion of -2 (omega x v)
        np.testing.assert_allclose(d.dvel[0], 2.0 * WGS84_RATE * 100.0, rtol=1e-12)
        np.testing.assert_allclose(d.dvel[1:], [0.0, 0.0], atol=1e-15)

    def test_bias_subtraction(self):
        earth = quiet_earth()
        x = NavState(np.eye(3), np.zeros(3), np.zeros(3), bg=np.array([0.1, 0.0, 0.0]))
        d = classic_derivative(x, ImuSample(0.0, np.array([0.1, 0.0, 0.0]), np.zeros(3)), earth)
        np.testing.assert_allclose(d.datt, np.zeros((3, 3)), atol=1e-15)


class TestGroupAffineModel:
    def test_identity_at_rest(self):
        earth = quiet_earth()
        chi = lie.GroupState.identity()
        d = group_affine_derivative(chi, np.zeros(3), np.zeros(3), np.zeros(3), earth)
        np.testing.assert_array_equal(d, np.zeros((5, 5)))

    def test_blockwise_matches_generator_form(self):
        # blockwise kinematics as an independent oracle for chi W + U chi
        earth = EarthModel()
        rng = np.random.default_rng(1)
        for _ in range(20):
            chi = lie.GroupState(
                lie.so3_exp(rng.normal(size=3)),
                rng.normal(scale=10.0, size=3),
                rng.normal(scale=100.0, size=3),
            )
            omega_b = rng.normal(scale=0.5, size=3)
            f_b = rng.normal(scale=10.0, size=3)
            g_acc = rng.normal(scale=10.0, size=3)
            omat = earth.omega_mat
            block = np.zeros((5, 5))
            block[:3, :3] = chi.rot @ lie.skew(omega_b) - omat @ chi.rot
            block[:3, 3] = chi.rot @ f_b - omat @ chi.nu + g_acc
            block[:3, 4] = chi.nu - omat @ chi.rho
            d = group_affine_derivative(chi, omega_b, f_b, g_acc, earth)
            np.testing.assert_allclose(d, block, atol=1e-12 * max(1.0, np.abs(block).max()))

    def test_group_affine_property(self):
        earth = EarthModel()
        rng = np.random.default_rng(2)
        ident = np.eye(5)

        def f_u(mat, w, u):
            return mat @ w + u @ mat

        for _ in range(100):
            w = left_rate_matrix(rng.normal(scale=0.5, size=3), rng.normal(scale=10.0, size=3))
            u = right_rate_matrix(rng.normal(scale=10.0, size=3), earth.omega_ie)
            chi1 = lie.GroupState(lie.so3_exp(rng.normal(size=3)), rng.normal(scale=10, size=3), rng.normal(scale=100, size=3)).as_matrix()
            chi2 = lie.GroupState(lie.so3_exp(rng.normal(size=3)), rng.normal(scale=10, size=3), rng.normal(scale=100, size=3)).as_matrix()
            residual = f_u(chi1 @ chi2, w, u) - f_u(chi1, w, u) @ chi2 - chi1 @ f_u(chi2, w, u) + chi1 @ f_u(ident, w, u) @ chi2
            assert np.abs(residual).max() < 1e-9

    def test_classical_model_is_not_group_affine(self):
        # packing the classical kinematics into the 5x5 form breaks the property
        earth = EarthModel()
        rng = np.random.default_rng(3)

        def f_classic(mat):
            rot, v, r = mat[:3, :3], mat[:3, 3], mat[:3, 4]
            out = np.zeros((5, 5))
            out[:3, :3] = rot @ lie.skew([0.1, -0.2, 0.05]) - earth.omega_mat @ rot
            out[:3, 3] = rot @ np.array([1.0, 2.0, -9.8]) - 2.0 * (earth.omega_mat @ v)
            out[:3, 4] = v
            return out

        worst = 0.0
        for _ in range(20):
            chi1 = lie.GroupState(lie.so3_exp(rng.normal(size=3)), rng.normal(scale=10, size=3), rng.normal(scale=100, size=3)).as_matrix()
            chi2 = lie.GroupState(lie.so3_exp(rng.normal(size=3)), rng.normal(scale=10, size=3), rng.normal(scale=100, size=3)).as_matrix()
            residual = f_classic(chi1 @ chi2) - f_classic(chi1) @ chi2 - chi1 @ f_classic(chi2) + chi1 @ f_classic(np.eye(5)) @ chi2
            worst = max(worst, np.abs(residual).max())
        assert worst > 1e-3


class TestGravity:
    def test_no_rotation_reduces_to_gravity(self):
        earth = EarthModel(omega_ie=np.zeros(3), gravity_mode="spherical")
        r = EQUATOR
        np.testing.assert_allclose(gravitational_accel(r, earth), earth.gravity(r), atol=0.0)

    def test_constant_mode_hand_expansion(self):
        earth = EarthModel(gravity_mode="constant", gravity_const=np.array([0.0, 0.0, -9.81]))
        r = EQUATOR
        g_ib = gravitational_accel(r, earth)
        expected = np.array([-(WGS84_RATE**2) * EARTH_RADIUS, 0.0, -9.81])
        np.testing.assert_allclose(g_ib, expected, rtol=1e-12)

    def test_spherical_magnitude_at_equator(self):
        earth = EarthModel(gravity_mode="spherical")
        g_ib = gravitational_accel(EQUATOR, earth)
        assert 9.7 < np.linalg.norm(g_ib) < 9.9
        np.testing.assert_allclose(np.linalg.norm(g_ib), EARTH_GM / EARTH_RADIUS**2, rtol=1e-12)

    def test_normal_gravity_plausible(self):
        earth = EarthModel(gravity_mode="normal")
        g_eq = np.linalg.norm(earth.gravity(EQUATOR))
        g_pole = np.linalg.norm(earth.gravity(np.array([0.0, 0.0, 6356752.0])))
        assert 9.75 < g_eq < 9.81
        assert 9.80 < g_pole < 9.87
        assert g_pole > g_eq

    def test_spherical_rejects_origin(self):
        earth = EarthModel(gravity_mode="spherical")
        with pytest.raises(ValueError):
            earth.gravity(np.zeros(3))

    @pytest.mark.parametrize("mode", ["constant", "spherical", "normal"])
    def test_stack_matches_per_row_scalar_path(self, mode):
        # the array form gives each position the bits of the float form: on
        # a stack, on the (3, M) columns of the member-array midpoint rule
        # seen through .T, and with a leading member and step axis; a tilted
        # rotation axis fills every product of (omega_ie x)^2 r
        earth = EarthModel(omega_ie=WGS84_RATE * np.array([2.0, -3.0, 6.0]) / 7.0, gravity_mode=mode)
        rng = np.random.default_rng(12)
        r = rng.normal(size=(40, 3))
        r *= (EARTH_RADIUS + rng.uniform(-1e4, 1e5, 40))[:, None] / np.linalg.norm(r, axis=1)[:, None]
        g = earth.gravity(r)
        assert g.shape == (40, 3)
        want = np.array([earth.gravity_xyz(*r_k) for r_k in r.tolist()])
        assert g.tobytes() == want.tobytes()
        columns = np.ascontiguousarray(r.T)
        assert np.ascontiguousarray(earth.gravity(columns.T).T).tobytes() == want.T.tobytes()
        assert earth.gravity(r.reshape(4, 10, 3)).tobytes() == want.reshape(4, 10, 3).tobytes()
        for r_k, g_k in zip(r, want):
            assert earth.gravity(r_k).tobytes() == g_k.tobytes()

    @pytest.mark.parametrize("mode", ["spherical", "normal"])
    def test_stack_with_origin_rejected(self, mode):
        earth = EarthModel(gravity_mode=mode)
        with pytest.raises(ValueError, match="undefined at the origin"):
            earth.gravity(np.array([EQUATOR, np.zeros(3), EQUATOR]))


class TestFrameTurn:
    def test_matches_exponential_as_dt_changes(self):
        earth = EarthModel()
        for dt in (0.01, 0.5, 0.5, 0.01):
            np.testing.assert_array_equal(earth.frame_turn(dt), lie.so3_exp(earth.omega_ie * -dt))

    @pytest.mark.parametrize("omega", [(0.0, 0.0, WGS84_RATE), (1e-4, -2e-4, 3e-4), (0.0, 0.0, 0.0)])
    def test_stack_matches_exponential(self, omega):
        earth = EarthModel(omega_ie=np.array(omega))
        for dt, n in ((0.01, 3), (0.5, 20), (1.0, 3600)):
            turns = earth.frame_turns(dt, 0, n)
            assert turns.shape == (n, 3, 3)
            for k in (0, n // 2, n - 1):
                np.testing.assert_allclose(turns[k], lie.so3_exp(earth.omega_ie * (-(k + 1) * dt)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("omega", [(0.0, 0.0, WGS84_RATE), (1e-4, -2e-4, 3e-4)])
    def test_range_is_rows_of_the_whole_leg(self, omega):
        # a mechanization piece forms only its own turns, with the bits of
        # the matching rows of the whole leg's
        earth = EarthModel(omega_ie=np.array(omega))
        dt, n = 0.005, 3000
        whole = earth.frame_turns(dt, 0, n)
        for start, stop in ((0, 1), (0, 7), (7, 14), (1024, 2048), (2999, 3000), (5, 5)):
            turns = earth.frame_turns(dt, start, stop)
            assert turns.shape == (stop - start, 3, 3)
            assert turns.tobytes() == whole[start:stop].tobytes()


class TestVelFrameConvert:
    def test_no_rotation(self):
        earth = quiet_earth()
        x = NavState(np.eye(3), np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(vel_frame_convert(x, earth), x.vel)

    def test_transport_term(self):
        earth = EarthModel()
        x = NavState(np.eye(3), np.zeros(3), EQUATOR)
        np.testing.assert_allclose(
            vel_frame_convert(x, earth), [0.0, WGS84_RATE * EARTH_RADIUS, 0.0], atol=1e-15
        )

    def test_round_trip(self):
        earth = EarthModel()
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = NavState(np.eye(3), rng.normal(scale=10, size=3), rng.normal(scale=1e6, size=3))
            nu = vel_frame_convert(x, earth)
            np.testing.assert_allclose(group_vel_to_classic(nu, x.pos, earth), x.vel, atol=1e-15 * 1e6)

    def test_group_view_round_trip(self):
        earth = EarthModel()
        rng = np.random.default_rng(5)
        x = NavState(lie.so3_exp(rng.normal(size=3)), rng.normal(size=3), EQUATOR, rng.normal(size=3), rng.normal(size=3), 7.5)
        chi = group_from_nav(x, earth)
        back = nav_from_group(chi, earth, x.bg, x.ba, x.time)
        np.testing.assert_allclose(back.vel, x.vel, atol=1e-9)
        np.testing.assert_array_equal(back.att, x.att)
        np.testing.assert_array_equal(back.pos, x.pos)


def mechanize(x, gyro, accel, dt, earth) -> NavState:
    """The state after mechanize_sequence's steps through the samples."""
    atts, vels, poss = mechanize_sequence(x, np.atleast_2d(gyro), np.atleast_2d(accel), dt, earth)
    return NavState(atts[-1], vels[-1], poss[-1], x.bg, x.ba)


class TestMechanizeSequence:
    def test_vanishing_step_limit(self):
        earth = EarthModel()
        rng = np.random.default_rng(6)
        x = NavState(lie.so3_exp(rng.normal(size=3)), np.zeros(3), EQUATOR)
        out = mechanize(x, stationary_gyro(x, earth), stationary_specific_force(x, earth), 1e-9, earth)
        np.testing.assert_allclose(out.att, x.att, atol=1e-12)
        np.testing.assert_allclose(out.vel, x.vel, atol=1e-12)
        np.testing.assert_allclose(out.pos, x.pos, atol=1e-12 * EARTH_RADIUS)

    def test_constant_rate_yaw(self):
        earth = quiet_earth()
        x = NavState(np.eye(3), np.zeros(3), np.zeros(3))
        dt = 1.0 / 200.0
        x = mechanize(x, np.tile([0.0, 0.0, 0.1], (2000, 1)), np.zeros((2000, 3)), dt, earth)
        yaw = lie.so3_log(x.att)
        np.testing.assert_allclose(yaw, [0.0, 0.0, 1.0], atol=1e-6)

    def test_against_fine_rk_integration(self):
        # smooth synthetic profile; oracle integrates the classical ODE directly
        from scipy.integrate import solve_ivp

        earth = EarthModel(gravity_mode="constant", gravity_const=np.array([0.0, 0.0, -9.81]))
        x0 = NavState(np.eye(3), np.array([1.0, 0.0, 0.0]), EQUATOR)

        def gyro(t):
            return np.array([0.02 * np.sin(0.5 * t), -0.03 * np.cos(0.7 * t), 0.1])

        def accel(t):
            return np.array([0.5 * np.sin(t), 0.2 * np.cos(1.3 * t), 9.81 + 0.1 * np.sin(2.0 * t)])

        def ode(t, y):
            att = y[:9].reshape(3, 3)
            x = NavState(att, y[9:12], y[12:15])
            d = classic_derivative(x, ImuSample(t, gyro(t), accel(t)), earth)
            return np.concatenate([d.datt.ravel(), d.dvel, d.dpos])

        y0 = np.concatenate([x0.att.ravel(), x0.vel, x0.pos])
        sol = solve_ivp(ode, (0.0, 1.0), y0, rtol=1e-12, atol=1e-12, method="DOP853")
        ref_vel, ref_pos = sol.y[9:12, -1], sol.y[12:15, -1]

        dt = 1.0 / 200.0
        t_mid = (np.arange(200) + 0.5) * dt
        x = mechanize(x0, [gyro(t) for t in t_mid], [accel(t) for t in t_mid], dt, earth)
        assert np.linalg.norm(x.pos - ref_pos) < 1e-6
        assert np.linalg.norm(x.vel - ref_vel) < 1e-6

    def test_stationary_stays_put(self):
        # energy sanity over 60 s with the balanced specific force
        earth = EarthModel()
        rng = np.random.default_rng(7)
        x = NavState(lie.so3_exp(rng.normal(size=3)), np.zeros(3), EQUATOR)
        gyro = stationary_gyro(x, earth)
        f = stationary_specific_force(x, earth)
        dt = 1.0 / 200.0
        state = mechanize(x, np.tile(gyro, (12000, 1)), np.tile(f, (12000, 1)), dt, earth)
        assert np.linalg.norm(state.vel) < 1e-6
        assert np.linalg.norm(state.pos - x.pos) < 1e-4

    def test_attitude_stays_orthonormal(self):
        # a long leg composes every step's increment into one prefix product,
        # renormalized once at the end
        earth = EarthModel()
        rng = np.random.default_rng(19)
        x = NavState(lie.so3_exp(rng.normal(size=3)), np.zeros(3), EQUATOR)
        n = 50_000
        atts, _, _ = mechanize_sequence(x, rng.normal(scale=1.0, size=(n, 3)), np.zeros((n, 3)), 0.005, earth)
        drift = np.linalg.norm(np.swapaxes(atts, -1, -2) @ atts - np.eye(3), axis=(1, 2))
        assert drift.max() < 1e-12

    def test_deterministic(self):
        earth = EarthModel()
        rng = np.random.default_rng(8)
        x = NavState(lie.so3_exp(rng.normal(size=3)), rng.normal(size=3), EQUATOR)
        gyro, accel = rng.normal(size=(2, 5, 3))
        a = mechanize(x, gyro, accel, 0.005, earth)
        b = mechanize(x, gyro, accel, 0.005, earth)
        assert np.array_equal(a.att, b.att) and np.array_equal(a.vel, b.vel) and np.array_equal(a.pos, b.pos)
