import numpy as np
import pytest

from cteskf import lie
from cteskf.errorstate import ErrorParam, InjectionMode, inject_error, relation_matrix
from cteskf.ins import EarthModel, NavState, EARTH_RADIUS
from cteskf.sensors import Observation, innovation, noise_covariance, observation_matrix

PARAMS = [ErrorParam.ADDITIVE_EKF, ErrorParam.LEFT_INVARIANT, ErrorParam.RIGHT_INVARIANT]
KINDS = ["gnss_vel", "odo"]


def small_scale_earth():
    return EarthModel(gravity_mode="constant", gravity_const=np.array([0.0, 0.0, -9.80665]))


def random_state(rng, pos_scale=30.0):
    return NavState(
        lie.so3_exp(rng.uniform(-2.0, 2.0, 3)),
        rng.normal(scale=5.0, size=3),
        rng.normal(scale=pos_scale, size=3),
    )


class TestInnovation:
    def test_perfect_observation_is_zero(self):
        rng = np.random.default_rng(0)
        x = random_state(rng)
        gnss = Observation("gnss_vel", 0.0, x.vel.copy(), np.full(3, 0.2))
        odo = Observation("odo", 0.0, x.att.T @ x.vel, np.full(3, 0.1))
        np.testing.assert_allclose(innovation(x, gnss), np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(innovation(x, odo), np.zeros(3), atol=1e-14)

    def test_gnss_sign(self):
        x = NavState(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
        obs = Observation("gnss_vel", 0.0, np.zeros(3), np.full(3, 0.2))
        np.testing.assert_array_equal(innovation(x, obs), [1.0, 0.0, 0.0])

    def test_odo_hand_rotation(self):
        att = lie.so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        x = NavState(att, np.array([1.0, 0.0, 0.0]), np.zeros(3))
        vb = np.array([0.3, 0.1, -0.2])
        obs = Observation("odo", 0.0, vb, np.full(3, 0.1))
        np.testing.assert_allclose(
            innovation(x, obs), np.array([0.0, -1.0, 0.0]) - vb, atol=1e-14
        )


class TestObservationMatrix:
    def test_ekf_gnss_form(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(1))
        h = observation_matrix(ErrorParam.ADDITIVE_EKF, x, "gnss_vel", earth)
        expected = np.zeros((3, 15))
        expected[:, 3:6] = np.eye(3)
        np.testing.assert_array_equal(h, expected)

    def test_unsupported_kind(self):
        earth = small_scale_earth()
        x = random_state(np.random.default_rng(2))
        with pytest.raises(ValueError):
            observation_matrix(ErrorParam.ADDITIVE_EKF, x, "baro", earth)

    @pytest.mark.parametrize("kind", KINDS)
    def test_h_relation_all_pairs(self, kind):
        # H_b = H_a A for every ordered pair; the module's discriminating test
        earth = small_scale_earth()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = random_state(rng)
            for a in PARAMS:
                for b in PARAMS:
                    h_a = observation_matrix(a, x, kind, earth)
                    h_b = observation_matrix(b, x, kind, earth)
                    rel = relation_matrix(b, a, x, earth)
                    scale = max(1.0, np.abs(h_b).max())
                    assert np.abs(h_a @ rel - h_b).max() < 1e-8 * scale

    @pytest.mark.parametrize("kind", KINDS)
    def test_h_relation_earth_scale(self, kind):
        earth = EarthModel()
        rng = np.random.default_rng(4)
        x = NavState(
            lie.so3_exp(rng.normal(size=3)),
            rng.normal(scale=5.0, size=3),
            np.array([EARTH_RADIUS, 200.0, -100.0]),
        )
        for a in PARAMS:
            for b in PARAMS:
                h_a = observation_matrix(a, x, kind, earth)
                h_b = observation_matrix(b, x, kind, earth)
                rel = relation_matrix(b, a, x, earth)
                scale = max(1.0, np.abs(h_b).max())
                assert np.abs(h_a @ rel - h_b).max() < 1e-8 * scale

    @pytest.mark.parametrize("param", PARAMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_difference_jacobian(self, param, kind):
        # H xi must match the innovation change when the true state is moved
        # away from the estimate by the error xi
        earth = small_scale_earth()
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(5):
            x_hat = random_state(rng)
            h = observation_matrix(param, x_hat, kind, earth)
            xi = np.zeros(15)
            xi[:9] = rng.normal(size=9)
            xi *= eps / np.linalg.norm(xi)
            x_true = inject_error(param, x_hat, xi, earth, InjectionMode.FIRST_ORDER)
            if kind == "gnss_vel":
                dz = x_hat.vel - x_true.vel
            else:
                dz = x_hat.att.T @ x_hat.vel - x_true.att.T @ x_true.vel
            np.testing.assert_allclose(h @ xi, dz, atol=50.0 * eps**2)


class TestNoiseCovariance:
    def test_gnss_default(self):
        obs = Observation("gnss_vel", 0.0, np.zeros(3), np.array([0.2, 0.2, 0.2]))
        np.testing.assert_allclose(noise_covariance(obs), 0.04 * np.eye(3), atol=1e-15)

    def test_odo_default(self):
        obs = Observation("odo", 0.0, np.zeros(3), np.array([0.1, 0.1, 0.1]))
        np.testing.assert_allclose(noise_covariance(obs), 0.01 * np.eye(3), atol=1e-15)

    def test_unequal_sigma(self):
        obs = Observation("gnss_vel", 0.0, np.zeros(3), np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(np.diag(noise_covariance(obs)), [0.01, 0.04, 0.09], atol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        # a non-finite sigma too: a NaN one would fail the run's eigensolver
        # with LinAlgError, not end its member with a FilterDivergence
        for kind in KINDS:
            for bad in (0.0, -0.1, np.nan, np.inf):
                with pytest.raises(ValueError, match="sigma must be positive and finite"):
                    Observation(kind, 0.0, np.zeros(3), np.array([0.1, bad, 0.1]))


class TestObservation:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, kind, time):
        # run_filter has no step for such a stamp: it dropped the fix, and a
        # NaN one every fix sorted after it
        with pytest.raises(ValueError, match="observation time must be finite"):
            Observation(kind, time, np.zeros(3), np.full(3, 0.1))

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 3), (1, 3)])
    def test_rejects_sigma_not_one_vector(self, shape):
        # every member of a bank shares a fix's noise
        with pytest.raises(ValueError, match=r"sigma must have shape \(3,\)"):
            Observation("gnss_vel", 0.0, np.zeros(3), np.full(shape, 0.1))

    def test_rejects_unknown_kind_when_built(self):
        # before it reaches a filter, as Strategy rejects an unknown kind
        with pytest.raises(ValueError, match="unsupported observation kind 'baro'"):
            Observation("baro", 0.0, np.zeros(3), np.full(3, 0.1))
