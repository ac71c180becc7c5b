"""Closure of the covariance relationships across live filters.

Runs plain filters in two parameterizations plus a transform filter from
equivalent initializations and checks, at every update epoch, that the
covariances are connected by the expected maps: the updated covariances by
the relation matrix at the predicted state, and the transform filter's
covariance by the backward map at the updated state (equivalently, by the
single post-update transformation of the plain covariance).
"""

import numpy as np
from conftest import QUIET_QC, StationaryQuietScenario, bank_updates, initial_filter_bank

from cteskf.errorstate import ErrorParam, relation_matrix, transformation_matrix
from cteskf.filter import Strategy

EKF = ErrorParam.ADDITIVE_EKF
LEFT = ErrorParam.LEFT_INVARIANT


def rel_norm(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def test_relationship_diagram_closes_on_live_covariances():
    # near-ideal IMU data keeps the noise-driven inter-update drift of the
    # relation matrices below the closure tolerances
    scen = StationaryQuietScenario(30.0, 100.0, seed=41, gnss_rate=1.0, noise_scale=1e-2)
    bank = initial_filter_bank(
        scen.x0,
        scen.p0,
        [
            (EKF, Strategy("plain")),
            (LEFT, Strategy("plain")),
            (EKF, Strategy("transform", {"gnss_vel": LEFT})),
        ],
        QUIET_QC,
        scen.earth,
    )
    earth = scen.earth
    epochs = bank_updates(bank, scen.imu, scen.obs)
    for (ekf_pre, f_ekf), (left_pre, f_left), (_, f_ct) in epochs:
        x_pred = ekf_pre.x
        # predicted covariances are equivalent at the predicted state
        a_pred = relation_matrix(EKF, LEFT, x_pred, earth)
        assert rel_norm(a_pred @ ekf_pre.P @ a_pred.T, left_pre.P) < 1e-8

        # updated covariances relate through the *predicted* state
        assert rel_norm(a_pred @ f_ekf.P @ a_pred.T, f_left.P) < 1e-9

        # the transform filter equals the backward map at the updated
        # state ...
        x_upd = f_ekf.x
        a_back = relation_matrix(LEFT, EKF, x_upd, earth)
        assert rel_norm(a_back @ f_left.P @ a_back.T, f_ct.P) < 1e-9

        # ... and equals the single post-update transformation of the
        # plain covariance (composition of the two relations above)
        t = transformation_matrix(EKF, LEFT, x_upd, x_pred, earth)
        assert rel_norm(t @ f_ekf.P @ t.T, f_ct.P) < 1e-9
    assert len(epochs) >= 25


def test_sweep_cells_coincide_under_first_order_injection():
    # velocity-only sweep: the transform filter's per-cell RMSE equals the
    # native left-invariant filter's
    from cteskf.sim import ScenarioConfig, monte_carlo_sweep

    from cteskf.sim import ImuSpec

    cfg = ScenarioConfig(
        kind="stationary",
        duration=20.0,
        imu_rate=50.0,
        imu=ImuSpec(1e-5, 5e-2, 1e-4, 1e-2),
        use_gnss=True,
        init_att_err_deg=(1.0, 1.0, 0.0),
        seed=3,
        earth_rotation=False,
        gravity_mode="zero",
        anchor="origin",
        injection="first-order",
    )
    sweep = monte_carlo_sweep(cfg, [-30.0, 0.0, 30.0], 2, variants=("ct-ekf", "l-inekf"))
    # per-epoch state coincidence at the 1e-8 level bounds the cell RMSE gap
    # at the same level (expressed here in degrees)
    diff = np.abs(sweep.rmse_deg[:, 0] - sweep.rmse_deg[:, 1]).max()
    assert diff < np.degrees(1e-8)
