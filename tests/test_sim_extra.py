import numpy as np
from conftest import assert_spd

from cteskf.sim import ScenarioConfig, run_scenario


class TestStatisticalSanity:
    def test_rmse_monotone_in_observation_noise(self):
        # three-point check: worse velocity observations give worse attitude
        rmse = []
        for sigma in (0.02, 0.2, 2.0):
            cfg = ScenarioConfig(
                kind="circle", duration=40.0, speed=5.0, radius=100.0, imu_rate=50.0,
                use_gnss=True, gnss_sigma=sigma, init_att_err_deg=(10.0, 10.0, 20.0),
                seed=5, settle_s=20.0,
            )
            _, metrics = run_scenario(cfg, "ct-ekf")
            assert metrics["diverged"] is None
            rmse.append(metrics["att_rmse_total_deg"])
        assert rmse[0] < rmse[1] < rmse[2]

    def test_covariance_stays_spd_through_update_cycles(self):
        from cteskf.errorstate import ErrorParam, InjectionMode
        from cteskf.filter import FilterState, mixed_sensor_strategy, run_filter
        from cteskf.sim import synthesize

        cfg = ScenarioConfig(
            kind="circle", duration=20.0, speed=5.0, radius=100.0, imu_rate=50.0,
            use_gnss=True, use_odo=True, init_att_err_deg=(30.0, 30.0, 60.0), seed=6,
        )
        sc = synthesize(cfg)
        fs = FilterState(sc.x0, sc.p0, ErrorParam.ADDITIVE_EKF, mixed_sensor_strategy(),
                         InjectionMode.RETRACTION, cfg.imu.qc(), sc.earth)
        checked = 0

        def check(before, after):
            nonlocal checked
            assert_spd(after.P)
            checked += 1

        run = run_filter(fs, sc.imu, sc.gnss + sc.odo, check)
        assert run.diverged is None
        assert checked > 100
