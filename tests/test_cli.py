import json
import os

import numpy as np
import pytest

from cteskf import io
from cteskf.cli import ConfigError, main, parse_config, scenario_from_config

MINIMAL = """
# minimal stationary scenario
scenario.kind = stationary
scenario.duration = 3.0
imu.rate = 20
gnss.enable = true
gnss.rate = 1
odo.enable = true
odo.rate = 10
run.seed = 4
"""

RUN_CFG = """
scenario.kind = circle
scenario.duration = 6.0
scenario.speed = 5
scenario.radius = 50
scenario.init_att_err_deg = 5, 5, 10
imu.rate = 50
gnss.enable = true
odo.enable = true
run.variants = ekf, l-inekf, r-inekf, ct-ekf
run.seed = 2
"""

SWEEP_CFG = """
scenario.kind = circle
scenario.duration = 5.0
scenario.speed = 5
scenario.radius = 50
scenario.init_att_err_deg = 10, 10, 0
imu.rate = 20
gnss.enable = true
run.variants = ekf, ct-ekf
sweep.yaw_min_deg = -30
sweep.yaw_max_deg = 30
sweep.yaw_step_deg = 30
sweep.seeds = 1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_parse_and_build(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        scenario = scenario_from_config(cfg)
        assert scenario.kind == "stationary"
        assert scenario.imu_rate == 20.0
        assert scenario.seed == 4

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.cfg")

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path, "scenario.kind circle\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert ":1:" in str(err.value)

    def test_bad_value_message_names_key(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "scenario.duration = soon\n"))
        with pytest.raises(ConfigError) as err:
            scenario_from_config(cfg)
        assert "scenario.duration" in str(err.value)

    def test_zero_duration_rejected(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "scenario.duration = 0\n"))
        with pytest.raises(ConfigError):
            scenario_from_config(cfg)


class TestSimulate:
    def test_writes_four_files(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for name in ("imu.csv", "gnss_vel.csv", "odo.csv", "truth.csv"):
            assert (out / name).exists(), name
        t, gyro, accel = io.read_imu(out / "imu.csv")
        assert len(t) == 60

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        for name in ("imu.csv", "gnss_vel.csv", "odo.csv", "truth.csv"):
            assert (out1 / name).read_text() == (out2 / name).read_text()

    @pytest.mark.parametrize("line", ["bogus.key = 1", "scenario.gravity = bogus", "scenario.injection = bogus"])
    def test_bad_config_writes_nothing(self, tmp_path, line):
        cfg = write_cfg(tmp_path, MINIMAL + f"\n{line}\n")
        out = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_sensor_rate_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\ngnss.rate = 0\n")
        out = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_runs_all_variants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RUN_CFG)
        out = tmp_path / "est"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for v in ("ekf", "l-inekf", "r-inekf", "ct-ekf"):
            assert (out / f"estimates_{v}.csv").exists()
        printed = capsys.readouterr().out
        assert "att RMSE" in printed and "ct-ekf" in printed

    def test_unknown_variant_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, RUN_CFG.replace("ct-ekf", "ukf"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_divergence_gives_nonzero_exit(self, tmp_path, monkeypatch):
        import cteskf.cli as cli_mod

        def fake_run(cfg, variant):
            from cteskf.sim import EstimateSeries

            n = 1
            z = np.zeros((n, 3))
            series = EstimateSeries(np.zeros(n), np.zeros((n, 3, 3)), z, z, z, z, z, np.zeros((n, 5)), z, z)
            return series, {"variant": variant, "diverged": "boom"}

        monkeypatch.setattr(cli_mod, "run_scenario", fake_run)
        cfg = write_cfg(tmp_path, RUN_CFG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "y")]) == 1


class TestSweep:
    def test_emits_rmse_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in (out / "rmse.csv").read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "yaw_deg,ekf,ct_ekf"
        assert len(lines) == 4  # header + 3 cells

    def test_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2)])
        assert (out1 / "rmse.csv").read_text() == (out2 / "rmse.csv").read_text()

    @pytest.mark.parametrize("line", ["sweep.yaw_step_deg = -5", "sweep.seeds = 0"])
    def test_bad_grid_rejected(self, tmp_path, line):
        cfg = write_cfg(tmp_path, SWEEP_CFG + f"\n{line}\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "z")]) == 2
        assert not (tmp_path / "z").exists()


class TestVerifyCommand:
    def test_fast_battery_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--level", "fast", "--out", str(report)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "[PASS] transform-closure" in printed
        payload = json.loads(report.read_text())
        assert all(entry["passed"] for entry in payload)
        assert all(isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] >= 0.0 for entry in payload)
        names = {entry["name"] for entry in payload}
        assert {"group-affine-property", "switch-effectiveness", "first-update-identity"} <= names

    def test_sign_flip_fails_closure(self, monkeypatch):
        from cteskf import verify
        from cteskf.errorstate import ErrorParam

        ok = verify.check_transform_closure(seed=0, trials=5)
        closed_form = verify.transformation_matrix

        def flipped(src, dst, *args):
            t = closed_form(src, dst, *args)
            if src is ErrorParam.ADDITIVE_EKF and dst is ErrorParam.RIGHT_INVARIANT:
                t = t.copy()
                t[6:9, 0:3] = -t[6:9, 0:3]
            return t

        monkeypatch.setattr(verify, "transformation_matrix", flipped)
        bad = verify.check_transform_closure(seed=0, trials=5)
        assert ok.passed and not bad.passed


class TestHelp:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
