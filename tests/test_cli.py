import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cteskf import io
from cteskf.cli import ConfigError, main, parse_config, scenario_from_config, variants_from_config
from cteskf.sim import ScenarioConfig

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
        # one key of each cast, the IMU spec's among them
        for key in ("scenario.init_att_err_deg", "imu.accel_bias_ug", "gnss.enable", "run.seed"):
            with pytest.raises(ConfigError, match=f"config key '{key}': cannot parse 'soon'"):
                scenario_from_config({key: "soon"})

    def test_bad_imu_spec_is_a_config_error(self):
        with pytest.raises(ConfigError, match="IMU spec values must be positive"):
            scenario_from_config({"imu.gyro_bias_deg_h": "-2"})

    def test_empty_config_builds_the_default_scenario(self):
        # the defaults live in ScenarioConfig and CONSUMER_IMU only
        built, default = scenario_from_config({}), ScenarioConfig()
        for f in fields(ScenarioConfig):
            assert getattr(built, f.name) == getattr(default, f.name), f.name

    def test_readme_example_config_parses(self, tmp_path):
        # every key of the README's example is read: the scenario and run
        # keys here, and what is left are the sweep keys cmd_sweep reads
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cfg = parse_config(write_cfg(tmp_path, readme.split("```ini\n", 1)[1].split("```", 1)[0]))
        scenario = scenario_from_config(cfg)
        assert variants_from_config(cfg) == ("ekf", "l-inekf", "r-inekf", "ct-ekf")
        assert scenario.duration == 120.0 and scenario.use_odo and scenario.imu.accel_bias_ug == 3.6
        assert set(cfg) == {"sweep.yaw_min_deg", "sweep.yaw_max_deg", "sweep.yaw_step_deg", "sweep.seeds"}

    def test_directory_is_a_config_error(self, tmp_path, capsys):
        # it used to raise IsADirectoryError with a traceback
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: cannot open the file: Is a directory\n"
        assert not out.exists()

    def test_non_utf8_byte_is_a_config_error(self, tmp_path):
        # it used to raise UnicodeDecodeError with a traceback
        path = tmp_path / "run.cfg"
        path.write_bytes(b"# config\nscenario.kind = circle\nscenario.radius = 5\xff0\n")
        with pytest.raises(ConfigError, match="run.cfg:3: byte 0xff at column 20 is not UTF-8"):
            parse_config(str(path))

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

    def test_zero_radius_is_a_config_error(self, tmp_path, capsys):
        # a zero radius used to raise ZeroDivisionError with a traceback
        cfg = write_cfg(tmp_path, RUN_CFG + "\nscenario.radius = 0\n")
        out = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "nonzero radius" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_log_level_is_an_error(self, tmp_path, capsys, monkeypatch):
        # logging.basicConfig used to raise ValueError with a traceback
        monkeypatch.setenv("CTESKF_LOG", "loud")
        out = tmp_path / "data"
        assert main(["simulate", "--config", write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CTESKF_LOG='loud'") and len(err.splitlines()) == 1
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

    @pytest.mark.parametrize("settle", ["7.0", "nan", "inf"])
    def test_settling_window_without_samples_is_a_config_error(self, tmp_path, capsys, settle):
        # the 6 s run has no sample at or after 7 s: it used to print nan
        # RMSE and exit 0
        cfg = write_cfg(tmp_path, RUN_CFG + f"scenario.settle_s = {settle}\n")
        out = tmp_path / "est"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "settling window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [("run", RUN_CFG), ("sweep", SWEEP_CFG)], ids=["run", "sweep"])
    @pytest.mark.parametrize("variants, message", [
        ("", "got ''"), (",", "got ','"), ("ekf,ekf", "got 'ekf,ekf'"),
    ])
    def test_empty_or_repeated_variants_are_a_config_error(self, tmp_path, capsys, command, text, variants, message):
        # they used to print an empty table, or write an rmse.csv of the yaw
        # column only, and exit 0
        cfg = write_cfg(tmp_path, text + f"\nrun.variants = {variants}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "run.variants must name at least one variant, each once; " + message in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_gives_nonzero_exit(self, tmp_path, monkeypatch):
        import cteskf.cli as cli_mod

        def fake_run(cfg, variant):
            from cteskf.filter import FilterRun

            n = 1
            z = np.zeros((n, 3))
            run = FilterRun(np.zeros(n), np.zeros((n, 3, 3)), z, z, np.zeros((n, 5)), diverged="boom")
            return run, {"variant": variant, "diverged": "boom"}

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

    @pytest.mark.parametrize("key, value", [("yaw_min_deg", "nan"), ("yaw_step_deg", "inf"), ("yaw_max_deg", "inf")])
    def test_nonfinite_grid_is_a_config_error(self, tmp_path, capsys, key, value):
        # np.arange would raise on such a grid: the error is reported, not a
        # traceback
        cfg = write_cfg(tmp_path, SWEEP_CFG + f"\nsweep.{key} = {value}\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "z")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep grid must be finite") and f"{key}={value}" in err
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize(
        "line", ["sweep.yaw_step_deg = 1e-17", "sweep.yaw_step_deg = 1e-12", "sweep.seeds = 1000000000"]
    )
    def test_oversized_sweep_is_a_config_error(self, tmp_path, capsys, monkeypatch, line):
        # the grid's size is worked out before np.arange builds it: 1e-17
        # used to raise from np.arange, and 1e-12 asks it for petabytes
        import cteskf.cli as cli_mod

        monkeypatch.setattr(cli_mod, "monte_carlo_sweep", lambda *args, **kwargs: pytest.fail("swept"))
        cfg = write_cfg(tmp_path, SWEEP_CFG + f"\n{line}\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "z")]) == 2
        assert f"exceeds {cli_mod.MAX_SWEEP_MEMBERS} members" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("yaw_max", ["30", "29"])
    @pytest.mark.parametrize("seeds, code", [(4, 0), (5, 2)])
    def test_sweep_size_bound_is_exact(self, tmp_path, monkeypatch, yaw_max, seeds, code):
        # -30..30 and -30..29 in steps of 30 are both three cells: 3 x 4
        # members fit a bound of 12, 3 x 5 do not
        import cteskf.cli as cli_mod
        from cteskf.sim import SweepResult

        def fake(cfg, grid, n_seeds, variants, jobs):
            assert len(grid) * n_seeds == 12
            return SweepResult(grid, variants, np.zeros((len(grid), len(variants))))

        monkeypatch.setattr(cli_mod, "monte_carlo_sweep", fake)
        monkeypatch.setattr(cli_mod, "MAX_SWEEP_MEMBERS", 12)
        text = SWEEP_CFG + f"\nsweep.yaw_max_deg = {yaw_max}\nsweep.seeds = {seeds}\n"
        assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "z")]) == code


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

    def test_every_check_is_timed_in_one_place(self):
        # the _timed decorator sets elapsed_s on whatever a check returns
        from cteskf import verify

        checks = [getattr(verify, name) for name in dir(verify) if name.startswith("check_")]
        assert len(checks) == 9 and all(hasattr(check, "__wrapped__") for check in checks)
        assert verify.check_group_affine(seed=0, trials=2).elapsed_s > 0.0

    @pytest.mark.parametrize("check", ["check_switch_effectiveness", "check_transform_equals_switch", "check_ct_coincidence"])
    def test_diverged_variant_fails_its_check(self, monkeypatch, check):
        # the checks that compare two variants' runs fail, unmeasured, when a run diverges
        from cteskf import verify

        monkeypatch.setattr(verify, "run_scenario", lambda cfg, variant: (None, {"diverged": "boom"}))
        result = getattr(verify, check)(duration=1.0)
        assert (result.passed, result.measured, result.detail) == (False, np.inf, "diverged")

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


class TestOutputLocation:
    """An output location that cannot be written is one error line and
    exit 2, before any work: it used to raise a traceback, after the whole
    sweep or battery for `sweep` and `verify`."""

    @pytest.mark.parametrize(
        "command, text, work",
        [("simulate", MINIMAL, "synthesize"), ("run", RUN_CFG, "run_scenario"), ("sweep", SWEEP_CFG, "monte_carlo_sweep")],
        ids=["simulate", "run", "sweep"],
    )
    def test_out_that_is_a_file(self, tmp_path, capsys, monkeypatch, command, text, work):
        import cteskf.cli as cli_mod

        monkeypatch.setattr(cli_mod, work, lambda *args, **kwargs: pytest.fail("worked"))
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot create output directory {str(taken)!r}: File exists\n"
        assert taken.read_text() == "kept\n"

    def test_report_in_a_missing_directory(self, tmp_path, capsys, monkeypatch):
        from cteskf import verify

        monkeypatch.setattr(verify, "run_all", lambda *args: pytest.fail("ran the battery"))
        report = tmp_path / "missing" / "r.json"
        assert main(["verify", "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write the report {str(report)!r}: No such file or directory\n"
        assert not report.parent.exists()


class TestHelp:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
