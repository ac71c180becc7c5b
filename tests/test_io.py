import numpy as np
import pytest

from cteskf import io
from cteskf.sensors import GnssVelObs
from cteskf.sim import ScenarioConfig, generate_truth, run_scenario, synthesize_gnss, synthesize_imu, synthesize_odo


@pytest.fixture
def dataset_dir(tmp_path):
    cfg = ScenarioConfig(kind="circle", duration=5.0, speed=5.0, radius=50.0, imu_rate=50.0, seed=9)
    earth = cfg.earth()
    truth = generate_truth(cfg, earth)
    stream = synthesize_imu(truth, cfg.imu, cfg, earth, seed=9)
    gnss = synthesize_gnss(truth, 0.2, 1.0, cfg, seed=10)
    odo = synthesize_odo(truth, 0.1, 10.0, cfg, seed=11)
    io.write_imu(tmp_path / "imu.csv", stream.t, stream.gyro, stream.accel)
    io.write_gnss(tmp_path / "gnss_vel.csv", gnss)
    io.write_odo(tmp_path / "odo.csv", odo)
    io.write_truth(tmp_path / "truth.csv", truth.t, truth.att, truth.vel, truth.pos)
    return tmp_path, cfg, truth, stream, gnss, odo


class TestRoundTrip:
    def test_imu_bit_exact(self, dataset_dir):
        path, _, _, stream, _, _ = dataset_dir
        t, gyro, accel = io.read_imu(path / "imu.csv")
        assert np.array_equal(t, stream.t)
        assert np.array_equal(gyro, stream.gyro)
        assert np.array_equal(accel, stream.accel)

    def test_observations_bit_exact(self, dataset_dir):
        path, _, _, _, gnss, odo = dataset_dir
        gnss2 = io.read_gnss(path / "gnss_vel.csv")
        odo2 = io.read_odo(path / "odo.csv")
        assert len(gnss2) == len(gnss) and len(odo2) == len(odo)
        for a, b in zip(gnss, gnss2):
            assert a.time == b.time and np.array_equal(a.vel, b.vel) and np.array_equal(a.sigma, b.sigma)
        for a, b in zip(odo, odo2):
            assert np.array_equal(a.vel_body, b.vel_body)

    def test_truth_attitude_round_trip(self, dataset_dir):
        path, _, truth, _, _, _ = dataset_dir
        t, att, vel, pos = io.read_truth(path / "truth.csv")
        assert np.array_equal(t, truth.t)
        assert np.array_equal(vel, truth.vel)
        # quaternion encoding is lossy only at the double-rounding level
        worst = max(np.abs(att[k] - truth.att[k]).max() for k in range(len(t)))
        assert worst < 1e-12

    def test_replay_dataset(self, dataset_dir):
        path, _, truth, stream, gnss, odo = dataset_dir
        ds = io.replay_dataset(path)
        assert np.array_equal(ds.gyro, stream.gyro)
        assert len(ds.gnss) == len(gnss)
        assert len(ds.odo) == len(odo)
        assert ds.truth is not None

    def test_replay_without_observations(self, tmp_path, dataset_dir):
        src, _, _, stream, _, _ = dataset_dir
        bare = tmp_path / "bare"
        bare.mkdir()
        io.write_imu(bare / "imu.csv", stream.t, stream.gyro, stream.accel)
        ds = io.replay_dataset(bare)
        assert ds.gnss == [] and ds.odo == [] and ds.truth is None

    def test_missing_imu_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.replay_dataset(tmp_path)


class TestSchemaValidation:
    def test_wrong_header(self, tmp_path):
        p = tmp_path / "imu.csv"
        p.write_text("t,a,b\n0,1,2\n")
        with pytest.raises(io.CsvSchemaError) as err:
            io.read_imu(p)
        assert err.value.line_no == 1

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "imu.csv"
        p.write_text("t,gx,gy,gz,ax,ay,az\n0.0,1,2,3,4,5\n")
        with pytest.raises(io.CsvSchemaError) as err:
            io.read_imu(p)
        assert err.value.line_no == 2

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "gnss_vel.csv"
        p.write_text("t,vx,vy,vz,sx,sy,sz\n0.0,1,2,oops,0.1,0.1,0.1\n")
        with pytest.raises(io.CsvSchemaError) as err:
            io.read_gnss(p)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "reader,header",
        [
            (io.read_imu, io.IMU_HEADER),
            (io.read_gnss, io.GNSS_HEADER),
            (io.read_odo, io.ODO_HEADER),
            (io.read_truth, io.TRUTH_HEADER),
        ],
    )
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_field(self, tmp_path, reader, header, bad):
        good = ["0.0", "1.0", "0.0", "0.0"] + ["0.1"] * (len(header) - 4)
        row = list(good)
        row[2] = bad
        p = tmp_path / "data.csv"
        p.write_text(",".join(header) + "\n" + ",".join(good) + "\n" + ",".join(["0.5"] + row[1:]) + "\n")
        with pytest.raises(io.CsvSchemaError) as err:
            reader(p)
        assert err.value.line_no == 3
        assert "non-finite" in str(err.value)

    def test_out_of_order_timestamps(self, tmp_path):
        p = tmp_path / "odo.csv"
        p.write_text("t,vf,vl,vd,sx,sy,sz\n1.0,0,0,0,0.1,0.1,0.1\n0.5,0,0,0,0.1,0.1,0.1\n")
        with pytest.raises(io.CsvSchemaError) as err:
            io.read_odo(p)
        assert err.value.line_no == 3

    def test_zero_quaternion_rejected(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text(",".join(io.TRUTH_HEADER) + "\n0.0,1,0,0,0,0,0,0,1,2,3\n0.5,0,0,0,0,0,0,0,1,2,3\n")
        with pytest.raises(io.CsvSchemaError, match="quaternion") as err:
            io.read_truth(p)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("reader,header", [(io.read_gnss, io.GNSS_HEADER), (io.read_odo, io.ODO_HEADER)])
    @pytest.mark.parametrize("sigma", ["0.0", "-0.1"])
    def test_nonpositive_sigma_rejected(self, tmp_path, reader, header, sigma):
        p = tmp_path / "obs.csv"
        p.write_text(",".join(header) + f"\n0.0,1,2,3,0.1,0.1,0.1\n0.5,1,2,3,0.1,{sigma},0.1\n")
        with pytest.raises(io.CsvSchemaError, match="sigma must be positive") as err:
            reader(p)
        assert err.value.line_no == 3

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "imu.csv"
        p.write_text("# comment\n\nt,gx,gy,gz,ax,ay,az\n0.5,1,2,3,4,5,6\n")
        t, gyro, accel = io.read_imu(p)
        assert t[0] == 0.5 and gyro[0, 2] == 3.0


class TestWriters:
    def test_exact_bytes(self, tmp_path):
        # every value is written as the repr of a Python float: shortest
        # round trip, the sign of zero kept, no numpy scalar repr
        out = tmp_path / "imu.csv"
        values = np.array([-0.0, 5e-324, 0.1, 1e300])
        io.write_imu(out, values[2:3], values[None, :3], values[None, 1:])
        assert out.read_bytes() == (
            b"# body rates rad/s, specific force m/s^2\n"
            b"t,gx,gy,gz,ax,ay,az\n"
            b"0.1,-0.0,5e-324,0.1,5e-324,0.1,1e+300\n"
        )
        gnss = tmp_path / "gnss_vel.csv"
        io.write_gnss(gnss, [GnssVelObs(np.float64(0.1), values[:3], values[1:])])
        assert gnss.read_bytes().splitlines()[-1] == b"0.1,-0.0,5e-324,0.1,5e-324,0.1,1e+300"


class TestEstimatesAndRmse:
    def test_estimates_schema(self, tmp_path):
        cfg = ScenarioConfig(kind="stationary", duration=3.0, imu_rate=20.0, seed=1,
                             init_att_err_deg=(1.0, 1.0, 2.0))
        series, _ = run_scenario(cfg, "ekf")
        out = tmp_path / "estimates.csv"
        io.write_estimates(out, series)
        first = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert first.split(",") == io.ESTIMATE_HEADER

    def test_rmse_schema(self, tmp_path):
        from cteskf.sim import SweepResult

        sweep = SweepResult(np.array([-30.0, 0.0, 30.0]), ("ekf", "ct-ekf"), np.arange(6.0).reshape(3, 2))
        out = tmp_path / "rmse.csv"
        io.write_rmse(out, sweep)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "yaw_deg,ekf,ct_ekf"
        assert len(lines) == 4
