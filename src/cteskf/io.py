"""CSV schemas for sensor streams, truth and filter outputs.

All files are comma-separated with one header row; lines starting with '#'
are comments.  Floats are written with repr-level precision so a write/read
round trip is bit-exact.  Readers validate the header, the column count,
that every field is a finite number, timestamp monotonicity, positive
observation sigmas and truth quaternions with a usable norm, and report
offending line numbers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .lie import quat_to_rot, rot_to_quat
from .sensors import GnssVelObs, OdoObs

IMU_HEADER = ["t", "gx", "gy", "gz", "ax", "ay", "az"]
GNSS_HEADER = ["t", "vx", "vy", "vz", "sx", "sy", "sz"]
ODO_HEADER = ["t", "vf", "vl", "vd", "sx", "sy", "sz"]
TRUTH_HEADER = ["t", "qw", "qx", "qy", "qz", "vx", "vy", "vz", "rx", "ry", "rz"]
ESTIMATE_HEADER = TRUTH_HEADER + ["ptrace_att", "ptrace_vel", "ptrace_pos", "ptrace_bg", "ptrace_ba"]


class CsvSchemaError(ValueError):
    """Raised with the file path and 1-based line number of the defect."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _write(path, header, rows, comment=None):
    """Write rows of Python floats (an array's ``tolist()``), each with its
    shortest round-tripping repr."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _rows(columns, width: int) -> list:
    """The rows of columns stacked side by side, as lists of Python floats."""
    return np.column_stack(columns).reshape(-1, width).tolist()


def _read(path, header):
    rows = []
    seen_header = False
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not seen_header:
                cols = [c.strip() for c in line.split(",")]
                if cols != header:
                    raise CsvSchemaError(path, line_no, f"expected header {','.join(header)}, got {line}")
                seen_header = True
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise CsvSchemaError(path, line_no, f"expected {len(header)} columns, got {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise CsvSchemaError(path, line_no, "non-numeric field")
            if not all(math.isfinite(v) for v in values):
                raise CsvSchemaError(path, line_no, "non-finite field")
            rows.append((values, line_no))
    if not seen_header:
        raise CsvSchemaError(path, 1, "missing header row")
    return rows


def _check_monotone(path, rows):
    last = None
    for values, line_no in rows:
        if last is not None and values[0] <= last:
            raise CsvSchemaError(path, line_no, f"timestamp {values[0]} not increasing")
        last = values[0]


def write_imu(path, t, gyro, accel):
    _write(path, IMU_HEADER, _rows([t, gyro, accel], len(IMU_HEADER)), comment="body rates rad/s, specific force m/s^2")


def read_imu(path):
    rows = _read(path, IMU_HEADER)
    _check_monotone(path, rows)
    data = np.array([v for v, _ in rows]) if rows else np.empty((0, 7))
    return data[:, 0], data[:, 1:4], data[:, 4:7]


def _observation_rows(observations, measured: str) -> list:
    return _rows(
        [[o.time for o in observations], [getattr(o, measured) for o in observations], [o.sigma for o in observations]],
        7,
    )


def _check_sigmas(path, rows):
    for values, line_no in rows:
        if min(values[4:7]) <= 0.0:
            raise CsvSchemaError(path, line_no, "observation sigma must be positive")


def write_gnss(path, observations):
    _write(path, GNSS_HEADER, _observation_rows(observations, "vel"), comment="ECEF velocity m/s with per-axis sigma")


def read_gnss(path):
    rows = _read(path, GNSS_HEADER)
    _check_monotone(path, rows)
    _check_sigmas(path, rows)
    return [GnssVelObs(v[0], np.array(v[1:4]), np.array(v[4:7])) for v, _ in rows]


def write_odo(path, observations):
    _write(path, ODO_HEADER, _observation_rows(observations, "vel_body"),
           comment="body-frame velocity m/s with per-axis sigma")


def read_odo(path):
    rows = _read(path, ODO_HEADER)
    _check_monotone(path, rows)
    _check_sigmas(path, rows)
    return [OdoObs(v[0], np.array(v[1:4]), np.array(v[4:7])) for v, _ in rows]


def write_truth(path, t, att, vel, pos):
    _write(path, TRUTH_HEADER, _rows([t, rot_to_quat(att), vel, pos], len(TRUTH_HEADER)),
           comment="body-to-ECEF quaternion, ECEF velocity and position")


def read_truth(path):
    rows = _read(path, TRUTH_HEADER)
    _check_monotone(path, rows)
    for values, line_no in rows:
        # quat_to_rot divides by the norm: its square must be a positive,
        # finite float
        if not 0.0 < sum(q * q for q in values[1:5]) < math.inf:
            raise CsvSchemaError(path, line_no, "quaternion qw..qz has no usable norm")
    data = np.array([v for v, _ in rows]) if rows else np.empty((0, len(TRUTH_HEADER)))
    return data[:, 0], quat_to_rot(data[:, 1:5]), data[:, 5:8], data[:, 8:11]


def write_estimates(path, run):
    rows = _rows([run.t, rot_to_quat(run.att), run.vel, run.pos, run.p_trace], len(ESTIMATE_HEADER))
    _write(path, ESTIMATE_HEADER, rows, comment="filter estimates with covariance block traces")


def write_rmse(path, sweep):
    header = ["yaw_deg"] + [v.replace("-", "_") for v in sweep.variants]
    _write(path, header, _rows([sweep.yaw_deg, sweep.rmse_deg], len(header)),
           comment="attitude RMSE (deg) per initial yaw error cell")


@dataclass
class Dataset:
    """Sensor streams plus optional truth, as replayed from disk."""

    imu_t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray
    gnss: list
    odo: list
    truth: tuple | None


def replay_dataset(directory) -> Dataset:
    """Load a dataset directory (imu.csv required; gnss_vel.csv, odo.csv and
    truth.csv optional)."""
    imu_path = os.path.join(directory, "imu.csv")
    if not os.path.exists(imu_path):
        raise FileNotFoundError(f"dataset is missing {imu_path}")
    t, gyro, accel = read_imu(imu_path)
    gnss_path = os.path.join(directory, "gnss_vel.csv")
    odo_path = os.path.join(directory, "odo.csv")
    truth_path = os.path.join(directory, "truth.csv")
    gnss = read_gnss(gnss_path) if os.path.exists(gnss_path) else []
    odo = read_odo(odo_path) if os.path.exists(odo_path) else []
    truth = read_truth(truth_path) if os.path.exists(truth_path) else None
    return Dataset(t, gyro, accel, gnss, odo, truth)
