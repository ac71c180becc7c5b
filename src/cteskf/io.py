"""CSV schemas for sensor streams, truth and filter outputs.

All files are comma-separated with one header row; lines starting with '#'
are comments.  Floats are written with repr-level precision so a write/read
round trip is bit-exact.  Readers validate the header, the column count,
that every field is a finite number and timestamp monotonicity, and report
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path, header, rows, comment=None):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
    _write(path, IMU_HEADER, (list(row) for row in np.column_stack([t, gyro, accel])),
           comment="body rates rad/s, specific force m/s^2")


def read_imu(path):
    rows = _read(path, IMU_HEADER)
    _check_monotone(path, rows)
    data = np.array([v for v, _ in rows]) if rows else np.empty((0, 7))
    return data[:, 0], data[:, 1:4], data[:, 4:7]


def write_gnss(path, observations):
    _write(path, GNSS_HEADER,
           ([o.time, *o.vel, *o.sigma] for o in observations),
           comment="ECEF velocity m/s with per-axis sigma")


def read_gnss(path):
    rows = _read(path, GNSS_HEADER)
    _check_monotone(path, rows)
    return [GnssVelObs(v[0], np.array(v[1:4]), np.array(v[4:7])) for v, _ in rows]


def write_odo(path, observations):
    _write(path, ODO_HEADER,
           ([o.time, *o.vel_body, *o.sigma] for o in observations),
           comment="body-frame velocity m/s with per-axis sigma")


def read_odo(path):
    rows = _read(path, ODO_HEADER)
    _check_monotone(path, rows)
    return [OdoObs(v[0], np.array(v[1:4]), np.array(v[4:7])) for v, _ in rows]


def write_truth(path, t, att, vel, pos):
    rows = []
    for k in range(len(t)):
        q = rot_to_quat(att[k])
        rows.append([t[k], *q, *vel[k], *pos[k]])
    _write(path, TRUTH_HEADER, rows, comment="body-to-ECEF quaternion, ECEF velocity and position")


def read_truth(path):
    rows = _read(path, TRUTH_HEADER)
    _check_monotone(path, rows)
    n = len(rows)
    t = np.empty(n)
    att = np.empty((n, 3, 3))
    vel = np.empty((n, 3))
    pos = np.empty((n, 3))
    for k, (v, _) in enumerate(rows):
        t[k] = v[0]
        att[k] = quat_to_rot(np.array(v[1:5]))
        vel[k] = v[5:8]
        pos[k] = v[8:11]
    return t, att, vel, pos


def write_estimates(path, series):
    rows = []
    for k in range(len(series.t)):
        q = rot_to_quat(series.att[k])
        rows.append([series.t[k], *q, *series.vel[k], *series.pos[k], *series.p_trace[k]])
    _write(path, ESTIMATE_HEADER, rows, comment="filter estimates with covariance block traces")


def write_rmse(path, sweep):
    header = ["yaw_deg"] + [v.replace("-", "_") for v in sweep.variants]
    rows = (
        [sweep.yaw_deg[i], *sweep.rmse_deg[i]] for i in range(len(sweep.yaw_deg))
    )
    _write(path, header, rows, comment="attitude RMSE (deg) per initial yaw error cell")


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
