"""Output checks of the benchmark workloads.

Every check recomputes a quantity independently or tests a property the
method must have; none compares against a stored copy of earlier output.
Each returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

from cteskf import errorstate
from cteskf.ins import EARTH_RADIUS, ImuSample, NavState

DEG = np.pi / 180.0
ESTIMATE_COLUMNS = [
    "t", "qw", "qx", "qy", "qz", "vx", "vy", "vz", "rx", "ry", "rz",
    "ptrace_att", "ptrace_vel", "ptrace_pos", "ptrace_bg", "ptrace_ba",
]


# --------------------------------------------------------------------------
# nav-200hz
# --------------------------------------------------------------------------


def circle_truth(cfg, t: np.ndarray):
    """Closed-form truth of a constant-rate circle that starts heading east
    from the tangent-plane origin at (lat, lon) on the sphere: attitude
    (N,3,3) body to ECEF, velocity and position (N,3)."""
    lat, lon = cfg.lat_deg * DEG, cfg.lon_deg * DEG
    up = np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    east = np.array([-np.sin(lon), np.cos(lon), 0.0])
    north = np.cross(up, east)
    heading = (cfg.speed / cfg.radius) * t
    c, s = np.cos(heading), np.sin(heading)
    pos = EARTH_RADIUS * up + cfg.radius * (s[:, None] * east + (1.0 - c)[:, None] * north)
    vel = cfg.speed * (c[:, None] * east + s[:, None] * north)
    local = Rotation.from_euler("z", heading[:, None]).as_matrix()
    att = np.column_stack([east, north, up]) @ local
    return att, vel, pos


def rmse_metrics(cfg, series) -> dict:
    """RMSE after the settling window, from the estimate series and the
    closed-form truth, with attitude errors from scipy rotations."""
    att, vel, pos = circle_truth(cfg, series.t)
    settle = cfg.settle_s if cfg.settle_s is not None else cfg.duration / 2.0
    window = series.t >= settle
    att_err = (Rotation.from_matrix(series.att[window]) * Rotation.from_matrix(att[window]).inv()).as_rotvec()
    vel_err = series.vel[window] - vel[window]
    pos_err = series.pos[window] - pos[window]
    return {
        "att_rmse_deg": np.sqrt(np.mean(att_err**2, axis=0)) / DEG,
        "att_rmse_total_deg": float(np.sqrt(np.mean(np.sum(att_err**2, axis=1)))) / DEG,
        "vel_rmse": np.sqrt(np.mean(vel_err**2, axis=0)),
        "pos_rmse": np.sqrt(np.mean(pos_err**2, axis=0)),
    }


def read_estimates(path: str) -> np.ndarray:
    """The estimates CSV as an (N, 16) array: '#' comments, one header row,
    then comma-separated floats."""
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    if header != ESTIMATE_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header}")
    return np.array(rows).reshape(-1, len(ESTIMATE_COLUMNS))


def check_nav_run(cfg, variant: str, series, metrics: dict, csv_path: str) -> list[str]:
    """One variant of one nav-200hz scenario: no divergence, RMSE that the
    benchmark recomputes, finite positive covariance traces, and an
    estimates file that reproduces the series."""
    tag = f"{variant} seed {cfg.seed}"
    if metrics["diverged"]:
        return [f"{tag}: diverged: {metrics['diverged']}"]
    fails = []
    n = int(round(cfg.duration * cfg.imu_rate)) + 1
    if len(series.t) != n:
        fails.append(f"{tag}: {len(series.t)} estimates, expected {n}")
        return fails
    ours = rmse_metrics(cfg, series)
    for key, value in ours.items():
        rel = np.max(np.abs(np.asarray(metrics[key]) - value) / np.maximum(np.abs(value), 1e-300))
        if not rel <= 1e-9:
            fails.append(f"{tag}: {key} {metrics[key]} differs from recomputed {value} (rel {rel:.2e})")
    if not (np.isfinite(series.p_trace).all() and (series.p_trace > 0.0).all()):
        fails.append(f"{tag}: a covariance block trace is not finite and positive")
    table = read_estimates(csv_path)
    if table.shape[0] != n:
        fails.append(f"{tag}: {csv_path} has {table.shape[0]} rows, expected {n}")
        return fails
    exact = {
        "t": (table[:, 0], series.t),
        "velocity": (table[:, 5:8], series.vel),
        "position": (table[:, 8:11], series.pos),
        "covariance traces": (table[:, 11:16], series.p_trace),
    }
    for name, (read, held) in exact.items():
        if not np.array_equal(read, held):
            fails.append(f"{tag}: {name} in {csv_path} is not bit-identical to the series")
    att = Rotation.from_quat(table[:, [2, 3, 4, 1]]).as_matrix()
    worst = float(np.abs(att - series.att).max())
    if not worst <= 1e-12:
        fails.append(f"{tag}: attitude in {csv_path} differs from the series by {worst:.2e}")
    return fails


def check_nav_headline(seed: int, rmse_by_variant: dict) -> list[str]:
    """The paper's headline: ct-ekf's attitude RMSE lies below the plain
    additive and both invariant filters."""
    ct = rmse_by_variant["ct-ekf"]
    return [
        f"seed {seed}: ct-ekf attitude RMSE {ct:.3f} deg is not below {other} {rmse_by_variant[other]:.3f} deg"
        for other in ("ekf", "l-inekf", "r-inekf")
        if not ct < rmse_by_variant[other]
    ]


# --------------------------------------------------------------------------
# sweep-30hz
# --------------------------------------------------------------------------


def check_sweep_ordering(sweep, yaw_grid) -> list[str]:
    """Criterion 09's ordering on the |yaw| >= 90 deg cells: ct-ekf no worse
    than ekf in every cell, no worse than l-inekf in at least 80% of them,
    and no cell infinite."""
    fails = []
    if not np.array_equal(sweep.yaw_deg, np.asarray(yaw_grid, dtype=float)):
        fails.append(f"sweep cells {sweep.yaw_deg} are not the requested {list(yaw_grid)}")
    if sweep.rmse_deg.shape != (len(yaw_grid), len(sweep.variants)):
        return fails + [f"sweep result has shape {sweep.rmse_deg.shape}"]
    if not np.isfinite(sweep.rmse_deg).all():
        fails.append("a sweep cell is infinite (a run diverged)")
    col = {v: sweep.rmse_deg[:, j] for j, v in enumerate(sweep.variants)}
    big = np.abs(sweep.yaw_deg) >= 90.0
    ct, ekf, linekf = col["ct-ekf"][big], col["ekf"][big], col["l-inekf"][big]
    margin = float(np.max(ct - ekf))
    if not margin <= 0.0:
        fails.append(f"ct-ekf exceeds ekf in a cell (max margin {margin:.3f} deg)")
    frac = float(np.mean(ct <= linekf))
    if not frac >= 0.8:
        fails.append(f"ct-ekf beats l-inekf in only {frac:.0%} of cells")
    return fails


# --------------------------------------------------------------------------
# propagation-2000hz
# --------------------------------------------------------------------------


def relation_mismatch(finals: dict, x_end: NavState, earth) -> float:
    """Worst relative Frobenius mismatch ||P_a - A P_b A^T|| / ||P_a|| over
    every ordered pair of parameterizations at the final state."""
    worst = 0.0
    for a in finals:
        for b in finals:
            if a is b:
                continue
            rel = errorstate.relation_matrix(b, a, x_end, earth)
            mism = np.linalg.norm(finals[a] - rel @ finals[b] @ rel.T) / np.linalg.norm(finals[a])
            worst = max(worst, float(mism))
    return worst


def check_covariance(name: str, p: np.ndarray) -> list[str]:
    """Symmetric and positive semi-definite within rounding."""
    fails = []
    if not np.isfinite(p).all():
        return [f"{name}: covariance is not finite"]
    if not np.linalg.norm(p - p.T) <= 1e-12 * np.linalg.norm(p):
        fails.append(f"{name}: covariance is not symmetric")
    eigmin = float(np.linalg.eigvalsh(p)[0])
    if not eigmin >= -1e-10 * np.trace(p):
        fails.append(f"{name}: covariance has negative eigenvalue {eigmin:.3e}")
    return fails


def reference_covariance(param, p0, atts, vels, poss, gyro, accel, dt, qc, earth, steps) -> np.ndarray:
    """P <- (I + F dt) P (I + F dt)^T + G Qc G^T dt, one step at a time, with
    F and G from errorstate.system_matrix at each state of the history."""
    p = np.array(p0, dtype=float)
    eye = np.eye(15)
    for k in range(steps):
        x = NavState(atts[k], vels[k], poss[k])
        sm = errorstate.system_matrix(param, x, ImuSample(0.0, gyro[k], accel[k]), earth, qc)
        phi = eye + sm.F * dt
        p = phi @ p @ phi.T + sm.G @ sm.Qc @ sm.G.T * dt
    return p


def check_against_reference(name: str, p: np.ndarray, ref: np.ndarray) -> list[str]:
    """Agreement at rtol 1e-10, with an absolute floor of 1e-12 of the
    largest entry for entries that are zero up to rounding."""
    if np.allclose(p, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max()):
        return []
    rel = float(np.abs(p - ref).max() / np.abs(ref).max())
    return [f"{name}: covariance differs from the stepwise reference (max rel {rel:.2e})"]
