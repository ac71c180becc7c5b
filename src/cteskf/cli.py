"""Command-line front end: scenario simulation, filter runs, Monte Carlo
sweeps and the property-check battery.

Configuration files are flat ``key = value`` text with dotted keys and '#'
comments; see the README for the full key list.  Every command is
deterministic given the config and seed, and a malformed config is rejected
before any output file is created.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import io, verify
from .sim import CONSUMER_IMU, VARIANTS, ImuSpec, ScenarioConfig, monte_carlo_sweep, run_scenario, synthesize

log = logging.getLogger("cteskf")


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> dict:
    """Flat dotted-key config parser; later assignments win."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{line_no}: empty key")
            values[key] = value
    return values


def _get(cfg: dict, key: str, default, cast):
    if key not in cfg:
        return default
    raw = cfg.pop(key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})")


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _triple(raw: str):
    parts = [float(p) for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated numbers")
    return tuple(parts)


# config key -> (field, cast): a ScenarioConfig field, or an ImuSpec field of
# its consumer-grade IMU; a key left out keeps the field's default
CONFIG_KEYS = {
    "scenario.kind": ("kind", str),
    "scenario.duration": ("duration", float),
    "scenario.speed": ("speed", float),
    "scenario.radius": ("radius", float),
    "scenario.lat_deg": ("lat_deg", float),
    "scenario.lon_deg": ("lon_deg", float),
    "scenario.init_att_err_deg": ("init_att_err_deg", _triple),
    "scenario.init_vel_sigma": ("init_vel_sigma", float),
    "scenario.init_pos_sigma": ("init_pos_sigma", float),
    "scenario.earth_rotation": ("earth_rotation", _bool),
    "scenario.gravity": ("gravity_mode", str),
    "scenario.anchor": ("anchor", str),
    "scenario.injection": ("injection", str),
    "scenario.settle_s": ("settle_s", float),
    "imu.rate": ("imu_rate", float),
    "gnss.enable": ("use_gnss", _bool),
    "gnss.rate": ("gnss_rate", float),
    "gnss.sigma": ("gnss_sigma", float),
    "odo.enable": ("use_odo", _bool),
    "odo.rate": ("odo_rate", float),
    "odo.sigma": ("odo_sigma", float),
    "imu.arw_deg_sqrt_h": ("arw_deg_sqrt_h", float),
    "imu.vrw_ug_sqrt_hz": ("vrw_ug_sqrt_hz", float),
    "imu.gyro_bias_deg_h": ("gyro_bias_deg_h", float),
    "imu.accel_bias_ug": ("accel_bias_ug", float),
    "run.seed": ("seed", int),
}


def scenario_from_config(cfg: dict, seed_override=None, injection_override=None) -> ScenarioConfig:
    """The scenario of a parsed config, consuming its scenario and IMU keys."""
    values = {name: _get(cfg, key, None, cast) for key, (name, cast) in CONFIG_KEYS.items() if key in cfg}
    spec = {f.name: values.pop(f.name) for f in fields(ImuSpec) if f.name in values}
    for name, override in (("seed", seed_override), ("injection", injection_override)):
        if override is not None:
            values[name] = override
    try:
        return ScenarioConfig(imu=replace(CONSUMER_IMU, **spec), **values)
    except ValueError as exc:
        raise ConfigError(str(exc))


def variants_from_config(cfg: dict):
    raw = _get(cfg, "run.variants", "ekf,l-inekf,r-inekf,ct-ekf", str)
    variants = tuple(v.strip() for v in raw.split(",") if v.strip())
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown filter variant {v!r}; expected one of {sorted(VARIANTS)}")
    return variants


def _reject_leftovers(cfg: dict, accepted_prefixes):
    for key in cfg:
        if not any(key.startswith(p) for p in accepted_prefixes):
            raise ConfigError(f"unknown config key {key!r}")


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    scenario = scenario_from_config(cfg, args.seed)
    _reject_leftovers(cfg, ("sweep.", "run."))
    sc = synthesize(scenario)
    truth = sc.truth
    os.makedirs(args.out, exist_ok=True)
    io.write_imu(os.path.join(args.out, "imu.csv"), sc.imu.t, sc.imu.gyro, sc.imu.accel)
    io.write_observations(os.path.join(args.out, "gnss_vel.csv"), "gnss_vel", sc.gnss)
    io.write_observations(os.path.join(args.out, "odo.csv"), "odo", sc.odo)
    io.write_truth(os.path.join(args.out, "truth.csv"), truth.t, truth.att, truth.vel, truth.pos)
    log.info(
        "wrote dataset to %s (%d IMU samples, %d GNSS, %d ODO)", args.out, len(sc.imu.t), len(sc.gnss), len(sc.odo)
    )
    return 0


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    scenario = scenario_from_config(cfg, args.seed, args.injection)
    variants = variants_from_config(cfg)
    _reject_leftovers(cfg, ("sweep.",))
    os.makedirs(args.out, exist_ok=True)
    failed = False
    print(f"{'variant':<10} {'att RMSE [deg]':>15} {'vel RMSE [m/s]':>15} {'pos RMSE [m]':>14}")
    for variant in variants:
        run, metrics = run_scenario(scenario, variant)
        io.write_estimates(os.path.join(args.out, f"estimates_{variant}.csv"), run)
        if metrics["diverged"]:
            failed = True
            print(f"{variant:<10} DIVERGED: {metrics['diverged']}")
        else:
            print(
                f"{variant:<10} {metrics['att_rmse_total_deg']:>15.4f}"
                f" {np.linalg.norm(metrics['vel_rmse']):>15.4f}"
                f" {np.linalg.norm(metrics['pos_rmse']):>14.4f}"
            )
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    scenario = scenario_from_config(cfg, args.seed)
    variants = variants_from_config(cfg)
    yaw_min = _get(cfg, "sweep.yaw_min_deg", -150.0, float)
    yaw_max = _get(cfg, "sweep.yaw_max_deg", 150.0, float)
    yaw_step = _get(cfg, "sweep.yaw_step_deg", 30.0, float)
    n_seeds = _get(cfg, "sweep.seeds", 10, int)
    _reject_leftovers(cfg, ())
    if not np.isfinite([yaw_min, yaw_max, yaw_step]).all():
        raise ConfigError(
            f"sweep grid must be finite: yaw_min_deg={yaw_min}, yaw_max_deg={yaw_max}, yaw_step_deg={yaw_step}"
        )
    if yaw_step <= 0 or yaw_max < yaw_min:
        raise ConfigError("sweep grid is empty or inverted")
    if n_seeds < 1:
        raise ConfigError(f"sweep.seeds must be at least 1, got {n_seeds}")
    grid = np.arange(yaw_min, yaw_max + yaw_step / 2, yaw_step)
    result = monte_carlo_sweep(scenario, grid, n_seeds, variants=variants, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "rmse.csv")
    io.write_rmse(out, result)
    log.info("wrote %s (%d cells x %d variants)", out, len(grid), len(variants))
    for i, yaw in enumerate(result.yaw_deg):
        cells = " ".join(f"{v}={result.rmse_deg[i, j]:.3f}" for j, v in enumerate(result.variants))
        print(f"yaw {yaw:+7.1f} deg: {cells}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.level, args.seed, args.jobs)
    for r in results:
        print(r.line())
    payload = [
        {
            "name": r.name, "passed": r.passed, "measured": r.measured, "tolerance": r.tolerance,
            "elapsed_s": r.elapsed_s, "detail": r.detail,
        }
        for r in results
    ]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    ok = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} properties passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cteskf",
        description="Error-state Kalman filtering on SE2(3) with covariance switch/transformation strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="synthesize and write a dataset")
    sim_p.add_argument("--config", required=True)
    sim_p.add_argument("--out", default="out")
    sim_p.add_argument("--seed", type=int, default=None)
    sim_p.set_defaults(func=cmd_simulate)

    run_p = sub.add_parser("run", help="run filter variants over a scenario")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--injection", choices=["first-order", "retraction"], default=None)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="Monte Carlo yaw-error sweep")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", default="out")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the property-check battery")
    verify_p.add_argument("--level", choices=["fast", "full"], default="fast")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--jobs", type=int, default=1)
    verify_p.add_argument("--out", default=None, help="write a JSON report here")
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("CTESKF_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, io.CsvSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
