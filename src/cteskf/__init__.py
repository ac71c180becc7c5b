"""Error-state Kalman filtering for ECEF strapdown INS on SE2(3).

Three error parameterizations (additive, left-invariant, right-invariant)
share one filter engine with plain, covariance-switch and
covariance-transformation update strategies, plus a synthetic-scenario
harness that checks the equivalence properties connecting them.
"""

from .errorstate import ErrorParam, InjectionMode
from .filter import FilterState, Strategy, mixed_sensor_strategy
from .ins import EarthModel, ImuSample, NavState
from .sensors import Observation
from .sim import ImuSpec, ScenarioConfig, monte_carlo_sweep, run_scenario

__version__ = "0.1.0"

__all__ = [
    "EarthModel",
    "ErrorParam",
    "FilterState",
    "ImuSample",
    "ImuSpec",
    "InjectionMode",
    "NavState",
    "Observation",
    "ScenarioConfig",
    "Strategy",
    "mixed_sensor_strategy",
    "monte_carlo_sweep",
    "run_scenario",
    "__version__",
]
