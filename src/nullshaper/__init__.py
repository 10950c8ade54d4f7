"""Null-shaped beamforming for satellite uplinks under interferer location
uncertainty.

The package covers the full desk-scale pipeline: exact LEO viewing
geometry on the World Geodetic System 1984 datum (`geodesy`), planar-array
gain evaluation (`array`), probability-weighted null sample grids
(`uncertainty`), the closed-form weight design (`optimizer`), and
scenario-level Monte-Carlo robustness experiments (`simulation`). A small
CLI (`nullshaper`) drives the experiment types and writes CSV/SVG
artifacts.
"""

from .array import (
    ArrayModel,
    Direction,
    WeightVector,
    gain,
    gains,
    null_width,
    pattern_cut,
)
from .geodesy import (
    AerPosition,
    GeodeticPosition,
    RayMissError,
    angular_deviation_to_ground_distance,
    ecef_to_geodetic,
    geodetic_to_ecef,
    ground_footprint,
    ned_to_ecef_rotation,
)
from .optimizer import (
    Objective,
    OptimizationResult,
    mitigation_effectiveness,
    optimize,
)
from .simulation import (
    InterfererSite,
    LinkBudget,
    Scenario,
    ScenarioError,
    SweepResult,
    UnsupportedScenarioError,
    VisibilityError,
    build_objective,
    capacity,
    crossover_sigma,
    design_weights,
    geodetic_to_direction,
    load_scenario,
    monte_carlo_sweep,
    monte_carlo_sweeps,
    scenario_from_dict,
)
from .uncertainty import (
    InterfererBelief,
    NullSampleGrid,
    build_grid,
    weighted_interferer_gain,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geodesy
    "GeodeticPosition",
    "AerPosition",
    "RayMissError",
    "geodetic_to_ecef",
    "ned_to_ecef_rotation",
    "ecef_to_geodetic",
    "ground_footprint",
    "angular_deviation_to_ground_distance",
    # array
    "ArrayModel",
    "Direction",
    "WeightVector",
    "gain",
    "gains",
    "pattern_cut",
    "null_width",
    # uncertainty
    "InterfererBelief",
    "NullSampleGrid",
    "build_grid",
    "weighted_interferer_gain",
    # optimizer
    "Objective",
    "OptimizationResult",
    "mitigation_effectiveness",
    "optimize",
    # simulation
    "Scenario",
    "InterfererSite",
    "LinkBudget",
    "SweepResult",
    "ScenarioError",
    "VisibilityError",
    "UnsupportedScenarioError",
    "geodetic_to_direction",
    "build_objective",
    "design_weights",
    "monte_carlo_sweep",
    "monte_carlo_sweeps",
    "capacity",
    "crossover_sigma",
    "load_scenario",
    "scenario_from_dict",
]
