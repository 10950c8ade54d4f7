"""Null-shaped beamforming for satellite uplinks under interferer location
uncertainty.

The package covers the full desk-scale pipeline: exact LEO viewing
geometry on the WGS84 ellipsoid (`geodesy`), planar-array gain evaluation
(`array`), probability-weighted null sample grids (`uncertainty`), the
closed-form weight design (`optimizer`), and scenario-level Monte-Carlo
robustness experiments (`simulation`). A small CLI (`nullshaper`) drives
the experiment types and writes CSV/SVG artifacts.
"""

from .array import (
    ArrayModel,
    Direction,
    ElementPattern,
    SignalSnapshot,
    WeightVector,
    array_factor,
    array_output,
    gain,
    gains,
    null_width,
    pattern_cut,
)
from .geodesy import (
    WGS84,
    AerPosition,
    ConvergenceError,
    EcefPosition,
    EllipsoidParams,
    GeodeticPosition,
    NedVector,
    RayMissError,
    aer_to_geodetic,
    aer_to_ned,
    angular_deviation_to_ground_distance,
    ecef_to_geodetic,
    geodetic_to_ecef,
    ground_footprint,
    haversine_distance,
    ned_to_ecef_rotation,
    prime_vertical_radius,
)
from .optimizer import (
    Objective,
    OptimizationResult,
    PolishConfig,
    PsoConfig,
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
    scenario_from_dict,
)
from .uncertainty import (
    DegenerateDistributionError,
    InterfererBelief,
    NullSampleGrid,
    build_grid,
    normalize_weights,
    pdf,
    weighted_interferer_gain,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geodesy
    "WGS84",
    "EllipsoidParams",
    "GeodeticPosition",
    "AerPosition",
    "NedVector",
    "EcefPosition",
    "ConvergenceError",
    "RayMissError",
    "prime_vertical_radius",
    "aer_to_ned",
    "geodetic_to_ecef",
    "ned_to_ecef_rotation",
    "ecef_to_geodetic",
    "aer_to_geodetic",
    "haversine_distance",
    "ground_footprint",
    "angular_deviation_to_ground_distance",
    # array
    "ArrayModel",
    "Direction",
    "ElementPattern",
    "WeightVector",
    "SignalSnapshot",
    "array_factor",
    "gain",
    "gains",
    "array_output",
    "pattern_cut",
    "null_width",
    # uncertainty
    "InterfererBelief",
    "NullSampleGrid",
    "DegenerateDistributionError",
    "pdf",
    "build_grid",
    "normalize_weights",
    "weighted_interferer_gain",
    # optimizer
    "Objective",
    "PsoConfig",
    "PolishConfig",
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
    "capacity",
    "crossover_sigma",
    "load_scenario",
    "scenario_from_dict",
]
