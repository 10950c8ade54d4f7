"""Scenario assembly and Monte-Carlo robustness experiments.

A scenario fixes the satellite, the planar array, the served users, and
the interferers with their shaping (sigma_s, the uncertainty assumed at
design time) and actual spread (sigma_i, the deviation the world really
has). Ground positions are mapped into the nadir-pointing array frame,
weights are designed against the shaped uncertainty, and sweeps then score
those weights against interferer positions drawn with varying sigma_i.

Per-trial scores aggregate in the dB domain: realised effectiveness spans
many orders of magnitude and its linear-scale mean is dominated by the
single draw closest to a pattern null, so dB averaging is what makes the
reported rows stable and the trials-vs-error bars meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .array import ArrayModel, Direction, WeightVector, gains
from .geodesy import (
    WGS84,
    EllipsoidParams,
    GeodeticPosition,
    geodetic_to_ecef,
    ned_to_ecef_rotation,
)
from .optimizer import (
    Objective,
    OptimizationResult,
    PolishConfig,
    PsoConfig,
    _response_power,
    optimize,
)
from .uncertainty import InterfererBelief, NullSampleGrid, build_grid

__all__ = [
    "VisibilityError",
    "ScenarioError",
    "UnsupportedScenarioError",
    "LinkBudget",
    "InterfererSite",
    "Scenario",
    "SweepResult",
    "load_scenario",
    "scenario_from_dict",
    "geodetic_to_direction",
    "build_objective",
    "design_weights",
    "monte_carlo_sweep",
    "capacity",
    "crossover_sigma",
]


class VisibilityError(ValueError):
    """Ground target lies beyond the satellite's horizon."""


class ScenarioError(ValueError):
    """Scenario file or dictionary fails validation."""


class UnsupportedScenarioError(ValueError):
    """Metric undefined for this scenario shape (e.g. capacity with K > 1)."""


@dataclass(frozen=True)
class LinkBudget:
    """Received powers (watts, per element) entering the capacity metric."""

    user_power: float = 10.0
    interferer_power: float = 1000.0
    noise_power: float = 1.0

    def __post_init__(self):
        if min(self.user_power, self.interferer_power, self.noise_power) <= 0.0:
            raise ValueError("link budget powers must be positive")


@dataclass(frozen=True)
class InterfererSite:
    """Interferer nominal location plus shaping and actual spreads (radians).

    ``position`` is either a ground point or a direction in the array
    frame; sigma_s is the design-time uncertainty, sigma_i the deviation
    used when the sweep draws realised positions.
    """

    position: GeodeticPosition | Direction
    sigma_s: float = 0.0
    sigma_i: float = 0.0

    def __post_init__(self):
        if self.sigma_s < 0.0 or self.sigma_i < 0.0:
            raise ValueError("sigma_s and sigma_i must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """Full experiment description.

    ``pso`` is the scenario file's legacy swarm block, or None when the
    file has none. It is parsed and validated but ignored: weights are
    designed in closed form.
    """

    satellite: GeodeticPosition
    array: ArrayModel
    users: tuple[GeodeticPosition | Direction, ...]
    interferers: tuple[InterfererSite, ...]
    samples_per_axis: int = 3
    kappa: int = 1
    seed: int = 0
    pso: PsoConfig | None = None
    link_budget: LinkBudget = field(default_factory=LinkBudget)
    ellipsoid: EllipsoidParams = WGS84

    def __post_init__(self):
        if len(self.users) < 1:
            raise ValueError("need at least one user")
        if len(self.interferers) < 1:
            raise ValueError("need at least one interferer")
        if self.samples_per_axis < 1 or self.kappa < 0:
            raise ValueError("invalid shaping parameters")

    def user_directions(self) -> tuple[Direction, ...]:
        return tuple(self._as_direction(u) for u in self.users)

    def interferer_directions(self) -> tuple[Direction, ...]:
        return tuple(self._as_direction(j.position) for j in self.interferers)

    def with_sigma_s(self, sigma_s: float) -> "Scenario":
        """Copy of the scenario with every interferer's shaping replaced."""
        sites = tuple(replace(j, sigma_s=sigma_s) for j in self.interferers)
        return replace(self, interferers=sites)

    def _as_direction(self, position) -> Direction:
        if isinstance(position, Direction):
            return position
        return geodetic_to_direction(self.satellite, position, self.ellipsoid)


def geodetic_to_direction(
    sat: GeodeticPosition, target: GeodeticPosition, ell: EllipsoidParams = WGS84
) -> Direction:
    """Direction of a ground target in the nadir-pointing array frame.

    The line of sight is resolved into NED at the satellite; the polar
    angle is measured from the down axis and the azimuth from east toward
    north. Raises :class:`VisibilityError` when the satellite sits below
    the target's local horizon (which also covers far-side targets whose
    line of sight would pass through the planet).
    """
    sat_ecef = geodetic_to_ecef(sat, ell).as_array()
    target_ecef = geodetic_to_ecef(target, ell).as_array()
    line_of_sight = target_ecef - sat_ecef
    slant = np.linalg.norm(line_of_sight)
    if not slant > 0.0:
        raise VisibilityError("target coincides with the satellite")
    up_at_target = np.array(
        [
            math.cos(target.latitude) * math.cos(target.longitude),
            math.cos(target.latitude) * math.sin(target.longitude),
            math.sin(target.latitude),
        ]
    )
    if -line_of_sight @ up_at_target < 0.0:
        raise VisibilityError(
            "satellite below the target's horizon; target is not visible"
        )
    ned = ned_to_ecef_rotation(sat.longitude, sat.latitude).T @ line_of_sight
    off_nadir = math.atan2(math.hypot(ned[0], ned[1]), ned[2])
    azimuth = math.atan2(ned[0], ned[1])
    return Direction(off_nadir, azimuth % (2.0 * math.pi))


def build_objective(sc: Scenario, eps_den: float = 1e-18) -> Objective:
    """Assemble the design objective: shaped grids from each interferer's
    belief with (sigma_theta, sigma_phi) both equal to its sigma_s."""
    grids = []
    for site, mean in zip(sc.interferers, sc.interferer_directions()):
        belief = InterfererBelief.isotropic(mean.theta, mean.phi, site.sigma_s)
        grids.append(build_grid(belief, sc.samples_per_axis, sc.kappa))
    return Objective(sc.array, sc.user_directions(), grids, eps_den=eps_den)


def design_weights(sc: Scenario) -> OptimizationResult:
    """Design beamforming weights for the scenario's shaped objective."""
    return optimize(build_objective(sc))


@dataclass(frozen=True)
class SweepResult:
    """Per-sigma_i rows of a robustness sweep.

    ``mean_db`` is the trial mean of the per-trial metric: effectiveness in
    dB for the ``psi`` metric, bits/s/Hz for ``capacity``. ``std_db`` is
    the matching per-trial standard deviation (population).
    """

    sigma_i_deg: tuple[float, ...]
    mean_db: tuple[float, ...]
    std_db: tuple[float, ...]
    trials: int
    metric: str = "psi"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if list(self.sigma_i_deg) != sorted(self.sigma_i_deg):
            raise ValueError("sigma_i grid must be sorted")


def _trial_directions(
    means: np.ndarray, sigma_i: float, seed: int, sigma_index: int, trials: int
) -> np.ndarray:
    """Realised (theta, phi) per interferer and trial, shape (trials, J, 2).

    Each trial owns an RNG stream keyed by (seed, sigma index, trial), so
    results do not depend on evaluation order or worker count.
    """
    out = np.empty((trials, means.shape[0], 2))
    for trial in range(trials):
        rng = np.random.default_rng([seed, sigma_index, trial])
        out[trial] = rng.normal(means, sigma_i)
    return out


def _realized_psi(
    sc: Scenario, w, user_steering: np.ndarray, realized: np.ndarray, eps_den: float
) -> np.ndarray:
    """Effectiveness per trial for realised point interferers (weight one).

    All trials are steered and scored in one batch through the design
    objective's response helper, whose per-row rounding does not depend on
    the batch size, so a realised point reproduces the single-point-grid
    objective value bit for bit (null depths are cancellation-limited and
    would otherwise pick up kernel-dependent rounding).
    """
    w_row = np.asarray(getattr(w, "values", w), dtype=complex).reshape(1, -1)
    numerator = np.mean(_response_power(user_steering, w_row), axis=0)[0]
    trials, j_count, _ = realized.shape
    flat = realized.reshape(-1, 2)
    steer = sc.array.steering(flat[:, 0], flat[:, 1])
    denominator = np.mean(_response_power(steer, w_row).reshape(trials, j_count), axis=1)
    return numerator / np.maximum(denominator, eps_den)


def monte_carlo_sweep(
    sc: Scenario,
    w: WeightVector,
    sigma_i_grid,
    trials: int = 1000,
    seed: int | None = None,
    metric: str = "psi",
    link_budget: LinkBudget | None = None,
    eps_den: float = 1e-18,
) -> SweepResult:
    """Score fixed weights against interferer position error.

    For each sigma_i in the grid, ``trials`` realised interferer direction
    sets are drawn from N(mean, sigma_i^2 I) and the chosen metric is
    evaluated with the user directions held fixed and each realised
    interferer treated as a single point of weight one. Rows report the
    mean and standard deviation over trials (dB for ``psi``, bits/s/Hz for
    ``capacity``); sigma_i = 0 reproduces the deterministic value exactly.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if metric not in ("psi", "capacity"):
        raise ValueError(f"unknown metric {metric!r}")
    seed = sc.seed if seed is None else seed
    budget = link_budget if link_budget is not None else sc.link_budget

    user_dirs = sc.user_directions()
    user_steering = sc.array.steering(
        np.array([d.theta for d in user_dirs]), np.array([d.phi for d in user_dirs])
    )
    if metric == "capacity" and len(user_dirs) != 1:
        raise UnsupportedScenarioError("capacity metric requires exactly one user")

    means = np.array([[d.theta, d.phi] for d in sc.interferer_directions()])
    sigma_list = [float(s) for s in sigma_i_grid]
    if sigma_list != sorted(sigma_list):
        raise ValueError("sigma_i grid must be sorted")

    mean_rows, std_rows = [], []
    for sigma_index, sigma_i in enumerate(sigma_list):
        realized = _trial_directions(means, sigma_i, seed, sigma_index, trials)
        if metric == "psi":
            psi = _realized_psi(sc, w, user_steering, realized, eps_den)
            per_trial = 10.0 * np.log10(np.maximum(psi, 1e-300))
        else:
            user_gain = float(gains(sc.array, w, user_dirs[0].theta, user_dirs[0].phi))
            per_trial = _capacity_trials(sc, w, user_gain, realized, budget)
        mean_rows.append(float(per_trial.mean()))
        std_rows.append(float(per_trial.std()))
    return SweepResult(
        sigma_i_deg=tuple(math.degrees(s) for s in sigma_list),
        mean_db=tuple(mean_rows),
        std_db=tuple(std_rows),
        trials=trials,
        metric=metric,
    )


def _capacity_trials(
    sc: Scenario, w, user_gain: float, realized: np.ndarray, budget: LinkBudget
) -> np.ndarray:
    trials, j_count, _ = realized.shape
    flat = realized.reshape(-1, 2)
    interferer_gains = gains(sc.array, w, flat[:, 0], flat[:, 1]).reshape(trials, j_count)
    interference = budget.interferer_power * interferer_gains.sum(axis=1)
    sinr = user_gain * budget.user_power / (interference + budget.noise_power)
    return np.log2(1.0 + sinr)


def capacity(
    sc: Scenario,
    w: WeightVector,
    realized_directions,
    link_budget: LinkBudget | None = None,
) -> float:
    """Shannon capacity log2(1 + SINR) of the single served user for one
    set of realised interferer directions.

    ``realized_directions`` is a (J, 2) array of (theta, phi) rows or a
    list of :class:`Direction`. Raises for K != 1.
    """
    user_dirs = sc.user_directions()
    if len(user_dirs) != 1:
        raise UnsupportedScenarioError("capacity metric requires exactly one user")
    budget = link_budget if link_budget is not None else sc.link_budget
    if isinstance(realized_directions, (list, tuple)) and realized_directions and isinstance(
        realized_directions[0], Direction
    ):
        realized = np.array([[d.theta, d.phi] for d in realized_directions])
    else:
        realized = np.asarray(realized_directions, dtype=float).reshape(-1, 2)
    user_gain = float(gains(sc.array, w, user_dirs[0].theta, user_dirs[0].phi))
    return float(_capacity_trials(sc, w, user_gain, realized[np.newaxis, :, :], budget)[0])


def crossover_sigma(baseline: SweepResult, other: SweepResult) -> float | None:
    """Smallest sigma_i (degrees) where ``other`` strictly beats
    ``baseline`` in mean, or None if it never does. Grids must match."""
    if baseline.sigma_i_deg != other.sigma_i_deg:
        raise ValueError("sweeps use different sigma_i grids")
    for sigma_deg, base_val, other_val in zip(
        baseline.sigma_i_deg, baseline.mean_db, other.mean_db
    ):
        if other_val > base_val:
            return sigma_deg
    return None


# ---------------------------------------------------------------------------
# Scenario files


def _position_from_entry(entry: dict, what: str):
    has_ground = "lon_deg" in entry and "lat_deg" in entry
    has_angle = "theta_deg" in entry and "phi_deg" in entry
    if has_ground == has_angle:
        raise ScenarioError(
            f"{what} entry needs either lon_deg/lat_deg or theta_deg/phi_deg: {entry}"
        )
    try:
        if has_ground:
            return GeodeticPosition.from_degrees(
                float(entry["lon_deg"]), float(entry["lat_deg"]), float(entry.get("alt_m", 0.0))
            )
        return Direction.from_degrees(float(entry["theta_deg"]), float(entry["phi_deg"]))
    except ValueError as exc:
        raise ScenarioError(f"invalid {what} entry {entry}: {exc}") from exc


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a scenario from the plain-dict form used by scenario files.

    Expected keys: ``satellite{lon_deg, lat_deg, alt_m}``,
    ``array{m, n, dx_over_lambda, dy_over_lambda, freq_hz}``, ``users``,
    ``interferers`` (each entry a ground point ``{lon_deg, lat_deg}`` or a
    direction ``{theta_deg, phi_deg}``, interferers adding ``sigma_s_deg``
    and ``sigma_i_deg``), ``shaping{L, kappa}``, optional ``pso{...}``
    (legacy swarm settings: validated, then ignored),
    optional ``link_budget{...}``, and ``seed``.
    """
    try:
        sat_entry = raw["satellite"]
        satellite = GeodeticPosition.from_degrees(
            float(sat_entry["lon_deg"]), float(sat_entry["lat_deg"]), float(sat_entry["alt_m"])
        )
        arr_entry = raw["array"]
        array = ArrayModel.from_frequency(
            int(arr_entry["m"]),
            int(arr_entry["n"]),
            float(arr_entry.get("freq_hz", 2.0e10)),
            float(arr_entry.get("dx_over_lambda", 0.5)),
            float(arr_entry.get("dy_over_lambda", 0.5)),
        )
        users = tuple(_position_from_entry(u, "user") for u in raw["users"])
        interferers = tuple(
            InterfererSite(
                position=_position_from_entry(j, "interferer"),
                sigma_s=math.radians(float(j.get("sigma_s_deg", 0.0))),
                sigma_i=math.radians(float(j.get("sigma_i_deg", 0.0))),
            )
            for j in raw["interferers"]
        )
        shaping = raw.get("shaping", {})
        seed = int(raw.get("seed", 0))
        pso = None
        if "pso" in raw:
            pso_entry = dict(raw["pso"])
            pso_entry.setdefault("seed", seed)
            if "polish" in pso_entry:
                polish_entry = pso_entry["polish"]
                if isinstance(polish_entry, dict):
                    pso_entry["polish"] = PolishConfig(**polish_entry)
                elif polish_entry in (None, False):
                    pso_entry["polish"] = None
                else:
                    raise ScenarioError(f"invalid pso.polish entry {polish_entry!r}")
            pso = PsoConfig(**pso_entry)
        budget_entry = raw.get("link_budget", {})
        scenario = Scenario(
            satellite=satellite,
            array=array,
            users=users,
            interferers=interferers,
            samples_per_axis=int(shaping.get("L", 3)),
            kappa=int(shaping.get("kappa", 1)),
            seed=seed,
            pso=pso,
            link_budget=LinkBudget(**budget_entry) if budget_entry else LinkBudget(),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read a JSON scenario file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    return scenario_from_dict(raw)
