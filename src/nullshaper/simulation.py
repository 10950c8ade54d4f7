"""Scenario assembly and Monte-Carlo robustness experiments.

A scenario fixes the satellite, the planar array, the served users, and
the interferers with their shaping (sigma_s, the uncertainty assumed at
design time). Ground positions are mapped into the nadir-pointing array
frame, weights are designed against the shaped uncertainty, and sweeps
then score those weights against interferer positions drawn with each
actual spread (sigma_i, the deviation the world really has) of a grid
the caller gives.

Sweeps use common random numbers: one block of standard normals, drawn
once from the seed, is scaled by every sigma_i, so every sigma_i point,
every design and both metrics (effectiveness and capacity) see the same
draws, and one pass over the steered realisations scores them all.

Per-trial scores aggregate in the dB domain: realised effectiveness spans
many orders of magnitude and its linear-scale mean is dominated by the
single draw closest to a pattern null, so dB averaging is what makes the
reported rows stable and the trials-vs-error bars meaningful.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .array import (MAX_ELEMENTS, ArrayModel, Direction, WeightVector, _direction_blocks,
                    _weight_values, gains)
from .geodesy import GeodeticPosition, geodetic_to_ecef, ned_to_ecef_rotation
from .optimizer import EPS_DEN, _LOG_FLOOR, Objective, OptimizationResult, _design, _pooled, optimize
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
    "monte_carlo_sweeps",
    "capacity",
    "crossover_sigma",
]

#: Most points any grid may have: a sweep's sigma_i grid, a geodesy deviation grid, a
#: pattern cut, the J x L x L directions of the J interferers' pooled shaping grids, or a
#: sweep's designs x trials x J draws per sigma_i point, about 60 B each (6 MB a design).
MAX_GRID_POINTS = 100_001
#: Largest shaping kappa. Grid corners weigh exp(-kappa^2) of the centre:
#: e^-100 at this cap, and zero, an invalid grid, by kappa = 28.
MAX_KAPPA = 10
#: Largest shaping sigma_s in degrees: a belief wider than half a turn says
#: nothing about where the interferer is.
MAX_SIGMA_S_DEG = 180


class VisibilityError(ValueError):
    """Ground target lies beyond the satellite's horizon."""


class ScenarioError(ValueError):
    """Scenario file or dictionary fails validation."""


class UnsupportedScenarioError(ValueError):
    """Metric undefined for this scenario shape (e.g. capacity with K > 1),
    or a sweep design whose sigma_s would run as another (its radians
    underflow to 0)."""


@dataclass(frozen=True)
class LinkBudget:
    """Received powers (watts, per element) entering the capacity metric."""

    user_power: float = 10.0
    interferer_power: float = 1000.0
    noise_power: float = 1.0

    def __post_init__(self):
        powers = (self.user_power, self.interferer_power, self.noise_power)
        if not all(math.isfinite(p) and p > 0.0 for p in powers):
            raise ValueError("link budget powers must be positive and finite")


@dataclass(frozen=True)
class InterfererSite:
    """Interferer nominal location plus its shaping spread (radians).

    ``position`` is either a ground point or a direction in the array
    frame; sigma_s is the design-time uncertainty, from 0 to
    ``MAX_SIGMA_S_DEG`` in radians. The deviations a sweep draws realised
    positions with are the sweep's own sigma_i grid.
    """

    position: GeodeticPosition | Direction
    sigma_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma_s <= math.radians(MAX_SIGMA_S_DEG):
            raise ValueError(f"sigma_s must be between 0 and {MAX_SIGMA_S_DEG} deg, "
                             f"got {math.degrees(self.sigma_s):g}")


@dataclass(frozen=True)
class Scenario:
    """Full experiment description."""

    satellite: GeodeticPosition
    array: ArrayModel
    users: tuple[GeodeticPosition | Direction, ...]
    interferers: tuple[InterfererSite, ...]
    samples_per_axis: int = 3
    kappa: int = 1
    seed: int = 0
    link_budget: LinkBudget = field(default_factory=LinkBudget)

    def __post_init__(self):
        # the design solves a K x K problem, bounded as the N x N form is
        if not 1 <= len(self.users) <= MAX_ELEMENTS:
            raise ValueError(f"need between 1 and {MAX_ELEMENTS} users, got {len(self.users)}")
        if len(self.interferers) < 1:
            raise ValueError("need at least one interferer")
        sites = len(self.interferers)
        if self.samples_per_axis < 1 or sites * self.samples_per_axis ** 2 > MAX_GRID_POINTS:
            raise ValueError(f"shaping L must be at least 1, and the {sites} interferer(s) "
                             f"x L x L grid directions at most {MAX_GRID_POINTS}")
        if not 0 <= self.kappa <= MAX_KAPPA:
            raise ValueError(f"shaping kappa must be between 0 and {MAX_KAPPA}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # unit-norm weights reach a user gain of at most N, the element count
        if not math.isfinite(self.link_budget.user_power * self.array.size / self.link_budget.noise_power):
            raise ValueError("link budget user_power x elements / noise_power must be finite")

    def user_directions(self) -> tuple[Direction, ...]:
        """The users' directions in the array frame. Ground points are
        resolved on the first call, whose result every later call shares;
        a target beyond the horizon raises :class:`VisibilityError` then,
        not at load time."""
        return self._resolved_users

    def interferer_directions(self) -> tuple[Direction, ...]:
        """The interferers' nominal directions in the array frame, resolved
        once as :meth:`user_directions` is."""
        return self._resolved_interferers

    def with_sigma_s(self, sigma_s: float) -> "Scenario":
        """Copy of the scenario with every interferer's shaping replaced."""
        return replace(self, interferers=tuple(replace(j, sigma_s=sigma_s) for j in self.interferers))

    @cached_property
    def _resolved_users(self) -> tuple[Direction, ...]:
        return tuple(self._as_direction(u) for u in self.users)

    @cached_property
    def _resolved_interferers(self) -> tuple[Direction, ...]:
        return tuple(self._as_direction(j.position) for j in self.interferers)

    def _as_direction(self, position) -> Direction:
        if isinstance(position, Direction):
            return position
        return geodetic_to_direction(self.satellite, position)


def geodetic_to_direction(sat: GeodeticPosition, target: GeodeticPosition) -> Direction:
    """Direction of a ground target in the nadir-pointing array frame.

    The line of sight is resolved into NED at the satellite; the polar
    angle is measured from the down axis and the azimuth from east toward
    north. Raises :class:`VisibilityError` when the satellite sits below
    the target's local horizon (which also covers far-side targets whose
    line of sight would pass through the planet).
    """
    line_of_sight = geodetic_to_ecef(target) - geodetic_to_ecef(sat)
    if not math.hypot(*line_of_sight) > 0.0:
        raise VisibilityError("target coincides with the satellite")
    # seen from above the target's horizon, the line of sight runs along the
    # target's down axis, column 2 of its NED frame
    if ned_to_ecef_rotation(target.longitude, target.latitude)[:, 2] @ line_of_sight < 0.0:
        raise VisibilityError(
            "satellite below the target's horizon; target is not visible"
        )
    ned = ned_to_ecef_rotation(sat.longitude, sat.latitude).T @ line_of_sight
    off_nadir = math.atan2(math.hypot(ned[0], ned[1]), ned[2])
    azimuth = math.atan2(ned[0], ned[1])
    return Direction(off_nadir, azimuth % (2.0 * math.pi))


def _interferer_grids(sc: Scenario, sigmas_s) -> list[NullSampleGrid]:
    """Shaped grid of each interferer's belief, with (sigma_theta,
    sigma_phi) both equal to its sigma_s of ``sigmas_s``."""
    return [build_grid(InterfererBelief.isotropic(mean.theta, mean.phi, sigma_s),
                       sc.samples_per_axis, sc.kappa)
            for mean, sigma_s in zip(sc.interferer_directions(), sigmas_s)]


def build_objective(sc: Scenario) -> Objective:
    """Assemble the design objective: shaped grids from each interferer's
    belief with (sigma_theta, sigma_phi) both equal to its sigma_s."""
    sigmas_s = [j.sigma_s for j in sc.interferers]
    return Objective(sc.array, sc.user_directions(), _interferer_grids(sc, sigmas_s))


def design_weights(sc: Scenario) -> OptimizationResult:
    """Design beamforming weights for the scenario's shaped objective.

    Each grid's weights sum to one, so the design and its psi are
    comparable across sigma_s. As sigma_s shrinks, the grid closes on the
    mean and the design tends to the sigma_s = 0 point design: on
    ``leo_capacity.json`` every sigma_s of 1e-7 deg or less reaches its
    clamped psi. psi need not rise monotonically on the way there.
    """
    return optimize(build_objective(sc))


def _sweep_weights(sc: Scenario, sigmas_s) -> list[WeightVector]:
    """``design_weights(sc.with_sigma_s(s)).weights`` for each sigma_s
    (radians) of ``sigmas_s``, bit for bit.

    The users are steered once; each sigma_s then shapes every
    interferer's grid on ``sc`` itself and is one ``optimizer._design``
    call, as in ``optimize``. Nothing is scored, so no design's psi is
    computed.
    """
    # interferers resolve before users: with a user and an interferer both
    # beyond the horizon, a sweep reports the interferer
    sites = len(sc.interferer_directions())
    users = sc.array.steering(*np.array([(d.theta, d.phi) for d in sc.user_directions()]).T)
    return [_design(sc.array, users, *_pooled(_interferer_grids(sc, [s] * sites)))[0] for s in sigmas_s]


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


def _psi_db(user_gain, interferer_gains: np.ndarray) -> np.ndarray:
    """Per-trial effectiveness in dB from (..., J) point-interferer gains;
    ``user_gain`` broadcasts against the leading axes."""
    psi = user_gain / np.maximum(np.mean(interferer_gains, axis=-1), EPS_DEN)
    return 10.0 * np.log10(np.maximum(psi, _LOG_FLOOR))


def _capacity_bits(user_gain, interferer_gains: np.ndarray, budget: LinkBudget) -> np.ndarray:
    """Per-trial log2(1 + SINR) from (..., J) point-interferer gains;
    ``user_gain`` broadcasts against the leading axes."""
    interference = budget.interferer_power * interferer_gains.sum(axis=-1)
    sinr = user_gain * budget.user_power / (interference + budget.noise_power)
    return np.log2(1.0 + sinr)


def monte_carlo_sweeps(
    sc: Scenario,
    weights,
    sigma_i_grid,
    trials: int = 1000,
    seed: int | None = None,
) -> list[tuple[SweepResult, SweepResult | None]]:
    """Score several fixed weight vectors against interferer position error.

    One block of standard normals z, shape (trials, J, 2), is drawn from
    ``default_rng(seed)``, and the sigma_i point realises interferer j of
    trial t at mean_j + sigma_i * z[t, j]. Every sigma_i point, every
    design and both metrics share these draws (common random numbers), so
    a row does not depend on the grid around it and designs differ only by
    their weights. The points are taken in groups of a quarter of a
    direction block (``array._direction_blocks``) of gains, and one
    ``array.gains`` call per group scores every weight row on the K users,
    the J means and the trials x J realised directions of each of the
    group's points, steered in bounded blocks. At sigma_i = 0 every
    trial realises the J means, so the means' gains are broadcast over the
    trials and none of its trials is steered; a gain depends on its
    direction alone, so the rows equal the general path's. Each group's
    gains fill one contiguous (designs, points, trials, J) array, and one
    pass of reductions turns it into every design's rows for those
    points. Every reduction runs over contiguous rows of one point's
    trials or one trial's J gains, so it rounds the same whatever the
    grouping. The rounding of a gain depends on neither the blocking, nor
    the directions scored beside it, nor the number of rows, so a realised
    point reproduces the single-point-grid objective value bit for bit,
    and a design's rows do not depend on the designs or the sigma_i points
    swept with it. Memory grows with ``trials`` times designs times J, a
    few doubles each, not with the steering or the grid. The link budget
    is the scenario's.

    Returns one ``(psi, capacity)`` pair per weight row, an empty list for
    no weight rows: psi rows in dB, capacity rows in bits/s/Hz, or None
    when the scenario does not serve exactly one user. Raises ValueError
    for ``trials`` < 1 and for a sigma_i grid that is not sorted or holds
    a negative or non-finite sigma_i.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sigma_list = [float(s) for s in sigma_i_grid]
    if not all(math.isfinite(s) and s >= 0.0 for s in sigma_list):
        raise ValueError("sigma_i grid must be finite and >= 0")
    if sigma_list != sorted(sigma_list):
        raise ValueError("sigma_i grid must be sorted")
    seed = sc.seed if seed is None else seed

    rows = np.array([_weight_values(w, sc.array.size) for w in weights]).reshape(-1, sc.array.size)
    designs = len(rows)
    if designs == 0:
        return []
    users = np.array([[d.theta, d.phi] for d in sc.user_directions()])
    with_capacity = len(users) == 1
    means = np.array([[d.theta, d.phi] for d in sc.interferer_directions()])
    interferers = len(means)
    z = np.random.default_rng(seed).standard_normal((trials, interferers, 2))

    shape = (designs, len(sigma_list))
    psi_mean, psi_std = np.empty(shape), np.empty(shape)
    cap_mean, cap_std = np.empty(shape), np.empty(shape)
    # a point's gains are designs x trials x J doubles, and the reductions
    # hold about four arrays of the group's size at once, so each point
    # counts as twice that many complex values of a direction block
    for points in _direction_blocks(len(sigma_list), 2 * designs * trials * interferers):
        group = np.array(sigma_list[points])
        # the grid is sorted and >= 0, so its sigma_i = 0 points lead
        zeros = np.count_nonzero(group == 0.0)
        realised = means + group[zeros:, None, None, None] * z
        directions = np.concatenate([users, means, realised.reshape(-1, 2)])
        power = gains(sc.array, rows, directions[:, 0], directions[:, 1])
        user_power, mean_power, realised_power = np.split(power, [len(users), len(users) + interferers])
        # each design's K user gains as one contiguous row, so its mean
        # rounds as Objective.user_gain_mean does for that design alone
        user_gains = np.ascontiguousarray(user_power.T).mean(axis=1)[:, None, None]
        # (designs, points, trials, J), contiguous, so each design's trials
        # at each point reduce as one contiguous row, rounding as a
        # single-design, single-point sweep does
        interferer_gains = np.empty((designs, len(group), trials, interferers))
        interferer_gains[:, :zeros] = mean_power.T[:, None, None, :]
        realised_power = realised_power.reshape(-1, trials, interferers, designs)
        interferer_gains[:, zeros:] = np.moveaxis(realised_power, -1, 0)
        per_trial = _psi_db(user_gains, interferer_gains)
        psi_mean[:, points], psi_std[:, points] = per_trial.mean(axis=-1), per_trial.std(axis=-1)
        if with_capacity:
            per_trial = _capacity_bits(user_gains, interferer_gains, sc.link_budget)
            cap_mean[:, points], cap_std[:, points] = per_trial.mean(axis=-1), per_trial.std(axis=-1)

    sigma_i_deg = tuple(math.degrees(s) for s in sigma_list)

    def result(mean, std, metric):
        return SweepResult(sigma_i_deg, tuple(mean.tolist()), tuple(std.tolist()), trials, metric)

    return [
        (
            result(psi_mean[d], psi_std[d], "psi"),
            result(cap_mean[d], cap_std[d], "capacity") if with_capacity else None,
        )
        for d in range(designs)
    ]


def monte_carlo_sweep(
    sc: Scenario,
    w: WeightVector,
    sigma_i_grid,
    trials: int = 1000,
    seed: int | None = None,
    metric: str = "psi",
) -> SweepResult:
    """Score fixed weights against interferer position error.

    For each sigma_i in the grid, ``trials`` realised interferer direction
    sets are drawn from N(mean, sigma_i^2 I) and the chosen metric is
    evaluated with the user directions held fixed and each realised
    interferer treated as a single point of weight one. Rows report the
    mean and standard deviation over trials (dB for ``psi``, bits/s/Hz for
    ``capacity``); sigma_i = 0 reproduces the deterministic value exactly.
    One design of :func:`monte_carlo_sweeps`, with the same draws.
    """
    if metric not in ("psi", "capacity"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "capacity" and len(sc.users) != 1:
        raise UnsupportedScenarioError("capacity metric requires exactly one user")
    psi, cap = monte_carlo_sweeps(sc, [w], sigma_i_grid, trials, seed)[0]
    return psi if metric == "psi" else cap


def capacity(sc: Scenario, w: WeightVector, realized_directions) -> float:
    """Shannon capacity log2(1 + SINR) of the single served user for one
    set of realised interferer directions.

    ``realized_directions`` is a (J, 2) array-like of (theta, phi) rows.
    Raises for K != 1. Scored exactly as one trial of
    :func:`monte_carlo_sweeps`, with the scenario's link budget.
    """
    if len(sc.users) != 1:
        raise UnsupportedScenarioError("capacity metric requires exactly one user")
    realized = np.asarray(realized_directions, dtype=float).reshape(-1, 2)
    user = sc.user_directions()[0]
    # one call scores the user and the realised directions: no gain depends
    # on the directions scored beside it
    theta, phi = np.vstack([[user.theta, user.phi], realized]).T
    power = gains(sc.array, w, theta, phi).reshape(-1)
    return float(_capacity_bits(power[0], power[None, 1:], sc.link_budget)[0])


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


def _known_keys(entry: dict, what: str, keys: tuple[str, ...]) -> dict:
    """``entry``, refusing any key outside ``keys``, so that a misspelled
    key is not silently left at its default."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(entry).__name__}")
    unknown = sorted(set(entry) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown key in {what}: {reprlib.repr(unknown)[1:-1]}")
    return entry


def _position_from_entry(entry: dict, what: str, extra: tuple[str, ...] = ()):
    if not isinstance(entry, dict):
        raise ScenarioError(f"{what} entry must be a JSON object, got {type(entry).__name__}")
    has_ground = "lon_deg" in entry and "lat_deg" in entry
    has_angle = "theta_deg" in entry and "phi_deg" in entry
    if has_ground == has_angle:
        raise ScenarioError(
            f"{what} entry needs either lon_deg/lat_deg or theta_deg/phi_deg: {reprlib.repr(entry)}"
        )
    place = ("lon_deg", "lat_deg", "alt_m") if has_ground else ("theta_deg", "phi_deg")
    _known_keys(entry, f"{what} entry", place + extra)
    values = [_number(entry.get(key, 0.0), f"{what} entry {key}") for key in place]
    try:
        return (GeodeticPosition if has_ground else Direction).from_degrees(*values)
    except ValueError as exc:
        raise ScenarioError(f"invalid {what} entry {reprlib.repr(entry)}: {exc}") from exc


def _number(value, what: str) -> float:
    """``float(value)``, refusing anything that is not a JSON number: a
    quoted ``"8e5"``, say, or a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{what} must be a number, got {reprlib.repr(value)}")
    return float(value)


def _integer(value, what: str) -> int:
    """``int(value)``, refusing a number with a fractional part instead of
    truncating it, and, like ``_number``, anything that is not a JSON
    number."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ScenarioError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a scenario from the plain-dict form used by scenario files.

    Expected keys: ``satellite{lon_deg, lat_deg, alt_m}``,
    ``array{m, n, dx_over_lambda, dy_over_lambda, freq_hz}``, ``users``,
    ``interferers`` (each entry a ground point ``{lon_deg, lat_deg}`` with
    an optional ``alt_m``, or a direction ``{theta_deg, phi_deg}``,
    interferers adding ``sigma_s_deg``), ``shaping{L, kappa}``, optional
    ``link_budget{...}``, and ``seed``. Any other key raises
    :class:`ScenarioError`, except the ``pso`` block and the interferer
    ``sigma_i_deg`` of older files, which are accepted and not read.
    """
    try:
        _known_keys(raw, "scenario", ("satellite", "array", "users", "interferers",
                                      "shaping", "link_budget", "seed", "pso"))
        sat_entry = _known_keys(raw["satellite"], "satellite", ("lon_deg", "lat_deg", "alt_m"))
        satellite = GeodeticPosition.from_degrees(
            *(_number(sat_entry[key], f"satellite.{key}") for key in ("lon_deg", "lat_deg", "alt_m"))
        )
        arr_entry = _known_keys(raw["array"], "array", ("m", "n", "dx_over_lambda",
                                                          "dy_over_lambda", "freq_hz"))
        array = ArrayModel.from_frequency(
            _integer(arr_entry["m"], "array.m"),
            _integer(arr_entry["n"], "array.n"),
            *(_number(arr_entry.get(key, default), f"array.{key}") for key, default
              in (("freq_hz", 2.0e10), ("dx_over_lambda", 0.5), ("dy_over_lambda", 0.5))),
        )
        users = tuple(_position_from_entry(u, "user") for u in raw["users"])
        interferers = tuple(
            InterfererSite(
                position=_position_from_entry(j, "interferer", ("sigma_s_deg", "sigma_i_deg")),
                sigma_s=math.radians(_number(j.get("sigma_s_deg", 0.0), "interferer entry sigma_s_deg")),
            )
            for j in raw["interferers"]
        )
        shaping = _known_keys(raw.get("shaping", {}), "shaping", ("L", "kappa"))
        seed = _integer(raw.get("seed", 0), "seed")
        budget_entry = _known_keys(raw.get("link_budget", {}), "link_budget",
                                   tuple(LinkBudget.__dataclass_fields__))
        scenario = Scenario(
            satellite=satellite,
            array=array,
            users=users,
            interferers=interferers,
            samples_per_axis=_integer(shaping.get("L", 3), "shaping.L"),
            kappa=_integer(shaping.get("kappa", 1), "shaping.kappa"),
            seed=seed,
            link_budget=LinkBudget(**{k: _number(v, f"link_budget.{k}") for k, v in budget_entry.items()}),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file, a UTF-8 JSON object as :func:`scenario_from_dict` takes. A
    file that cannot be read, is not UTF-8 JSON, nests past the parser's recursion limit or
    holds an integer over 4,300 digits raises :class:`ScenarioError`, as a bad object does."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_dict(raw)
