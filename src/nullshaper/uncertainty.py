"""Statistical model of an interferer's angular position and the sample grid
used to shape nulls over its uncertainty region.

The interferer's (theta, phi) direction is believed to follow an
uncorrelated bivariate normal. Null shaping samples that belief on an
L x L grid spanning +/- kappa standard deviations per axis and weights
each sample direction by the density there, so the optimizer suppresses
gain where the interferer is most likely to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array import ArrayModel, gains

__all__ = [
    "InterfererBelief",
    "NullSampleGrid",
    "build_grid",
    "weighted_interferer_gain",
]


class _TinyDensityError(FloatingPointError):
    """Grid densities too small for double precision: a density underflows
    to 0, or the design they weight has a norm that overflows."""


@dataclass(frozen=True)
class InterfererBelief:
    """Mean direction and per-axis standard deviations, all in radians."""

    mean_theta: float
    mean_phi: float
    sigma_theta: float
    sigma_phi: float

    def __post_init__(self):
        for name in ("mean_theta", "mean_phi", "sigma_theta", "sigma_phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name}")
        if self.sigma_theta < 0.0 or self.sigma_phi < 0.0:
            raise ValueError("standard deviations must be >= 0")

    @classmethod
    def isotropic(cls, mean_theta: float, mean_phi: float, sigma: float) -> "InterfererBelief":
        return cls(mean_theta, mean_phi, sigma, sigma)


@dataclass(frozen=True)
class NullSampleGrid:
    """Sample directions (Z, 2) with per-direction probability weights (Z,).

    Directions are the Cartesian product of the theta and phi sample lists,
    theta varying slowest.
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        directions = np.asarray(self.directions, dtype=float).reshape(-1, 2).copy()
        weights = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if directions.shape[0] != weights.size or weights.size == 0:
            raise ValueError("directions and weights must match and be non-empty")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
        directions.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def thetas(self) -> np.ndarray:
        return self.directions[:, 0]

    @property
    def phis(self) -> np.ndarray:
        return self.directions[:, 1]

    @classmethod
    def point(cls, theta: float, phi: float) -> "NullSampleGrid":
        """Single direction with unit weight; used to score a realised
        interferer position."""
        return cls(np.array([[theta, phi]]), np.array([1.0]))


def build_grid(belief: InterfererBelief, samples_per_axis: int, kappa: int) -> NullSampleGrid:
    """Sample the belief on an endpoint-inclusive L x L grid over
    [mean - kappa sigma, mean + kappa sigma] per axis.

    Weights are the raw density values at the sample directions. Degenerate
    cases collapse instead of erroring: a point-mass belief (both sigmas
    zero) or L = 1 yields a single sample of weight one. A zero sigma puts
    every sample of its axis on the mean and contributes no density
    factor. kappa = 0 also puts every sample on the mean, but each axis
    with sigma > 0 still contributes its peak density 1/(sqrt(2 pi) sigma):
    with both sigmas positive the grid holds L^2 copies of the mean
    direction, each weighted 1/(2 pi sigma_theta sigma_phi).

    Raises ``OverflowError`` when a sigma is so small that a density
    value overflows, and ``FloatingPointError`` (a ``_TinyDensityError``)
    when one is so large that a density value underflows to 0.
    """
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if samples_per_axis == 1 or (belief.sigma_theta == 0.0 and belief.sigma_phi == 0.0):
        return NullSampleGrid.point(belief.mean_theta, belief.mean_phi)

    count = samples_per_axis
    # mean + symmetric offsets keeps the centre sample of an odd grid exact,
    # and every sample of a kappa = 0 or zero-sigma axis on the mean
    theta_span = kappa * belief.sigma_theta
    phi_span = kappa * belief.sigma_phi
    theta_grid, phi_grid = np.meshgrid(
        belief.mean_theta + np.linspace(-theta_span, theta_span, count),
        belief.mean_phi + np.linspace(-phi_span, phi_span, count),
        indexing="ij",
    )
    directions = np.column_stack([theta_grid.ravel(), phi_grid.ravel()])

    weights = np.ones(count * count)
    for axis_values, mean, sigma in (
        (directions[:, 0], belief.mean_theta, belief.sigma_theta),
        (directions[:, 1], belief.mean_phi, belief.sigma_phi),
    ):
        if sigma > 0.0:
            z = (axis_values - mean) / sigma
            with np.errstate(over="ignore"):  # checked below
                weights = weights * np.exp(-0.5 * z**2) / (math.sqrt(2.0 * math.pi) * sigma)
    if not np.isfinite(weights).all():
        raise OverflowError("the grid's density overflows")
    if not (weights > 0.0).all():
        raise _TinyDensityError("the grid's density underflows to 0")
    return NullSampleGrid(directions, weights)


def weighted_interferer_gain(arr: ArrayModel, w, grid: NullSampleGrid) -> float:
    """Probability-weighted array gain over the grid,
    sum_z p_z * G(theta_z, phi_z)."""
    return float(grid.weights @ gains(arr, w, grid.thetas, grid.phis))

