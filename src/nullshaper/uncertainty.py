"""Statistical model of an interferer's angular position and the sample grid
used to shape nulls over its uncertainty region.

The interferer's (theta, phi) direction is believed to follow an
uncorrelated bivariate normal. Null shaping samples that belief on an
L x L grid spanning +/- kappa standard deviations per axis and weights
each sample direction by its share of the belief there, so the optimizer
suppresses gain where the interferer is most likely to be. The weights
sum to one: the grid is a quadrature rule of the belief, and a weighted
gain is the expected gain under it, comparable across sigma.
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
        """Single direction with unit weight: ``build_grid``'s grid of a
        point-mass belief or of L = 1."""
        return cls(np.array([[theta, phi]]), np.array([1.0]))


def build_grid(belief: InterfererBelief, samples_per_axis: int, kappa: int) -> NullSampleGrid:
    """Sample the belief on an endpoint-inclusive L x L grid over
    [mean - kappa sigma, mean + kappa sigma] per axis.

    The grid is the product of two axis rules. Each axis has L nodes and
    their factors exp(-z^2 / 2), z a node's offset from the mean in
    standard deviations. The L^2 directions pair each theta node with each
    phi node, theta varying slowest; each weighs the product of its two
    factors over the sum of all products, so the weights sum to one
    whatever the sigmas. A point-mass belief (both sigmas zero) or L = 1
    yields a single sample of weight one. A zero sigma puts its axis's
    nodes on the mean, with factors of one; kappa = 0 puts every node on
    the mean, so the grid holds L^2 copies of the mean direction, each
    weighted 1 / L^2: the point mass at the mean split into equal parts.

    The grid is laid out in (theta, phi) and not kept on the sky: a wide
    sigma takes theta outside [0, pi/2], and samples then alias, steering
    to the same direction cosines (u, v). On ``leo_capacity.json`` (L = 3,
    kappa = 1), sigma_s = 90 deg leaves 7 distinct (u, v) of 9 samples,
    theta running from -1.06 to 2.08 rad, and 180 deg leaves 2, from -2.63
    to 3.65 rad; both designs report a clamped psi, as if the position
    were nearly certain. Nothing checks for this.
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
    rules = []  # each axis's nodes and their Gaussian factors
    for mean, sigma in ((belief.mean_theta, belief.sigma_theta), (belief.mean_phi, belief.sigma_phi)):
        nodes = mean + np.linspace(-kappa * sigma, kappa * sigma, count)
        factors = np.exp(-0.5 * ((nodes - mean) / sigma)**2) if sigma > 0.0 else np.ones(count)
        rules.append((nodes, factors))
    (thetas, theta_factors), (phis, phi_factors) = rules
    directions = np.column_stack([np.repeat(thetas, count), np.tile(phis, count)])
    weights = np.outer(theta_factors, phi_factors).ravel()
    return NullSampleGrid(directions, weights / weights.sum())


def weighted_interferer_gain(arr: ArrayModel, w, grid: NullSampleGrid) -> float:
    """Probability-weighted array gain over the grid,
    sum_z p_z * G(theta_z, phi_z). On a grid from :func:`build_grid`,
    whose weights sum to one, this is the gain expected under the belief."""
    return float(grid.weights @ gains(arr, w, grid.thetas, grid.phis))

