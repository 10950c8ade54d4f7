"""Closed-form maximisation of the mitigation-effectiveness ratio.

The objective is the mean user-directed gain divided by the mean
probability-weighted interferer gain. With ``s`` the steering row toward
a direction, both are Hermitian quadratic forms in the weights,

    psi(w) = w^H A w / w^H B w,   A = mean_k s_k^H s_k,
                                  B = sum_z p_z s_z^H s_z / J,

so the maximiser is the principal generalized eigenvector of (A, B), and
no search is needed. B has rank at most the number of grid directions,
usually fewer than the elements, so it is diagonally loaded first: the
design is the loaded-covariance beamformer of Cox, Zeskind & Owen
("Robust adaptive beamforming", IEEE T-ASSP 1987) and Carlson
("Covariance matrix estimation errors and diagonal loading", IEEE T-AES
1988). One user gives the familiar ``(B + delta I)^-1 a^H``; without
interferers B is the identity and the result is the matched beam.

Weights are returned at unit norm, which meets the power budget
``||w||^2 <= 1`` with equality; the ratio is scale invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array import ArrayModel, Direction, WeightVector, _weight_values
from .uncertainty import NullSampleGrid

__all__ = [
    "LOADING",
    "Objective",
    "OptimizationResult",
    "mitigation_effectiveness",
    "optimize",
]

#: Floor inside log10, so a zero design value still has a finite dB figure.
_LOG_FLOOR = 1e-300

#: Diagonal loading of the interferer form, relative to its mean
#: eigenvalue tr(B)/N. It only has to keep B + delta I positive definite;
#: heavier loading fills the nulls (1e-6 costs about 20 dB of realised
#: effectiveness on the demo LEO sweep), so rerun that sweep before
#: raising it.
LOADING = 1e-8


def _response_power(steering: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """|s . w|^2 for (D, size) steering rows and (S, size) weight rows: (D, S).

    Summed elementwise over the element axis, not by a matrix product:
    BLAS picks its kernel by shape, so a product would round each entry
    differently depending on how many rows are scored together. Null
    depths are cancellation-limited, so that rounding would show as a
    different value for the same direction in a design grid and in a
    sweep batch.
    """
    return np.abs(np.sum(steering[:, np.newaxis, :] * weights[np.newaxis, :, :], axis=-1)) ** 2


class Objective:
    """Mitigation effectiveness for fixed users and interferer grids.

    Steering vectors for every evaluation direction are precomputed once.
    An empty grid list disables the interferers (denominator pinned to 1),
    which turns the objective into plain mean user gain.
    """

    def __init__(
        self,
        array: ArrayModel,
        user_directions: list[Direction] | tuple[Direction, ...],
        interferer_grids: list[NullSampleGrid] | tuple[NullSampleGrid, ...] = (),
        eps_den: float = 1e-18,
    ):
        if len(user_directions) < 1:
            raise ValueError("need at least one user direction")
        if eps_den <= 0.0:
            raise ValueError("eps_den must be positive")
        self.array = array
        self.user_directions = tuple(user_directions)
        self.interferer_grids = tuple(interferer_grids)
        self.eps_den = float(eps_den)

        self._user_steering = array.steering(
            np.array([d.theta for d in self.user_directions]),
            np.array([d.phi for d in self.user_directions]),
        )
        if self.interferer_grids:
            j_count = len(self.interferer_grids)
            self._grid_steering = np.vstack(
                [array.steering(g.thetas, g.phis) for g in self.interferer_grids]
            )
            self._grid_weights = np.concatenate(
                [g.weights for g in self.interferer_grids]
            ) / j_count
        else:
            self._grid_steering = None
            self._grid_weights = None

    @property
    def user_count(self) -> int:
        return len(self.user_directions)

    @property
    def interferer_count(self) -> int:
        return len(self.interferer_grids)

    def user_gain_mean(self, w) -> float:
        row = _weight_values(w, self.array.size)[np.newaxis, :]
        return float(np.mean(_response_power(self._user_steering, row)))

    def interferer_gain_mean(self, w) -> float:
        """Mean over interferers of the probability-weighted gain."""
        if self._grid_steering is None:
            raise ValueError("objective has no interferers")
        row = _weight_values(w, self.array.size)[np.newaxis, :]
        return float(self._grid_weights @ _response_power(self._grid_steering, row)[:, 0])

    def value(self, w) -> float:
        values = _weight_values(w, self.array.size)
        return float(self.value_batch(values[np.newaxis, :])[0])

    def value_batch(self, weights: np.ndarray) -> np.ndarray:
        """Objective for a (S, size) batch of complex weight rows."""
        numerator = np.mean(_response_power(self._user_steering, weights), axis=0)
        if self._grid_steering is None:
            return numerator
        denominator = self._grid_weights @ _response_power(self._grid_steering, weights)
        return numerator / np.maximum(denominator, self.eps_den)


def mitigation_effectiveness(obj: Objective, w) -> float:
    """Ratio of mean user gain to mean weighted interferer gain.

    The denominator is clamped at ``obj.eps_den``, so a perfect null yields
    numerator / eps_den and an all-zero weight vector yields 0.
    """
    return obj.value(w)


@dataclass(frozen=True)
class OptimizationResult:
    """Designed weights plus diagnostics.

    ``trace`` holds the design value in dB, one entry, and ``evaluations``
    is 1 (one eigen-solve). ``loading`` is the diagonal load delta added to
    the interferer form. ``clamped`` is true when the weighted interferer
    gain of the design sits at or below ``eps_den``, so ``psi`` reports the
    clamp rather than the null depth.
    """

    weights: WeightVector
    psi: float
    psi_db: float
    trace: tuple[float, ...]
    evaluations: int
    loading: float
    clamped: bool


def optimize(obj: Objective) -> OptimizationResult:
    """Weights maximising w^H A w / w^H (B + delta I) w, at unit norm.

    B + delta I = L L^H is Cholesky-factored, the top eigenvector v of
    the whitened user form L^-1 A L^-H is found with ``eigh``, and
    w = L^-H v. Deterministic.
    """
    size = obj.array.size
    users = obj._user_steering
    user_form = users.conj().T @ users / obj.user_count
    if obj._grid_steering is None:
        interferer_form = np.eye(size, dtype=complex)
    else:
        grid = obj._grid_steering
        interferer_form = (grid.conj().T * obj._grid_weights) @ grid
    loading = LOADING * float(np.trace(interferer_form).real) / size
    interferer_form[np.diag_indices(size)] += loading
    chol = np.linalg.cholesky(interferer_form)
    half = np.linalg.solve(chol, user_form)
    whitened = np.linalg.solve(chol, half.conj().T)
    _, vectors = np.linalg.eigh(whitened)
    best = np.linalg.solve(chol.conj().T, vectors[:, -1])
    weights = WeightVector(best / np.linalg.norm(best))

    psi = obj.value(weights)
    psi_db = 10.0 * math.log10(max(psi, _LOG_FLOOR))
    clamped = bool(obj.interferer_count) and obj.interferer_gain_mean(weights) <= obj.eps_den
    return OptimizationResult(
        weights=weights,
        psi=psi,
        psi_db=psi_db,
        trace=(psi_db,),
        evaluations=1,
        loading=loading,
        clamped=clamped,
    )
