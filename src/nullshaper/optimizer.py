"""Closed-form maximisation of the mitigation-effectiveness ratio.

The objective is the mean user-directed gain divided by the mean
probability-weighted interferer gain. With ``s`` the steering row toward
a direction, both are Hermitian quadratic forms in the weights,

    psi(w) = w^H A w / w^H B w,   A = mean_k s_k^H s_k,
                                  B = sum_z p_z s_z^H s_z / J,

where the weights p_z of each interferer's grid from
``uncertainty.build_grid`` sum to one, so B is the mean over interferers
of the expected steering outer product and its trace is the element
count whatever sigma_s is. The maximiser is the principal generalized
eigenvector of (A, B), so no search is needed. B has rank at most the
number of grid directions, usually fewer than the elements, so it is
diagonally loaded first: the
design is the loaded-covariance beamformer of Cox, Zeskind & Owen
("Robust adaptive beamforming", IEEE T-ASSP 1987) and Carlson
("Covariance matrix estimation errors and diagonal loading", IEEE T-AES
1988). A = U^H U / K has rank K, the number of users, so the eigenvector
lies in the span of (B + delta I)^-1 U^H: with c the top eigenvector of
the K x K form U (B + delta I)^-1 U^H, the design is
``(B + delta I)^-1 U^H c`` (Van Trees, *Optimum Array Processing*, 2002,
sec. 6.2). One user gives the familiar ``(B + delta I)^-1 a^H``; without
interferers B is the identity and the result is the matched beam.

The objective keeps the directions of the users and of the shaping grid,
and the few user steering rows for the design. Every response power, user
and grid, comes from ``array.gains``, and the design adds B up over
blocks of grid directions, so memory does not grow with the grid. Several
designs that share their users, such as a sweep's sigma_s values, share
their user steering rows; each is then designed alone, with one
``solve`` and one ``eigh``.

Weights are returned at unit norm, which meets the power budget
``||w||^2 <= 1`` with equality; the ratio is scale invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array import (
    ArrayModel,
    Direction,
    WeightVector,
    _direction_blocks,
    _weight_values,
    gains,
)
from .uncertainty import NullSampleGrid

__all__ = [
    "EPS_DEN",
    "LOADING",
    "Objective",
    "OptimizationResult",
    "mitigation_effectiveness",
    "optimize",
]

#: Floor inside log10, so a zero design value still has a finite dB figure.
_LOG_FLOOR = 1e-300

#: Floor of the effectiveness denominator, so a perfect null or all-zero
#: weights still give a finite ratio.
EPS_DEN = 1e-18

#: Diagonal loading of the interferer form, relative to its mean
#: eigenvalue tr(B)/N. It only has to keep B + delta I positive definite;
#: heavier loading fills the nulls (1e-6 costs about 20 dB of realised
#: effectiveness on the demo LEO sweep), so rerun that sweep before
#: raising it.
LOADING = 1e-8


class Objective:
    """Mitigation effectiveness for fixed users and interferer grids.

    Keeps the user directions, with their steering rows for ``optimize``'s
    design, and the concatenated grid directions with their weights.
    ``array.gains`` scores both, in bounded blocks, on every evaluation.
    An empty grid list disables the interferers (denominator pinned to 1),
    which turns the objective into plain mean user gain.
    """

    #: ``EPS_DEN``, also readable on the objective: bench/tracing.py reads it.
    eps_den = EPS_DEN

    def __init__(
        self,
        array: ArrayModel,
        user_directions: list[Direction] | tuple[Direction, ...],
        interferer_grids: list[NullSampleGrid] | tuple[NullSampleGrid, ...] = (),
    ):
        if len(user_directions) < 1:
            raise ValueError("need at least one user direction")
        self.array = array
        self.user_directions = tuple(user_directions)
        self.interferer_grids = tuple(interferer_grids)

        self._user_angles = np.array([(d.theta, d.phi) for d in self.user_directions]).T
        self._user_steering = array.steering(*self._user_angles)
        self._grid_directions, self._grid_weights = _pooled(self.interferer_grids)

    @property
    def user_count(self) -> int:
        return len(self.user_directions)

    @property
    def interferer_count(self) -> int:
        return len(self.interferer_grids)

    def _row(self, w) -> np.ndarray:
        """One weight vector as a (1, size) stack."""
        return _weight_values(w, self.array.size).reshape(1, -1)

    def _terms(self, weights) -> tuple[np.ndarray, np.ndarray | None]:
        """Mean user gain and weighted interferer gain (None without
        interferers) of each row of an (S, size) weight stack."""
        rows = _weight_values(weights, self.array.size).reshape(-1, self.array.size)
        # each row's K user gains and Z grid gains as contiguous rows, reduced
        # row by row, so a row of a stack rounds as it does alone
        numerator = np.ascontiguousarray(gains(self.array, rows, *self._user_angles).T).mean(axis=1)
        if self._grid_directions is None:
            return numerator, None
        grid = self._grid_directions
        power = gains(self.array, rows, grid[:, 0], grid[:, 1])
        return numerator, np.vecdot(np.ascontiguousarray(power.T), self._grid_weights)

    def user_gain_mean(self, w) -> float:
        return float(np.mean(gains(self.array, w, *self._user_angles)))

    def interferer_gain_mean(self, w) -> float:
        """Mean over interferers of the probability-weighted gain."""
        if self._grid_directions is None:
            raise ValueError("objective has no interferers")
        return float(self._terms(self._row(w))[1][0])

    def value(self, w) -> float:
        return float(self.value_batch(self._row(w))[0])

    def value_batch(self, weights: np.ndarray) -> np.ndarray:
        """Objective for a (S, size) batch of complex weight rows."""
        numerator, denominator = self._terms(weights)
        if denominator is None:
            return numerator
        return numerator / np.maximum(denominator, EPS_DEN)


def mitigation_effectiveness(obj: Objective, w) -> float:
    """Ratio of mean user gain to mean weighted interferer gain.

    The denominator is clamped at ``EPS_DEN``, so a perfect null yields
    numerator / EPS_DEN and an all-zero weight vector yields 0.
    """
    return obj.value(w)


@dataclass(frozen=True)
class OptimizationResult:
    """Designed weights plus diagnostics.

    ``loading`` is the diagonal load delta added to the interferer form.
    ``clamped`` is true when the weighted interferer gain of the design
    sits at or below ``EPS_DEN``, so ``psi`` reports the clamp rather than
    the null depth. ``psi_db`` is ``psi`` in dB; ``trace`` holds it, one
    entry, and ``evaluations`` is 1 (one eigen-solve).
    """

    weights: WeightVector
    psi: float
    loading: float
    clamped: bool

    @property
    def psi_db(self) -> float:
        return 10.0 * math.log10(max(self.psi, _LOG_FLOOR))

    @property
    def trace(self) -> tuple[float, ...]:
        return (self.psi_db,)

    @property
    def evaluations(self) -> int:
        return 1


def _pooled(grids) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Concatenated directions and weights of interferer grids, the weights
    divided by the number of grids; (None, None) without grids."""
    if not grids:
        return None, None
    return np.concatenate([g.directions for g in grids]), np.concatenate([g.weights for g in grids]) / len(grids)


def _load_form(array: ArrayModel, grids, form: np.ndarray) -> float:
    """Fill the (size, size) ``form`` with B + delta I for one design's
    interferer grids, the identity plus delta I without grids, and return
    delta. B is added up over blocks of about ``_BLOCK_BYTES`` of grid
    steering, so no whole grid steering matrix is built."""
    size = array.size
    directions, weights = _pooled(grids)
    form[...] = 0.0
    if directions is None:
        form[np.diag_indices(size)] = 1.0
    else:
        for block in _direction_blocks(weights.size, size):
            grid = array.steering(directions[block, 0], directions[block, 1])
            form += (grid.conj().T * weights[block]) @ grid
    loading = LOADING * float(np.trace(form).real) / size
    form[np.diag_indices(size)] += loading
    return loading


def _designs(array: ArrayModel, users: np.ndarray, grid_lists):
    """Yield (weights, loading) for each interferer grid list of
    ``grid_lists``, in order, all designed against the same (K, size) user
    steering rows ``users``: one loaded form, one ``solve`` and one
    ``eigh`` per list, the lists read lazily. The weights of a grid from
    ``build_grid`` sum to one, so the form's trace is the element count
    and no sigma_s takes the design out of double precision.
    """
    form = np.empty((array.size, array.size), dtype=complex)
    for grids in grid_lists:
        loading = _load_form(array, grids, form)
        solved = np.linalg.solve(form, users.conj().T)
        _, vectors = np.linalg.eigh(users @ solved)
        best = solved @ vectors[:, -1]
        yield WeightVector(best / np.linalg.norm(best)), loading


def optimize(obj: Objective) -> OptimizationResult:
    """Weights maximising w^H A w / w^H (B + delta I) w, at unit norm.

    With U the (K, size) user steering rows, one linear solve gives
    X = (B + delta I)^-1 U^H, ``eigh`` finds the top eigenvector c of the
    K x K form U X, and w = X c. B is added up over blocks of about
    ``array._BLOCK_BYTES`` of grid steering, so no whole grid steering
    matrix is built, and the design is scored with one more blocked pass
    over the grid. This is the design a sweep makes for each sigma_s,
    plus that scoring pass. Deterministic.
    """
    weights, loading = next(_designs(obj.array, obj._user_steering, [obj.interferer_grids]))
    numerator, denominator = obj._terms(weights)
    clamped = denominator is not None and bool(denominator[0] <= EPS_DEN)
    psi = float(numerator[0] if denominator is None else numerator[0] / max(denominator[0], EPS_DEN))
    return OptimizationResult(weights, psi, loading, clamped)
