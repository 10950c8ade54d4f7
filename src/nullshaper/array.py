"""Uniform planar array geometry, complex weights, and gain evaluation.

The array lies in the local horizontal plane of a nadir-pointing satellite:
element rows step along the local east axis with spacing ``dx``, columns
along north with spacing ``dy``, and boresight points straight down.
Directions are (theta, phi) with theta the polar angle off boresight and
phi the azimuth measured from east toward north.

The response of weight vector ``w`` toward (theta, phi) is

    AF(theta, phi) = sum_{m,n} w[m,n] * exp(-i 2 pi / wl *
                     (m dx sin(theta) cos(phi) + n dy sin(theta) sin(phi)))

with weights flattened so the second index varies fastest
(``w[m, n] -> w[m * n_count + n]``, the ndarray ``ravel`` order). The
phasor factors into a row and a column phasor, so with W the weights as an
m x n matrix, r_m = exp(-i 2 pi / wl m dx u) and c_n the same along n,
AF = sum_m r_m sum_n W[m, n] c_n (Van Trees, *Optimum Array Processing*,
2002, sec. 4.1): ``gains`` scores through this bilinear form and never
forms the m n phasors, which only weight design and the matched beam
need from ``ArrayModel.steering``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayModel",
    "Direction",
    "WeightVector",
    "gain",
    "gains",
    "pattern_cut",
    "null_width",
]

SPEED_OF_LIGHT = 299_792_458.0

#: Export floor replacing -inf when a pattern sample is exactly zero.
DEFAULT_FLOOR_DB = -100.0

#: Complex bytes built per direction block wherever directions are
#: reduced to response power, counting every per-direction temporary (the
#: row and column powers, the copy handed to BLAS and the partial sums), so
#: memory stays flat in the number of directions. Weight design sizes its
#: blocks of grid steering rows from it, and sweeps their groups of sigma_i
#: points.
_BLOCK_BYTES = 1 << 20

#: Most elements an array may have (32 x 32): weight design builds N x N
#: complex forms, 16 MB at this cap.
MAX_ELEMENTS = 1024


@dataclass(frozen=True)
class ArrayModel:
    """Uniform planar array of m x n isotropic elements."""

    m: int
    n: int
    dx: float
    dy: float
    wavelength: float

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("element counts must be >= 1")
        if self.m * self.n > MAX_ELEMENTS:
            raise ValueError(f"array has {self.m * self.n} elements, more than {MAX_ELEMENTS}")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.dx, self.dy, self.wavelength)):
            raise ValueError("spacings and wavelength must be positive and finite")

    @classmethod
    def half_wavelength(cls, m: int, n: int, wavelength: float) -> "ArrayModel":
        return cls(m, n, wavelength / 2.0, wavelength / 2.0, wavelength)

    @classmethod
    def from_frequency(
        cls,
        m: int,
        n: int,
        frequency_hz: float,
        dx_over_wl: float = 0.5,
        dy_over_wl: float = 0.5,
    ) -> "ArrayModel":
        if not (math.isfinite(frequency_hz) and frequency_hz > 0.0):
            raise ValueError(f"frequency must be positive and finite, got {frequency_hz!r}")
        wl = SPEED_OF_LIGHT / frequency_hz
        return cls(m, n, dx_over_wl * wl, dy_over_wl * wl, wl)

    @property
    def size(self) -> int:
        return self.m * self.n

    def steering(self, theta, phi) -> np.ndarray:
        """Steering phasors exp(-i k . r) for one or many directions.

        Scalars give a (size,) vector; arrays of P directions give (P, size).
        The phasor is the Kronecker product of a row and a column Vandermonde
        vector, so each direction takes one complex exponential per axis,
        z = exp(-i k d u) with d the axis spacing and u the direction cosine
        along it; ``_powers`` raises z to the element indices, and the two
        factors are multiplied out, rows first, into a C-ordered array in
        ravel order, one contiguous phasor row per direction. Every phasor
        depends on its own direction only, not on P.
        """
        theta_arr = np.asarray(theta, dtype=float)
        phi_arr = np.asarray(phi, dtype=float)
        scalar = theta_arr.ndim == 0 and phi_arr.ndim == 0
        theta_arr, phi_arr = np.atleast_1d(theta_arr), np.atleast_1d(phi_arr)
        sin_theta = np.sin(theta_arr)
        minus_ik = -2j * np.pi / self.wavelength
        rows = _powers(minus_ik * self.dx * (sin_theta * np.cos(phi_arr)), self.m)
        cols = _powers(minus_ik * self.dy * (sin_theta * np.sin(phi_arr)), self.n)
        # rows first: the complex multiply does not round c * r as r * c
        phasors = np.multiply(rows[:, :, None], cols[:, None, :], order="C")
        phasors = phasors.reshape(rows.shape[0], self.size)
        return phasors[0] if scalar else phasors


def _powers(phase: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """(P, count) powers z^0 .. z^(count-1) of the P phasors z = exp(phase),
    by doubling: the block z^k .. z^(2k-1) is z^0 .. z^(k-1) times z^k, and
    z^k is then squared, so ceil(log2(count)) multiplies build every power,
    each a product of at most that many factors. The powers are built in a
    (count, P) array, ``out`` when given, one 1-D multiply over all P
    directions per row (a 2-D multiply goes through numpy's ufunc buffer), and
    returned as its (P, count) view; a one-element axis is exactly 1 and
    takes no exponential."""
    if out is None:
        out = np.empty((count, phase.size), dtype=complex)
    out[0] = 1.0
    if count > 1:
        step, k = np.exp(phase), 1
        while k < count:
            for row in range(min(k, count - k)):
                np.multiply(out[row], step, out=out[k + row])
            step, k = step * step, 2 * k
    return out.T


@dataclass(frozen=True)
class Direction:
    """Polar angle off boresight (theta in [0, pi/2]) and azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("non-finite direction")
        if not -1e-15 <= self.theta <= math.pi / 2 + 1e-15:
            raise ValueError(f"theta {self.theta} outside [0, pi/2]")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi / 2))
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "Direction":
        return cls(math.radians(theta_deg), math.radians(phi_deg))


def _weight_values(w, size: int) -> np.ndarray:
    """The complex values of a WeightVector or any array-like: an (S, size)
    stack of weight rows is kept as is, anything else (a column, say) is
    flattened to one (size,) vector; raises ValueError when a row is not
    ``size`` long."""
    values = np.asarray(getattr(w, "values", w), dtype=complex)
    if values.ndim != 2 or values.shape[1] != size:
        values = values.reshape(-1)
    if values.shape[-1] != size:
        raise ValueError(f"weight length {values.shape[-1]} != array size {size}")
    return values


@dataclass(frozen=True)
class WeightVector:
    """Complex element weights with the transmit-power cap ||w||^2 <= 1."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).reshape(-1).copy()
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("non-finite weight")
        if np.vdot(values, values).real > 1.0 + 1e-9:
            raise ValueError("weight vector exceeds the unit power budget")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, size: int) -> "WeightVector":
        return cls(np.full(size, 1.0 / math.sqrt(size), dtype=complex))

    @classmethod
    def matched(cls, arr: ArrayModel, d: Direction) -> "WeightVector":
        """Unit-norm conjugate beamformer, the gain-optimal weights toward d."""
        steer = arr.steering(d.theta, d.phi)
        return cls(np.conj(steer) / np.linalg.norm(steer))

    def amplitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def phases(self) -> np.ndarray:
        """Element phases canonicalised to [0, 2*pi)."""
        return np.angle(self.values) % (2.0 * math.pi)


def _direction_blocks(count: int, size: int):
    """Slices that cover ``count`` directions in order, each holding about
    ``_BLOCK_BYTES`` of complex values at ``size`` values per direction:
    ``gains`` counts both axes' powers, m + n, the contiguous copy of the
    longer axis's and one weight row's partial sums over it, another
    m + n, and weight design its grid steering rows, m n."""
    step = max(1, _BLOCK_BYTES // (16 * size))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def _response_power(
    arr: ArrayModel, rows: np.ndarray, theta: np.ndarray, phi: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """|s . w|^2 for P directions and (S, size) C-ordered weight rows: (P, S).

    A weight row W, read as an m x n matrix, responds with
    sum_m r_m sum_n W[m, n] c_n, so no m n phasor is formed. Per weight
    row, one BLAS product contracts the longer axis: its powers, a
    C-ordered (P, long) matrix, times W (or W^T). One ``vecdot`` per
    direction over the shorter axis finishes the sum; it conjugates its
    first operand, so that axis's powers are built from +phase. Both axes'
    powers, the operand and the product are written into ``work``, a flat
    complex buffer of at least 2 P (m + n) values.

    Every entry rounds the same in any block, next to any weight rows:
    each weight row has its own product, whose rows do not depend on P
    once P >= 2 (a lone direction is doubled, off BLAS's matrix-vector
    path), and the shorter axis's powers stay a strided view, so every
    dot takes BLAS's strided path. A (P, long) F-ordered product, or one
    with directions as its columns, would round differently as P
    changes. Null depths are cancellation-limited.
    """
    count = theta.size
    if count == 1:
        theta, phi = np.repeat(theta, 2), np.repeat(phi, 2)
    p = theta.size
    sin_theta = np.sin(theta)
    k = 2.0 * np.pi / arr.wavelength
    x = k * arr.dx * (sin_theta * np.cos(phi))
    y = k * arr.dy * (sin_theta * np.sin(phi))
    matrices = rows.reshape(-1, arr.m, arr.n)
    long, short = max(arr.m, arr.n), min(arr.m, arr.n)
    if arr.m < arr.n:  # x runs along the longer axis, y along the shorter
        x, y = y, x
        matrices = matrices.transpose(0, 2, 1)
    ends = np.cumsum([short, long, long]) * p
    shorter, longer, operand, product = np.split(work[: 2 * p * (long + short)], ends)
    shorter = _powers(1j * y, short, shorter.reshape(short, p))
    operand = operand.reshape(p, long)
    operand[...] = _powers(-1j * x, long, longer.reshape(long, p))
    product = product.reshape(p, short)
    power = np.empty((count, len(matrices)))
    for s, matrix in enumerate(matrices):
        response = np.vecdot(shorter, np.matmul(operand, matrix, out=product))[:count]
        power[:, s] = response.real**2 + response.imag**2
    return power


def gains(arr: ArrayModel, w, theta, phi) -> np.ndarray:
    """Power gain |s . w|^2 toward many directions at once.

    ``w`` is one weight vector, giving a (D,) result, or a (S, size) stack
    of weight rows, giving (D, S). theta and phi broadcast together and are
    flattened into the D directions; scalars drop that axis instead. The
    directions are scored in blocks of about ``_BLOCK_BYTES`` of axis
    powers and partial sums each, all written into one workspace per call,
    so memory does not grow with D. Every block, the scalar case included,
    is reduced by ``_response_power``, one weight row at a time, so neither
    the blocking nor the rows scored beside a row change a bit.
    """
    values = _weight_values(w, arr.size)
    # C order, so a row's matrix is laid out alike whatever stack holds it
    rows = np.ascontiguousarray(np.atleast_2d(values))
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    scalar = theta.ndim == 0
    theta, phi = theta.reshape(-1), phi.reshape(-1)
    power = np.empty((theta.size, rows.shape[0]))
    size = 2 * (arr.m + arr.n)
    blocks = list(_direction_blocks(theta.size, size))
    # sized for the first block, the longest; a lone direction is scored twice
    work = np.empty(max(2, blocks[0].stop if blocks else 0) * size, dtype=complex)
    for block in blocks:
        power[block] = _response_power(arr, rows, theta[block], phi[block], work)
    if values.ndim == 1:
        power = power[:, 0]
    return power[0] if scalar else power


def gain(arr: ArrayModel, w, d: Direction) -> float:
    """Power gain toward one direction."""
    return gains(arr, w, d.theta, d.phi).item()


def pattern_cut(
    arr: ArrayModel, w, *, phi_cut: float, samples: int = 3601
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the gain pattern along the principal cut at azimuth ``phi_cut``.

    Theta sweeps [-pi/2, pi/2], negative theta meaning azimuth phi_cut + pi.
    Returns (angles_rad, gains_db) with the dB values clamped at
    ``DEFAULT_FLOOR_DB``.

    Parameters
    ----------
    samples : int
        Number of sample points, at least 2.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    angles = np.linspace(-np.pi / 2, np.pi / 2, samples)
    level_db = gains(arr, w, angles, float(phi_cut))
    with np.errstate(divide="ignore"):
        np.log10(level_db, out=level_db)
    level_db *= 10.0
    return angles, np.maximum(level_db, DEFAULT_FLOOR_DB, out=level_db)


def null_width(
    angles: np.ndarray, gains_db: np.ndarray, center: float, depth_db: float = 40.0
) -> float:
    """Width of the contiguous region around ``center`` that sits at least
    ``depth_db`` below the pattern maximum; 0.0 if the centre sample is not
    that deep."""
    angles = np.asarray(angles, dtype=float)
    gains_db = np.asarray(gains_db, dtype=float)
    threshold = gains_db.max() - depth_db
    idx = int(np.argmin(np.abs(angles - center)))
    if gains_db[idx] > threshold:
        return 0.0
    lo = idx
    while lo > 0 and gains_db[lo - 1] <= threshold:
        lo -= 1
    hi = idx
    while hi < angles.size - 1 and gains_db[hi + 1] <= threshold:
        hi += 1
    return float(angles[hi] - angles[lo])
