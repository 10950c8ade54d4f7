"""Coordinate transforms between satellite-relative AER frames and Earth-fixed
geodetic coordinates on a reference ellipsoid.

Conventions used throughout:

* Angles are radians and distances are metres; degrees appear only at I/O
  boundaries.
* AER azimuth is measured in the local horizontal plane from east toward
  north, elevation from the horizontal plane (so a ray pointing straight
  down at the ground has elevation -pi/2).
* NED is the local north-east-down tangent frame at the observer.
* ECEF X points at (lon 0, lat 0), Y at (lon 90E, lat 0), Z at the north
  pole.

Scalar entry points accept and return small frozen value types; the
``*_arrays`` kernels operate on plain ndarrays and carry the heavy loops.
Where a scalar entry point wraps a kernel it runs a one-element batch, so
a batch gives, element by element, the bits of one-at-a-time calls.

Look rays are intersected with the ellipsoid in batches, and a ray that
misses comes back as NaN. :func:`ground_footprint` and scalar calls of
:func:`angular_deviation_to_ground_distance` turn a miss into
:class:`RayMissError`; array calls of the latter keep the NaN, so a table
keeps one row per deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipsoidParams",
    "WGS84",
    "GeodeticPosition",
    "AerPosition",
    "EcefPosition",
    "ConvergenceError",
    "RayMissError",
    "prime_vertical_radius",
    "geodetic_to_ecef",
    "geodetic_to_ecef_arrays",
    "ned_to_ecef_rotation",
    "ecef_to_geodetic",
    "ecef_to_geodetic_arrays",
    "ground_footprint",
    "angular_deviation_to_ground_distance",
]

TWO_PI = 2.0 * math.pi

# Latitude iteration caps for the ECEF -> geodetic inverse. Convergence takes
# <= 6 iterations anywhere below 2000 km altitude; 15 is a generous bound.
LATITUDE_TOL_RAD = 1e-12
LATITUDE_MAX_ITER = 15


class ConvergenceError(RuntimeError):
    """Latitude refinement failed to converge; ``last`` holds the final iterate."""

    def __init__(self, message: str, last: "GeodeticPosition"):
        super().__init__(message)
        self.last = last


class RayMissError(ValueError):
    """A look ray does not intersect the ellipsoid."""


@dataclass(frozen=True)
class EllipsoidParams:
    """Reference ellipsoid: semi-axes, first eccentricity squared, mean radius."""

    semi_major: float
    semi_minor: float
    eccentricity_sq: float
    mean_radius: float

    def __post_init__(self):
        if not (0.0 < self.semi_minor < self.semi_major):
            raise ValueError("require 0 < semi_minor < semi_major")
        if self.mean_radius <= 0.0:
            raise ValueError("mean radius must be positive")
        implied = 1.0 - (self.semi_minor / self.semi_major) ** 2
        if abs(implied - self.eccentricity_sq) > 1e-12:
            raise ValueError("eccentricity_sq inconsistent with the semi-axes")

    @property
    def eccentricity(self) -> float:
        return math.sqrt(self.eccentricity_sq)


_WGS84_A = 6378137.0
_WGS84_E2 = 6.69437999014e-3

#: World Geodetic System 1984 ellipsoid. The semi-minor axis is derived from
#: (a, e^2) so the forward and inverse transforms share one exact datum.
WGS84 = EllipsoidParams(
    semi_major=_WGS84_A,
    semi_minor=_WGS84_A * math.sqrt(1.0 - _WGS84_E2),
    eccentricity_sq=_WGS84_E2,
    mean_radius=6371008.8,
)


def _wrap_longitude(lon: float) -> float:
    """Wrap to (-pi, pi]."""
    lon = math.fmod(lon, TWO_PI)
    if lon <= -math.pi:
        lon += TWO_PI
    elif lon > math.pi:
        lon -= TWO_PI
    return lon


@dataclass(frozen=True)
class GeodeticPosition:
    """Longitude, latitude (radians) and altitude above the ellipsoid (metres)."""

    longitude: float
    latitude: float
    altitude: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.longitude) and math.isfinite(self.latitude) and math.isfinite(self.altitude)):
            raise ValueError("non-finite geodetic component")
        if abs(self.latitude) > math.pi / 2 + 1e-15:
            raise ValueError(f"latitude {self.latitude} outside [-pi/2, pi/2]")
        if self.altitude <= -WGS84.semi_minor:
            raise ValueError("altitude below the ellipsoid centre region")
        object.__setattr__(self, "longitude", _wrap_longitude(self.longitude))

    @classmethod
    def from_degrees(cls, lon_deg: float, lat_deg: float, altitude_m: float = 0.0) -> "GeodeticPosition":
        return cls(math.radians(lon_deg), math.radians(lat_deg), altitude_m)

    @property
    def longitude_deg(self) -> float:
        return math.degrees(self.longitude)

    @property
    def latitude_deg(self) -> float:
        return math.degrees(self.latitude)


@dataclass(frozen=True)
class AerPosition:
    """Azimuth/elevation (radians) and slant range (metres) of a target.

    Azimuth is stored wrapped to [0, 2*pi); elevation must lie in
    [-pi/2, pi/2] and the range must be positive.
    """

    azimuth: float
    elevation: float
    srange: float

    def __post_init__(self):
        if not (math.isfinite(self.azimuth) and math.isfinite(self.elevation) and math.isfinite(self.srange)):
            raise ValueError("non-finite AER component")
        if not self.srange > 0.0:
            raise ValueError("range must be positive")
        if abs(self.elevation) > math.pi / 2 + 1e-15:
            raise ValueError("elevation outside [-pi/2, pi/2]")
        object.__setattr__(self, "azimuth", self.azimuth % TWO_PI)


@dataclass(frozen=True)
class EcefPosition:
    """Earth-centred Earth-fixed Cartesian position (metres)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("non-finite ECEF component")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def prime_vertical_radius(latitude, ell: EllipsoidParams = WGS84):
    """East-west radius of curvature of the ellipsoid at the given latitude.

    Ranges from the semi-major axis at the equator to a/sqrt(1-e^2) at the
    poles. Accepts scalars or ndarrays.
    """
    sin_lat = np.sin(latitude)
    return ell.semi_major / np.sqrt(1.0 - ell.eccentricity_sq * sin_lat * sin_lat)


def geodetic_to_ecef_arrays(lon, lat, alt, ell: EllipsoidParams = WGS84):
    """Vectorised geodetic -> ECEF transform; returns (x, y, z) arrays."""
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    alt = np.asarray(alt, dtype=float)
    rn = prime_vertical_radius(lat, ell)
    cos_lat = np.cos(lat)
    axial_ratio_sq = (ell.semi_minor / ell.semi_major) ** 2
    x = (rn + alt) * cos_lat * np.cos(lon)
    y = (rn + alt) * cos_lat * np.sin(lon)
    z = (axial_ratio_sq * rn + alt) * np.sin(lat)
    return x, y, z


def geodetic_to_ecef(p: GeodeticPosition, ell: EllipsoidParams = WGS84) -> EcefPosition:
    """Convert a geodetic position to ECEF coordinates."""
    x, y, z = geodetic_to_ecef_arrays(p.longitude, p.latitude, p.altitude, ell)
    return EcefPosition(float(x), float(y), float(z))


def ned_to_ecef_rotation(lon: float, lat: float) -> np.ndarray:
    """Rotation matrix taking NED components at (lon, lat) into ECEF.

    Columns are the local north, east and down unit vectors expressed in
    ECEF; the matrix is proper orthonormal (det = +1). Apply the transpose
    to go from ECEF displacements to NED.
    """
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    return np.array(
        [
            [-sin_lat * cos_lon, -sin_lon, -cos_lat * cos_lon],
            [-sin_lat * sin_lon, cos_lon, -cos_lat * sin_lon],
            [cos_lat, 0.0, -sin_lat],
        ]
    )


def ecef_to_geodetic_arrays(
    x,
    y,
    z,
    ell: EllipsoidParams = WGS84,
    tol: float = LATITUDE_TOL_RAD,
    max_iter: int = LATITUDE_MAX_ITER,
):
    """Vectorised ECEF -> geodetic inverse.

    The latitude starts from the geocentric value and is refined with the
    fixed-point update lat <- atan2(z + R_N e^2 sin(lat), hypot(x, y)), the
    altitude being recomputed alongside. Each element stops at its own first
    iterate that moves less than ``tol``, so a batch returns the same bits as
    element-by-element calls. Returns (lon, lat, alt, converged) where
    ``converged`` is a bool array.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    p = np.hypot(x, y)
    lon = np.arctan2(y, x)
    lat = np.arctan2(z, p)
    converged = np.zeros(np.shape(lat), dtype=bool)
    for _ in range(max_iter):
        rn = prime_vertical_radius(lat, ell)
        new_lat = np.arctan2(z + rn * ell.eccentricity_sq * np.sin(lat), p)
        settled = np.abs(new_lat - lat) < tol
        lat = np.where(converged, lat, new_lat)
        converged = converged | settled
        if np.all(converged):
            break
    rn = prime_vertical_radius(lat, ell)
    alt = p / np.cos(lat) - rn
    return lon, lat, alt, converged


def ecef_to_geodetic(
    p: EcefPosition,
    ell: EllipsoidParams = WGS84,
    tol: float = LATITUDE_TOL_RAD,
    max_iter: int = LATITUDE_MAX_ITER,
) -> GeodeticPosition:
    """Convert ECEF coordinates to geodetic, raising on non-convergence."""
    lon, lat, alt, ok = ecef_to_geodetic_arrays(p.x, p.y, p.z, ell, tol, max_iter)
    result = GeodeticPosition(float(lon), float(lat), float(alt))
    if not bool(np.all(ok)):
        raise ConvergenceError(
            f"latitude iteration did not reach {tol} rad in {max_iter} steps", result
        )
    return result


def _haversine_arrays(lon1, lat1, lon2, lat2, mean_radius):
    """Great-circle distance kernel over a sphere; broadcasts its arguments."""
    half_dlat = 0.5 * (lat2 - lat1)
    half_dlon = 0.5 * (lon2 - lon1)
    eta = np.sin(half_dlat) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(half_dlon) ** 2
    central = 2.0 * np.arctan2(np.sqrt(eta), np.sqrt(np.maximum(1.0 - eta, 0.0)))
    return mean_radius * central


def _ray_ranges(origin, direction, ell: EllipsoidParams):
    """Ranges from one ECEF ``origin`` along each ray of ``direction`` (an
    (x, y, z) triple of equal-shape arrays) to the first ellipsoid
    intersection, in units of each direction's length.

    NaN marks a ray that misses the ellipsoid or meets it only behind the
    origin. The farther quadratic root lies on the far side of the planet
    and is never returned.
    """
    scale = (ell.semi_major, ell.semi_major, ell.semi_minor)
    ox, oy, oz = (o / s for o, s in zip(origin, scale))
    dx, dy, dz = (d / s for d, s in zip(direction, scale))
    a = dx * dx + dy * dy + dz * dz
    b = 2.0 * (ox * dx + oy * dy + oz * dz)
    c = ox * ox + oy * oy + oz * oz - 1.0
    with np.errstate(invalid="ignore"):
        sqrt_disc = np.sqrt(b * b - 4.0 * a * c)  # NaN when the ray misses
    t_near = (-b - sqrt_disc) / (2.0 * a)
    t_far = (-b + sqrt_disc) / (2.0 * a)
    t = np.where(t_near > 0.0, t_near, t_far)
    return np.where(t > 0.0, t, np.nan)


def _footprints_ecef(sat: GeodeticPosition, azimuth, elevation, ell: EllipsoidParams):
    """ECEF (x, y, z) arrays of the points where the (azimuth, elevation)
    rays from ``sat`` first meet the ellipsoid; NaN where a ray misses."""
    if not np.all(np.isfinite(azimuth)):
        raise ValueError("non-finite azimuth")
    if not np.all(np.abs(elevation) <= math.pi / 2 + 1e-15):
        raise ValueError("elevation outside [-pi/2, pi/2]")
    # unit NED look vectors (north = cos(el) sin(az), east = cos(el) cos(az),
    # down = -sin(el)), rotated into ECEF element by element rather than by
    # matmul, so no bit depends on the batch size
    cos_el = np.cos(elevation)
    ned = (cos_el * np.sin(azimuth), cos_el * np.cos(azimuth), -np.sin(elevation))
    rotation = ned_to_ecef_rotation(sat.longitude, sat.latitude)
    direction = tuple(row[0] * ned[0] + row[1] * ned[1] + row[2] * ned[2] for row in rotation)
    o = geodetic_to_ecef(sat, ell)
    origin = (o.x, o.y, o.z)
    t = _ray_ranges(origin, direction, ell)
    return tuple(oc + t * dc for oc, dc in zip(origin, direction))


def ground_footprint(
    sat: GeodeticPosition, azimuth: float, elevation: float, ell: EllipsoidParams = WGS84
) -> GeodeticPosition:
    """Geodetic point where the (azimuth, elevation) ray from ``sat`` first
    meets the ellipsoid surface (slant range solved, not supplied)."""
    x, y, z = (float(c) for c in _footprints_ecef(sat, azimuth, elevation, ell))
    if math.isnan(x):
        raise RayMissError("look ray does not reach the ellipsoid")
    return ecef_to_geodetic(EcefPosition(x, y, z), ell)


def angular_deviation_to_ground_distance(
    sat: GeodeticPosition,
    expected: AerPosition,
    delta_azimuth,
    delta_elevation,
    ell: EllipsoidParams = WGS84,
):
    """Ground separation caused by pointing error.

    Intersects the expected look ray and the rays perturbed by
    (delta_azimuth, delta_elevation) with the ellipsoid and returns the
    great-circle distances between the expected footprint and each
    perturbed one. The deltas broadcast against each other; all rays are
    solved in one batch, the expected ray with them, so a zero deviation
    gives exactly 0.0 and every element carries the same bits as a
    one-element call.

    Scalar deltas return a float and raise :class:`RayMissError` when
    either ray misses the planet. Array deltas return an ndarray of the
    broadcast shape with NaN where a ray misses, everywhere when the
    expected ray does. A hit point whose latitude iteration fails raises
    :class:`ConvergenceError`.
    """
    d_az, d_el = np.broadcast_arrays(
        np.asarray(delta_azimuth, dtype=float), np.asarray(delta_elevation, dtype=float)
    )
    # element 0 is the expected ray itself
    x, y, z = _footprints_ecef(
        sat, expected.azimuth + np.append(0.0, d_az), expected.elevation + np.append(0.0, d_el), ell
    )
    distance = np.full(x.shape, np.nan)
    hit = ~np.isnan(x)
    if hit[0]:  # without the expected footprint no distance is defined
        lon, lat, alt, converged = ecef_to_geodetic_arrays(x[hit], y[hit], z[hit], ell)
        if not converged.all():
            i = int(np.argmin(converged))
            raise ConvergenceError(
                f"latitude iteration did not reach {LATITUDE_TOL_RAD} rad in {LATITUDE_MAX_ITER} steps",
                GeodeticPosition(float(lon[i]), float(lat[i]), float(alt[i])),
            )
        distance[hit] = _haversine_arrays(lon[0], lat[0], lon, lat, ell.mean_radius)
    distance = distance[1:].reshape(d_az.shape)
    if distance.ndim == 0:
        if math.isnan(distance):
            raise RayMissError("look ray does not reach the ellipsoid")
        return float(distance)
    return distance
