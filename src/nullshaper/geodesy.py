"""Coordinate transforms between satellite-relative AER frames and Earth-fixed
geodetic coordinates on one datum, the World Geodetic System 1984.

Conventions used throughout:

* The datum is fixed: its semi-axes, first eccentricity squared and mean
  radius are the module constants ``SEMI_MAJOR_M``, ``SEMI_MINOR_M``,
  ``ECCENTRICITY_SQ`` and ``MEAN_RADIUS_M``.
* Angles are radians and distances are metres; degrees appear only at I/O
  boundaries.
* AER azimuth is measured in the local horizontal plane from east toward
  north, elevation from the horizontal plane (so a ray pointing straight
  down at the ground has elevation -pi/2).
* NED is the local north-east-down tangent frame at the observer.
* ECEF X points at (lon 0, lat 0), Y at (lon 90E, lat 0), Z at the north
  pole.

Geodetic and AER positions are small frozen value types; ECEF positions
are plain ndarrays, a (3,) array from :func:`geodetic_to_ecef` and
(x, y, z) arrays from the ``*_arrays`` kernels, which carry the heavy
loops. Where a scalar entry point wraps a kernel it runs a one-element
batch, so a batch gives, element by element, the bits of one-at-a-time
calls.

The ECEF -> geodetic inverse is the exact closed form of Vermeille
(J. Geodesy 76, 2002), without iteration. It holds outside the evolute of
the meridian ellipse, that is everywhere more than about 43 km from the
Earth's centre; the 4th element that :func:`ecef_to_geodetic_arrays`
returns is true where it gave a finite solution.

Look rays, from one satellite or a sequence of them, are intersected with
the datum surface in one batch, and a ray that misses comes back as NaN.
:func:`ground_footprint` and one-satellite, scalar-delta calls of
:func:`angular_deviation_to_ground_distance` raise :class:`RayMissError`
for it; other calls keep the NaN, one table row per satellite and deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeodeticPosition",
    "AerPosition",
    "RayMissError",
    "geodetic_to_ecef",
    "ned_to_ecef_rotation",
    "ecef_to_geodetic",
    "ground_footprint",
    "angular_deviation_to_ground_distance",
]

TWO_PI = 2.0 * math.pi

#: Datum semi-major axis (m) and first eccentricity squared. The semi-minor
#: axis is derived from them, so the forward and inverse transforms share
#: one exact datum.
SEMI_MAJOR_M = 6378137.0
ECCENTRICITY_SQ = 6.69437999014e-3
SEMI_MINOR_M = SEMI_MAJOR_M * math.sqrt(1.0 - ECCENTRICITY_SQ)
#: Mean Earth radius (m) of the great-circle ground distances.
MEAN_RADIUS_M = 6371008.8

class RayMissError(ValueError):
    """A look ray does not reach the Earth's surface."""


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
    """Longitude, latitude (radians) and altitude above the datum surface (metres)."""

    longitude: float
    latitude: float
    altitude: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.longitude) and math.isfinite(self.latitude) and math.isfinite(self.altitude)):
            raise ValueError("non-finite geodetic component")
        if abs(self.latitude) > math.pi / 2 + 1e-15:
            raise ValueError(f"latitude {self.latitude} outside [-pi/2, pi/2]")
        if self.altitude <= -SEMI_MINOR_M:
            raise ValueError("altitude below the Earth's centre region")
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


def prime_vertical_radius(latitude):
    """East-west radius of curvature of the datum at the given latitude.

    Ranges from the semi-major axis at the equator to a/sqrt(1-e^2) at the
    poles. Accepts scalars or ndarrays.
    """
    sin_lat = np.sin(latitude)
    return SEMI_MAJOR_M / np.sqrt(1.0 - ECCENTRICITY_SQ * sin_lat * sin_lat)


def geodetic_to_ecef_arrays(lon, lat, alt):
    """Vectorised geodetic -> ECEF transform; returns (x, y, z) arrays."""
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    alt = np.asarray(alt, dtype=float)
    rn = prime_vertical_radius(lat)
    cos_lat = np.cos(lat)
    axial_ratio_sq = (SEMI_MINOR_M / SEMI_MAJOR_M) ** 2
    x = (rn + alt) * cos_lat * np.cos(lon)
    y = (rn + alt) * cos_lat * np.sin(lon)
    z = (axial_ratio_sq * rn + alt) * np.sin(lat)
    return x, y, z


def geodetic_to_ecef(p: GeodeticPosition) -> np.ndarray:
    """ECEF coordinates of a geodetic position as a (3,) array."""
    return np.array(geodetic_to_ecef_arrays(p.longitude, p.latitude, p.altitude))


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


def ecef_to_geodetic_arrays(x, y, z):
    """Vectorised ECEF -> geodetic inverse, in the exact closed form of
    Vermeille (J. Geodesy 76, 2002): one cube root and a few square roots
    per point, no iteration.

    Every operation is elementwise, so a batch returns the same bits as
    element-by-element calls. Returns (lon, lat, alt, ok), where ``ok`` is a
    bool array that is true where the closed form gave a finite solution.
    It is false for non-finite input and inside the evolute of the meridian
    ellipse (within about 43 km of the Earth's centre), where the closed
    form takes the square root of a negative number; there the latitude and
    altitude are NaN and no warning is raised.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    # p, q, r, s, t, u, v, w, k and d are the paper's names
    e4 = ECCENTRICITY_SQ * ECCENTRICITY_SQ
    rho = np.hypot(x, y)
    p = (rho / SEMI_MAJOR_M) ** 2
    q = (1.0 - ECCENTRICITY_SQ) * (z / SEMI_MAJOR_M) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (p + q - e4) / 6.0
        s = e4 * p * q / (4.0 * r**3)
        t = np.cbrt(1.0 + s + np.sqrt(s * (2.0 + s)))
        u = r * (1.0 + t + 1.0 / t)
        v = np.sqrt(u * u + e4 * q)
        w = ECCENTRICITY_SQ * (u + v - q) / (2.0 * v)
        k = np.sqrt(u + v + w * w) - w
        d = k * rho / (k + ECCENTRICITY_SQ)
        d_z = np.hypot(d, z)
        lat = 2.0 * np.arctan(z / (d + d_z))
        alt = (k + ECCENTRICITY_SQ - 1.0) / k * d_z
    lon = np.arctan2(y, x)
    return lon, lat, alt, np.isfinite(lat) & np.isfinite(alt)


def ecef_to_geodetic(x: float, y: float, z: float) -> GeodeticPosition:
    """Convert ECEF coordinates to geodetic.

    Raises ``ValueError`` where :func:`ecef_to_geodetic_arrays` has no
    finite solution: non-finite input, or a point near the Earth's centre.
    """
    lon, lat, alt, _ = ecef_to_geodetic_arrays(x, y, z)
    return GeodeticPosition(float(lon), float(lat), float(alt))


def _haversine_arrays(lon1, lat1, lon2, lat2):
    """Great-circle distance kernel over the mean-radius sphere; broadcasts
    its arguments."""
    half_dlat = 0.5 * (lat2 - lat1)
    half_dlon = 0.5 * (lon2 - lon1)
    eta = np.sin(half_dlat) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(half_dlon) ** 2
    central = 2.0 * np.arctan2(np.sqrt(eta), np.sqrt(np.maximum(1.0 - eta, 0.0)))
    return MEAN_RADIUS_M * central


def _ray_ranges(origin, direction):
    """Ranges from one ECEF ``origin`` along each ray of ``direction`` (an
    (x, y, z) triple of equal-shape arrays) to the first intersection with
    the datum surface, in units of each direction's length.

    NaN marks a ray that misses the surface or meets it only behind the
    origin, and every ray from an origin so far out that the quadratic's
    coefficients overflow. The farther quadratic root lies on the far side
    of the planet and is never returned.
    """
    scale = (SEMI_MAJOR_M, SEMI_MAJOR_M, SEMI_MINOR_M)
    ox, oy, oz = (o / s for o, s in zip(origin, scale))
    dx, dy, dz = (d / s for d, s in zip(direction, scale))
    with np.errstate(over="ignore", invalid="ignore"):
        a = dx * dx + dy * dy + dz * dz
        b = 2.0 * (ox * dx + oy * dy + oz * dz)
        c = ox * ox + oy * oy + oz * oz - 1.0
        sqrt_disc = np.sqrt(b * b - 4.0 * a * c)
    t_near = (-b - sqrt_disc) / (2.0 * a)
    t_far = (-b + sqrt_disc) / (2.0 * a)
    t = np.where(t_near > 0.0, t_near, t_far)
    return np.where(t > 0.0, t, np.nan)


def _footprints_ecef(sat, azimuth, elevation):
    """ECEF (x, y, z) arrays of the points where the (azimuth, elevation)
    rays from ``sat`` first meet the datum surface; NaN where a ray misses.
    A sequence of satellites adds a leading axis, each casting every ray."""
    if not np.all(np.isfinite(azimuth)):
        raise ValueError("non-finite azimuth")
    if not np.all(np.abs(elevation) <= math.pi / 2 + 1e-15):
        raise ValueError("elevation outside [-pi/2, pi/2]")
    # unit NED look vectors (north = cos(el) sin(az), east = cos(el) cos(az),
    # down = -sin(el)), rotated into ECEF element by element rather than by
    # matmul, so no bit depends on the batch size
    cos_el = np.cos(elevation)
    ned = (cos_el * np.sin(azimuth), cos_el * np.cos(azimuth), -np.sin(elevation))
    # each satellite's rotation and origin, along the satellite axis if any,
    # broadcast over the rays
    sats, per_sat = np.ravel(sat), (-1,) * np.ndim(sat) + (1,) * np.ndim(ned[0])
    rotation = np.stack([ned_to_ecef_rotation(s.longitude, s.latitude) for s in sats], -1)
    rotation = rotation.reshape((3, 3) + per_sat)
    direction = tuple(row[0] * ned[0] + row[1] * ned[1] + row[2] * ned[2] for row in rotation)
    geodetic = np.array([(s.longitude, s.latitude, s.altitude) for s in sats]).T
    origin = geodetic_to_ecef_arrays(*geodetic.reshape((3,) + per_sat))
    t = _ray_ranges(origin, direction)
    return tuple(oc + t * dc for oc, dc in zip(origin, direction))


def ground_footprint(sat: GeodeticPosition, azimuth: float, elevation: float) -> GeodeticPosition:
    """Geodetic point where the (azimuth, elevation) ray from ``sat`` first
    meets the datum surface (slant range solved, not supplied)."""
    x, y, z = (float(c) for c in _footprints_ecef(sat, azimuth, elevation))
    if math.isnan(x):
        raise RayMissError("look ray does not reach the Earth's surface")
    return ecef_to_geodetic(x, y, z)


def angular_deviation_to_ground_distance(
    sat,
    expected: AerPosition,
    delta_azimuth,
    delta_elevation,
):
    """Ground separation caused by pointing error.

    Intersects the expected look ray and the rays perturbed by
    (delta_azimuth, delta_elevation) with the datum surface and returns the
    great-circle distances between the expected footprint and each
    perturbed one. The deltas broadcast against each other, and a sequence
    of satellites for ``sat`` adds a leading axis. All rays are solved in
    one batch, each satellite's expected ray with them, so a zero deviation
    gives exactly 0.0 and every element has the bits of a one-element call.

    One satellite and scalar deltas return a float and raise
    :class:`RayMissError` when either ray misses the planet. Other calls
    return an ndarray, NaN where a ray misses and along a satellite's whole
    row where its expected ray does.
    """
    d_az, d_el = np.broadcast_arrays(
        np.asarray(delta_azimuth, dtype=float), np.asarray(delta_elevation, dtype=float)
    )
    # element 0 of each row is the expected ray; a miss stays NaN to the end
    x, y, z = _footprints_ecef(
        sat, expected.azimuth + np.append(0.0, d_az), expected.elevation + np.append(0.0, d_el)
    )
    lon, lat, _, _ = ecef_to_geodetic_arrays(x, y, z)
    distance = _haversine_arrays(lon[..., :1], lat[..., :1], lon[..., 1:], lat[..., 1:])
    distance = distance.reshape(distance.shape[:-1] + d_az.shape)
    if distance.ndim == 0:
        if math.isnan(distance):
            raise RayMissError("look ray does not reach the Earth's surface")
        return float(distance)
    return distance
