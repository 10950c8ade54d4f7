import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullshaper.geodesy import (
    ECCENTRICITY_SQ,
    MEAN_RADIUS_M,
    SEMI_MAJOR_M,
    SEMI_MINOR_M,
    AerPosition,
    GeodeticPosition,
    RayMissError,
    _footprints_ecef,
    _haversine_arrays,
    angular_deviation_to_ground_distance,
    ecef_to_geodetic,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef,
    geodetic_to_ecef_arrays,
    ground_footprint,
    ned_to_ecef_rotation,
    prime_vertical_radius,
)

# Satellite location reused across the viewing-geometry tests.
SAT = GeodeticPosition.from_degrees(138.53, -22.024, 800e3)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# (lon, lat, alt) from just below the surface to beyond geostationary
# altitude
GEODETIC_POINTS = st.lists(
    st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.55, 1.55), st.floats(-5e3, 5e7)),
    min_size=1,
    max_size=24,
)


def ecef_to_geodetic_closed_form(x, y, z):
    """Independent reference inverse: exact algebraic (quartic) solution,
    no iteration shared with the production code."""
    a, b, e2 = SEMI_MAJOR_M, SEMI_MINOR_M, ECCENTRICITY_SQ
    ep2 = (a * a - b * b) / (b * b)
    p = math.hypot(x, y)
    big_f = 54.0 * b * b * z * z
    big_g = p * p + (1.0 - e2) * z * z - e2 * (a * a - b * b)
    c = e2 * e2 * big_f * p * p / (big_g**3)
    s = (1.0 + c + math.sqrt(c * c + 2.0 * c)) ** (1.0 / 3.0)
    k = s + 1.0 + 1.0 / s
    big_p = big_f / (3.0 * k * k * big_g * big_g)
    big_q = math.sqrt(1.0 + 2.0 * e2 * e2 * big_p)
    r0 = -big_p * e2 * p / (1.0 + big_q) + math.sqrt(
        max(
            0.5 * a * a * (1.0 + 1.0 / big_q)
            - big_p * (1.0 - e2) * z * z / (big_q * (1.0 + big_q))
            - 0.5 * big_p * p * p,
            0.0,
        )
    )
    u = math.hypot(p - e2 * r0, z)
    v = math.sqrt((p - e2 * r0) ** 2 + (1.0 - e2) * z * z)
    z0 = b * b * z / (a * v)
    return math.atan2(y, x), math.atan((z + ep2 * z0) / p), u * (1.0 - b * b / (a * v))


class TestAerToNed:
    """The AER -> NED convention (azimuth from east toward north, elevation
    up from the horizontal), read through where ground_footprint lands."""

    EQUATORIAL = GeodeticPosition.from_degrees(10.0, 0.0, 800e3)

    def test_azimuth_zero_points_east(self):
        g = ground_footprint(self.EQUATORIAL, 0.0, math.radians(-60.0))
        assert g.longitude_deg > 10.0 + 1.0
        assert g.latitude == pytest.approx(0.0, abs=1e-12)

    def test_azimuth_quarter_turn_points_north(self):
        g = ground_footprint(self.EQUATORIAL, math.pi / 2, math.radians(-60.0))
        assert g.latitude_deg > 1.0
        assert g.longitude_deg == pytest.approx(10.0, abs=1e-9)

    def test_depressed_ray_points_down(self):
        # straight down follows the ellipsoid normal, whatever the azimuth,
        # so the slant range to the footprint is the geodetic altitude
        sat = geodetic_to_ecef(SAT)
        for azimuth in (0.0, 1.0, 4.0):
            g = ground_footprint(SAT, azimuth, -math.pi / 2)
            assert g.longitude == pytest.approx(SAT.longitude, abs=1e-12)
            assert g.latitude == pytest.approx(SAT.latitude, abs=1e-12)
            srange = np.linalg.norm(geodetic_to_ecef(g) - sat)
            assert srange == pytest.approx(SAT.altitude, abs=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AerPosition(math.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            AerPosition(0.0, 0.0, -5.0)


class TestPrimeVerticalRadius:
    def test_equator_is_semi_major(self):
        assert prime_vertical_radius(0.0) == SEMI_MAJOR_M == 6378137.0

    def test_pole(self):
        expected = SEMI_MAJOR_M / math.sqrt(1.0 - ECCENTRICITY_SQ)
        assert prime_vertical_radius(math.pi / 2) == pytest.approx(expected, rel=1e-15)

    def test_reference_value_at_southern_latitude(self):
        # frozen from a 40-digit evaluation of a / sqrt(1 - e^2 sin^2(lat))
        assert prime_vertical_radius(math.radians(-22.024)) == pytest.approx(
            6381141.220301015, abs=1e-6
        )


class TestGeodeticToEcef:
    def test_equator_prime_meridian(self):
        e = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        assert e.shape == (3,)
        assert tuple(e) == pytest.approx((SEMI_MAJOR_M, 0.0, 0.0), abs=1e-9)

    def test_east_quadrant_with_altitude(self):
        x, y, z = geodetic_to_ecef(GeodeticPosition.from_degrees(90.0, 0.0, 1000.0))
        assert x == pytest.approx(0.0, abs=1e-6)
        assert y == pytest.approx(SEMI_MAJOR_M + 1000.0)
        assert z == pytest.approx(0.0, abs=1e-9)

    def test_satellite_reference_values(self):
        # frozen from a 40-digit evaluation at (138.53 deg, -22.024 deg, 800 km)
        x, y, z = geodetic_to_ecef(SAT)
        assert x == pytest.approx(-4988190.187779477, abs=1e-4)
        assert y == pytest.approx(4408523.863547695, abs=1e-4)
        assert z == pytest.approx(-2676872.656768587, abs=1e-4)


class TestNedRotation:
    def test_axes_at_origin(self):
        r = ned_to_ecef_rotation(0.0, 0.0)
        # at (lon 0, lat 0): north is +Z, east is +Y, down is -X
        assert r @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0, 1.0])
        assert r @ np.array([0.0, 1.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0])
        assert r @ np.array([0.0, 0.0, 1.0]) == pytest.approx([-1.0, 0.0, 0.0])

    def test_proper_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = ned_to_ecef_rotation(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_matches_finite_difference_tangent_frame(self):
        # numerical tangent frame of the forward transform at the satellite
        lon, lat, alt = SAT.longitude, SAT.latitude, SAT.altitude
        step = 10.0  # metres; balances truncation against float cancellation

        def unit(delta_lon, delta_lat, delta_alt):
            fwd = np.array(
                geodetic_to_ecef_arrays(lon + delta_lon, lat + delta_lat, alt + delta_alt)
            )
            bwd = np.array(
                geodetic_to_ecef_arrays(lon - delta_lon, lat - delta_lat, alt - delta_alt)
            )
            d = fwd - bwd
            return d / np.linalg.norm(d)

        r = ned_to_ecef_rotation(lon, lat)
        assert r[:, 0] == pytest.approx(unit(0.0, step / 6.4e6, 0.0), abs=1e-7)
        assert r[:, 1] == pytest.approx(unit(step / 6.4e6, 0.0, 0.0), abs=1e-7)
        assert r[:, 2] == pytest.approx(unit(0.0, 0.0, -step), abs=1e-10)


class TestEcefToGeodetic:
    def test_round_trip_random_points(self):
        rng = np.random.default_rng(3)
        lon = rng.uniform(-math.pi, math.pi, 10_000)
        lat = rng.uniform(-math.radians(85.0), math.radians(85.0), 10_000)
        alt = rng.uniform(0.0, 2e6, 10_000)
        x, y, z = geodetic_to_ecef_arrays(lon, lat, alt)
        lon2, lat2, alt2, ok = ecef_to_geodetic_arrays(x, y, z)
        assert ok.all()
        assert np.abs(lon2 - lon).max() < 1e-9
        assert np.abs(lat2 - lat).max() < 1e-9
        assert np.abs(alt2 - alt).max() < 1e-6

    def test_matches_closed_form_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p = GeodeticPosition(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-1.4, 1.4),
                rng.uniform(0.0, 1.5e6),
            )
            e = geodetic_to_ecef(p)
            g = ecef_to_geodetic(*e)
            lon_ref, lat_ref, alt_ref = ecef_to_geodetic_closed_form(*e)
            assert g.longitude == pytest.approx(lon_ref, abs=1e-9)
            assert g.latitude == pytest.approx(lat_ref, abs=1e-9)
            assert g.altitude == pytest.approx(alt_ref, abs=1e-5)

    @PROPERTY
    @given(GEODETIC_POINTS)
    @example([(0.3, 0.0, 0.0), (0.3, 0.8, 0.0), (-2.0, -1.2, 3.6e7)])
    def test_batch_matches_point_calls_bit_for_bit(self, points):
        lon, lat, alt = np.array(points).T
        x, y, z = geodetic_to_ecef_arrays(lon, lat, alt)
        batch = ecef_to_geodetic_arrays(x, y, z)
        single = [ecef_to_geodetic_arrays(*xyz) for xyz in zip(x, y, z)]
        for k, column in enumerate(batch):  # lon, lat, alt, ok
            expected = np.array([result[k] for result in single], dtype=column.dtype)
            assert column.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("altitude", [0.0, 1000.0, 800e3])
    def test_polar_axis_altitude(self, altitude, sign):
        # p = hypot(x, y) = 0 here, where p / cos(lat) is 0/0
        lon, lat, alt, ok = ecef_to_geodetic_arrays(0.0, 0.0, sign * (SEMI_MINOR_M + altitude))
        assert ok
        assert lat == sign * math.pi / 2
        assert alt == pytest.approx(altitude, abs=1e-6)

    def test_near_polar_axis_matches_closed_form_reference(self):
        e = (1e-3, 0.0, 6356752.3)
        lon, lat, alt, ok = ecef_to_geodetic_arrays(*e)
        lon_ref, lat_ref, alt_ref = ecef_to_geodetic_closed_form(*e)
        assert ok
        assert lat == pytest.approx(lat_ref, abs=1e-12)
        assert alt == pytest.approx(alt_ref, abs=1e-6)

    def test_footprints_lie_on_the_datum(self):
        # on the surface the geodetic latitude is atan2(z, (1 - e^2) p) exactly
        deviation = np.radians(np.linspace(0.0, 10.0, 1001))
        x, y, z = _footprints_ecef(SAT, np.zeros_like(deviation), math.radians(-60.0) + deviation)
        lon, lat, alt, ok = ecef_to_geodetic_arrays(x, y, z)
        assert ok.all()
        assert np.abs(lat - np.arctan2(z, (1.0 - ECCENTRICITY_SQ) * np.hypot(x, y))).max() <= 1e-15
        assert np.abs(alt).max() < 1e-6

    @pytest.mark.parametrize("ecef", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    def test_inside_the_evolute_has_no_solution(self, ecef):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, lat, alt, ok = ecef_to_geodetic_arrays(*ecef)
            with pytest.raises(ValueError):
                ecef_to_geodetic(*ecef)
        assert not ok
        assert np.isnan(lat) and np.isnan(alt)


class TestAerToGeodetic:
    """AER -> geodetic through ground_footprint, which solves the slant
    range against the datum surface, so every target sits on it."""

    def test_nadir_hits_subsatellite_point_equatorial(self):
        sat = GeodeticPosition.from_degrees(10.0, 0.0, 800e3)
        g = ground_footprint(sat, 0.3, -math.pi / 2)
        assert g.longitude_deg == pytest.approx(10.0, abs=1e-6)
        assert g.latitude_deg == pytest.approx(0.0, abs=1e-6)
        assert abs(g.altitude) < 1.0

    def test_nadir_follows_ellipsoid_normal(self):
        g = ground_footprint(SAT, 1.234, -math.pi / 2)
        assert g.longitude_deg == pytest.approx(SAT.longitude_deg, abs=1e-9)
        assert g.latitude_deg == pytest.approx(SAT.latitude_deg, abs=1e-9)
        assert abs(g.altitude) < 1e-6

    def test_round_trip_against_ned_decomposition(self):
        # AER recovered from the NED line of sight must map back to the target
        rng = np.random.default_rng(5)
        for _ in range(50):
            target = GeodeticPosition(
                SAT.longitude + rng.uniform(-0.05, 0.05),
                SAT.latitude + rng.uniform(-0.05, 0.05),
            )
            rel = geodetic_to_ecef(target) - geodetic_to_ecef(SAT)
            ned = ned_to_ecef_rotation(SAT.longitude, SAT.latitude).T @ rel
            elevation = -math.asin(ned[2] / float(np.linalg.norm(ned)))
            g = ground_footprint(SAT, math.atan2(ned[0], ned[1]), elevation)
            assert g.longitude == pytest.approx(target.longitude, abs=1e-9)
            assert g.latitude == pytest.approx(target.latitude, abs=1e-9)
            assert g.altitude == pytest.approx(0.0, abs=1e-5)

    def test_off_nadir_against_closed_form_reference(self):
        azimuth, elevation = math.radians(40.0), math.radians(-65.0)
        ecef = [float(c) for c in _footprints_ecef(SAT, azimuth, elevation)]
        lon_ref, lat_ref, alt_ref = ecef_to_geodetic_closed_form(*ecef)
        g = ground_footprint(SAT, azimuth, elevation)
        assert g.longitude == pytest.approx(lon_ref, abs=1e-9)
        assert g.latitude == pytest.approx(lat_ref, abs=1e-9)
        assert g.altitude == pytest.approx(alt_ref, abs=1e-5)


class TestHaversine:
    @staticmethod
    def distance(p1, p2):
        return float(_haversine_arrays(p1.longitude, p1.latitude, p2.longitude, p2.latitude))

    def test_identical_points(self):
        p = GeodeticPosition.from_degrees(17.0, -33.0)
        assert self.distance(p, p) == 0.0

    def test_antipodal_on_equator(self):
        a = GeodeticPosition.from_degrees(0.0, 0.0)
        b = GeodeticPosition.from_degrees(180.0, 0.0)
        assert self.distance(a, b) == pytest.approx(math.pi * MEAN_RADIUS_M, rel=1e-12)

    def test_one_degree_arc(self):
        a = GeodeticPosition.from_degrees(0.0, 0.0)
        b = GeodeticPosition.from_degrees(1.0, 0.0)
        # pi/180 * 6371008.8, frozen from exact spherical arc length
        assert self.distance(a, b) == pytest.approx(111195.08023353291, rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pts = [
                GeodeticPosition(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
                for _ in range(3)
            ]
            ab = self.distance(pts[0], pts[1])
            ba = self.distance(pts[1], pts[0])
            assert ab == pytest.approx(ba, rel=1e-12)
            bc = self.distance(pts[1], pts[2])
            ac = self.distance(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6 * (ab + bc)


class TestGroundDistanceFromPointingError:
    EXPECTED = AerPosition(math.radians(90.0), math.radians(-80.0), 1.0)

    def test_zero_deviation_is_zero(self):
        assert angular_deviation_to_ground_distance(SAT, self.EXPECTED, 0.0, 0.0) == 0.0

    def test_grows_with_altitude(self):
        d_az = math.radians(0.5)
        previous = 0.0
        for alt_km in (800, 1200):
            sat = GeodeticPosition(SAT.longitude, SAT.latitude, alt_km * 1000.0)
            zeta = angular_deviation_to_ground_distance(sat, self.EXPECTED, d_az, 0.0)
            assert zeta > previous
            previous = zeta

    def test_nadir_elevation_deviation_small_angle(self):
        # flat-earth estimate h * tan(dev) for a nadir expected ray
        expected = AerPosition(0.0, -math.pi / 2, 1.0)
        zeta = angular_deviation_to_ground_distance(SAT, expected, 0.0, math.radians(0.5))
        assert zeta == pytest.approx(SAT.altitude * math.tan(math.radians(0.5)), rel=0.05)

    def test_monotone_in_each_deviation(self):
        for axis in ("az", "el"):
            previous = -1.0
            for dev_deg in np.arange(0.0, 1.01, 0.1):
                dev = math.radians(dev_deg)
                zeta = angular_deviation_to_ground_distance(
                    SAT,
                    self.EXPECTED,
                    dev if axis == "az" else 0.0,
                    dev if axis == "el" else 0.0,
                )
                assert zeta >= previous - 1e-9
                previous = zeta

    def test_ray_miss_raises(self):
        with pytest.raises(RayMissError):
            ground_footprint(SAT, 0.0, math.radians(30.0))
        with pytest.raises(RayMissError):
            angular_deviation_to_ground_distance(
                SAT, AerPosition(0.0, math.radians(-5.0), 1.0), 0.0, math.radians(4.9)
            )


class TestGroundDistanceBatch:
    # the horizon-crossing ray of the CLI miss test: from 800 km the horizon
    # sits at elevation -27.3 deg, so raising this ray by a degree misses
    EXPECTED = AerPosition(0.0, math.radians(-28.0), 1.0)

    def test_elements_match_scalar_calls_and_misses_are_nan(self):
        d_az = np.radians([0.0, 0.2, -0.7])[:, None]
        d_el = np.radians(np.linspace(0.0, 1.0, 11))
        batch = angular_deviation_to_ground_distance(SAT, self.EXPECTED, d_az, d_el)
        assert batch.shape == (3, 11)
        missed = 0
        for (i, j), value in np.ndenumerate(batch):
            try:
                scalar = angular_deviation_to_ground_distance(SAT, self.EXPECTED, d_az[i, 0], d_el[j])
            except RayMissError:
                assert math.isnan(value)
                missed += 1
            else:
                assert isinstance(scalar, float)
                assert np.float64(scalar).tobytes() == value.tobytes()
        assert 0 < missed < batch.size
        assert batch[0, 0] == 0.0

    def test_zero_deviation_is_exactly_zero_in_a_batch(self):
        sat = GeodeticPosition.from_degrees(10.0, 45.0, 600e3)
        expected = AerPosition(math.radians(33.0), math.radians(-61.0), 1.0)
        devs = np.radians([0.4, 0.0, 0.1, 0.0])
        assert angular_deviation_to_ground_distance(sat, expected, devs, 0.0)[[1, 3]].tolist() == [0.0, 0.0]
        assert angular_deviation_to_ground_distance(sat, expected, 0.0, devs)[[1, 3]].tolist() == [0.0, 0.0]

    def test_expected_ray_miss_gives_all_nan(self):
        expected = AerPosition(0.0, math.radians(-5.0), 1.0)
        batch = angular_deviation_to_ground_distance(SAT, expected, 0.0, np.radians([-1.0, 0.0]))
        assert np.isnan(batch).all()
        with pytest.raises(RayMissError):
            angular_deviation_to_ground_distance(SAT, expected, 0.0, math.radians(-1.0))


class TestValueTypes:
    def test_longitude_wraps(self):
        p = GeodeticPosition(math.radians(190.0), 0.0)
        assert p.longitude_deg == pytest.approx(-170.0)

    def test_latitude_range_enforced(self):
        with pytest.raises(ValueError):
            GeodeticPosition(0.0, 2.0)

    def test_ecef_rejects_inf(self):
        with pytest.raises(ValueError):
            ecef_to_geodetic(math.inf, 0.0, 0.0)
