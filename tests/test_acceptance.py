"""End-to-end acceptance checks.

One test per shipped criterion, each printing a PASS/FAIL line (run with
``pytest -s`` to see them as they complete). The heavier experiment
fixtures are shared across the trend checks.
"""

import json
import math
import time

import numpy as np
import pytest

from nullshaper.array import (
    ArrayModel,
    Direction,
    WeightVector,
    gain,
    gains,
    null_width,
    pattern_cut,
)
from nullshaper.cli import main as cli_main
from nullshaper.geodesy import (
    AerPosition,
    GeodeticPosition,
    angular_deviation_to_ground_distance,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef_arrays,
)
from nullshaper.optimizer import Objective, optimize
from nullshaper.simulation import (
    InterfererSite,
    Scenario,
    crossover_sigma,
    design_weights,
    monte_carlo_sweep,
)
from nullshaper.uncertainty import InterfererBelief, build_grid, weighted_interferer_gain

SAT = GeodeticPosition.from_degrees(138.53, -22.024, 800e3)
USER = GeodeticPosition.from_degrees(136.0, -22.0)
INTERFERER = GeodeticPosition.from_degrees(141.5, -19.0)

SIGMA_S_DESIGNS_DEG = (0.0, 0.1, 0.3, 0.5)
SIGMA_I_GRID_DEG = tuple(round(0.1 * i, 10) for i in range(11))
SWEEP_TRIALS = 500


def report(criterion: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    return ok


def planar_scenario(sigma_s_deg: float) -> Scenario:
    return Scenario(
        satellite=SAT,
        array=ArrayModel.from_frequency(8, 8, 2.0e10),
        users=(USER,),
        interferers=(InterfererSite(INTERFERER, sigma_s=math.radians(sigma_s_deg)),),
        samples_per_axis=3,
        kappa=1,
        seed=42,
    )


@pytest.fixture(scope="module")
def shaped_designs():
    """Weights for each shaping level of the planar-array experiment."""
    designs = {}
    for sigma_s_deg in SIGMA_S_DESIGNS_DEG:
        sc = planar_scenario(sigma_s_deg)
        designs[sigma_s_deg] = (sc, design_weights(sc).weights)
    return designs


@pytest.fixture(scope="module")
def psi_sweeps(shaped_designs):
    grid = [math.radians(s) for s in SIGMA_I_GRID_DEG]
    return {
        sigma_s: monte_carlo_sweep(sc, w, grid, trials=SWEEP_TRIALS, seed=123)
        for sigma_s, (sc, w) in shaped_designs.items()
    }


def test_criterion_1_geodetic_round_trip():
    rng = np.random.default_rng(2024)
    count = 10_000
    lon = rng.uniform(-math.pi, math.pi, count)
    lat = rng.uniform(-math.radians(85.0), math.radians(85.0), count)
    alt = rng.uniform(0.0, 2_000_000.0, count)
    started = time.perf_counter()
    x, y, z = geodetic_to_ecef_arrays(lon, lat, alt)
    lon2, lat2, alt2, converged = ecef_to_geodetic_arrays(x, y, z)
    elapsed = time.perf_counter() - started
    ok = (
        bool(converged.all())
        and float(np.abs(lon2 - lon).max()) < 1e-9
        and float(np.abs(lat2 - lat).max()) < 1e-9
        and float(np.abs(alt2 - alt).max()) < 1e-6
        and elapsed < 1.0
    )
    assert report("1 geodetic round trip (1e-6 m, 1e-9 rad, <1 s)", ok)


def test_criterion_2_ground_distance_altitude_trend():
    expected_ray = AerPosition(math.radians(90.0), math.radians(-80.0), 1.0)
    deviation = math.radians(0.5)
    started = time.perf_counter()
    zetas = {}
    for alt_km in (400, 600, 800, 1000, 1200):
        sat = GeodeticPosition(SAT.longitude, SAT.latitude, alt_km * 1000.0)
        zetas[alt_km] = angular_deviation_to_ground_distance(sat, expected_ray, deviation, 0.0)
    elapsed = time.perf_counter() - started
    ordered = list(zetas.values())
    strictly_increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
    # flat-earth oracle: footprint circles the sub-satellite point at
    # radius h tan(off-nadir), so an azimuth error sweeps h tan(g) dtheta
    oracle = 800e3 * math.tan(math.radians(10.0)) * deviation
    within_tolerance = abs(zetas[800] - oracle) / oracle < 0.05
    ok = strictly_increasing and within_tolerance and elapsed < 1.0
    assert report("2 ground-distance altitude trend (strict increase, 5%, <1 s)", ok)


def test_criterion_3_array_factor_oracle():
    arr = ArrayModel.half_wavelength(20, 1, 0.015)
    uniform = WeightVector.uniform(20)
    angles, levels = pattern_cut(arr, uniform, phi_cut=0.0, samples=3601)
    step = angles[1] - angles[0]
    first_null = math.asin(arr.wavelength / (20 * arr.dx))
    measured = angles[(angles > step) & (angles < 2 * first_null)]
    measured_levels = levels[(angles > step) & (angles < 2 * first_null)]
    null_at = measured[int(np.argmin(measured_levels))]
    null_located = abs(null_at - first_null) <= step + 1e-15

    rng = np.random.default_rng(7)
    brute_ok = True
    arr2 = ArrayModel.half_wavelength(4, 6, 0.015)
    for _ in range(1000):
        w = rng.normal(size=24) + 1j * rng.normal(size=24)
        w = w / np.linalg.norm(w)
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2 * math.pi)
        brute = 0.0 + 0.0j
        for m in range(4):
            for n in range(6):
                phase = (
                    -2.0j * math.pi / arr2.wavelength
                    * (m * arr2.dx * math.sin(theta) * math.cos(phi)
                       + n * arr2.dy * math.sin(theta) * math.sin(phi))
                )
                brute += w[m * 6 + n] * np.exp(phase)
        direct = float(gains(arr2, w, theta, phi))
        if abs(direct - abs(brute) ** 2) > 1e-12 * max(1.0, abs(brute) ** 2):
            brute_ok = False
            break
    ok = null_located and brute_ok
    assert report("3 array-factor oracle (null within one step, 1e-12 double sum)", ok)


def test_criterion_4_grid_literal_and_point_gain():
    mu_theta, mu_phi = 0.42, 1.37
    sigma = math.radians(1.0)
    grid = build_grid(InterfererBelief.isotropic(mu_theta, mu_phi, sigma), 3, 1)
    theta_axis = np.unique(grid.thetas).tolist()
    phi_axis = np.unique(grid.phis).tolist()
    literal = (
        theta_axis == [mu_theta - sigma, mu_theta, mu_theta + sigma]
        and phi_axis == [mu_phi - sigma, mu_phi, mu_phi + sigma]
    )

    arr = ArrayModel.from_frequency(8, 8, 2.0e10)
    rng = np.random.default_rng(11)
    w = rng.normal(size=64) + 1j * rng.normal(size=64)
    w = WeightVector(w / np.linalg.norm(w))
    collapsed = build_grid(InterfererBelief.isotropic(mu_theta, mu_phi, sigma), 3, 0)
    weighted = weighted_interferer_gain(arr, w, collapsed)
    point = gain(arr, w, Direction(mu_theta, mu_phi)) * float(collapsed.weights.sum())
    point_consistent = abs(weighted - point) <= 1e-12 * max(1.0, abs(point))
    ok = literal and point_consistent
    assert report("4 kappa-sigma grid literal and collapsed-grid gain (1e-12)", ok)


def test_criterion_5_matched_beam_all_seeds():
    arr = ArrayModel.from_frequency(8, 8, 2.0e10)
    user = Direction(0.35, 1.1)
    ok = True
    for seed in (1, 2, 3):
        started = time.perf_counter()
        result = optimize(Objective(arr, [user]))
        elapsed = time.perf_counter() - started
        achieved = gain(arr, result.weights, user)
        ok = ok and achieved >= 0.99 * 64.0 and elapsed < 60.0
    assert report("5 matched beam reaches 0.99 MN on 3 of 3 seeds (<60 s each)", ok)


def test_criterion_6_null_width_grows_with_kappa():
    arr = ArrayModel.half_wavelength(20, 1, 0.015)
    user = Direction(math.radians(30.0), 0.0)
    sigma = math.radians(1.0)
    started = time.perf_counter()
    widths = []
    for kappa in (1, 2, 3):
        grid = build_grid(InterfererBelief.isotropic(0.0, 0.0, sigma), 5, kappa)
        result = optimize(Objective(arr, [user], [grid]))
        angles, levels = pattern_cut(arr, result.weights, phi_cut=0.0, samples=3601)
        widths.append(null_width(angles, levels, center=0.0, depth_db=40.0))
    elapsed = time.perf_counter() - started
    ok = widths[0] < widths[1] < widths[2] and elapsed < 300.0
    print(f"  -40 dB widths [deg]: {[round(math.degrees(w), 2) for w in widths]}")
    assert report("6 null width strictly grows with kappa (<5 min)", ok)


def test_criterion_7_robustness_sweep_trends(psi_sweeps):
    started = time.perf_counter()
    baseline = psi_sweeps[0.0]
    shaped = {s: psi_sweeps[s] for s in SIGMA_S_DESIGNS_DEG if s > 0.0}

    sharpest_at_zero = all(
        baseline.mean_db[0] >= sweep.mean_db[0] for sweep in shaped.values()
    )
    crossovers = {s: crossover_sigma(baseline, sweep) for s, sweep in shaped.items()}
    crossover_exists = all(c is not None and c > 0.0 for c in crossovers.values())
    finals = [psi_sweeps[s].mean_db[-1] for s in SIGMA_S_DESIGNS_DEG]
    robust_ordering = all(a < b for a, b in zip(finals, finals[1:]))
    elapsed = time.perf_counter() - started

    print(f"  mean effectiveness at sigma_i=1 deg: "
          f"{[round(v, 1) for v in finals]} (sigma_s {list(SIGMA_S_DESIGNS_DEG)})")
    print(f"  crossovers [deg]: {crossovers}")
    ok = sharpest_at_zero and crossover_exists and robust_ordering and elapsed < 1800.0
    assert report(
        "7 sweep trends: sharp best at 0, crossovers exist, ordering at 1 deg (<30 min)",
        ok,
    )


def test_criterion_8_capacity_trend(shaped_designs):
    grid = [math.radians(s) for s in SIGMA_I_GRID_DEG]
    curves = {}
    for sigma_s in (0.0, 0.3, 0.5):
        sc, w = shaped_designs[sigma_s]
        curves[sigma_s] = monte_carlo_sweep(
            sc, w, grid, trials=SWEEP_TRIALS, seed=123, metric="capacity"
        ).mean_db
    sharp = curves[0.0]
    max_at_zero = all(sharp[0] >= curves[s][0] for s in (0.3, 0.5))
    drops_below = any(
        any(sharp[i] < curves[s][i] for i in range(len(SIGMA_I_GRID_DEG)))
        for s in (0.3, 0.5)
    )
    print(f"  capacity at sigma_i=0: "
          f"{[round(curves[s][0], 3) for s in (0.0, 0.3, 0.5)]} (sigma_s 0/0.3/0.5)")
    ok = max_at_zero and drops_below
    assert report("8 capacity: sharp design peaks at 0 then falls behind before 1 deg", ok)


def test_criterion_9_byte_identical_reruns(tmp_path):
    scenario = {
        "satellite": {"lon_deg": 138.53, "lat_deg": -22.024, "alt_m": 800000.0},
        "array": {"m": 4, "n": 4, "freq_hz": 2.0e10},
        "users": [{"lon_deg": 136.0, "lat_deg": -22.0}],
        "interferers": [{"lon_deg": 141.5, "lat_deg": -19.0, "sigma_s_deg": 0.3,
                         "sigma_i_deg": 0.5}],
        "shaping": {"L": 3, "kappa": 1},
        "pso": {"iterations": 30, "polish": {"sweeps": 5}},
        "seed": 77,
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))

    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                         "--sigma-s", "0,0.3", "--trials", "40", "--capacity",
                         "--sigma-i-max", "0.4", "--sigma-i-step", "0.2"]) == 0
        assert cli_main(["optimize", "--scenario", str(scenario_path),
                         "--out", str(out)]) == 0
        assert cli_main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                         "--altitudes-km", "400,800"]) == 0
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"
        })

    same_files = set(outputs[0]) == set(outputs[1]) and len(outputs[0]) >= 6
    identical = same_files and all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    assert report("9 byte-identical reruns", identical)
