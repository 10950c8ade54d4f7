import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nullshaper.array
import nullshaper.simulation
from nullshaper.array import MAX_ELEMENTS, ArrayModel, Direction, WeightVector, gain, gains
from nullshaper.geodesy import GeodeticPosition, geodetic_to_ecef, ned_to_ecef_rotation
from nullshaper.optimizer import EPS_DEN, Objective, mitigation_effectiveness, optimize
from nullshaper.simulation import (
    MAX_GRID_POINTS,
    MAX_SIGMA_S_DEG,
    InterfererSite,
    LinkBudget,
    Scenario,
    ScenarioError,
    UnsupportedScenarioError,
    VisibilityError,
    _sweep_weights,
    build_objective,
    capacity,
    crossover_sigma,
    design_weights,
    geodetic_to_direction,
    load_scenario,
    monte_carlo_sweep,
    monte_carlo_sweeps,
    scenario_from_dict,
)
from nullshaper.uncertainty import NullSampleGrid

SAT = GeodeticPosition.from_degrees(138.53, -22.024, 800e3)
USER = GeodeticPosition.from_degrees(136.0, -22.0)
INTERFERER = GeodeticPosition.from_degrees(141.5, -19.0)


def make_scenario(sigma_s_deg=0.3, m=8, n=8, **kwargs):
    return Scenario(
        satellite=SAT,
        array=ArrayModel.from_frequency(m, n, 2.0e10),
        users=(USER,),
        interferers=(InterfererSite(position=INTERFERER, sigma_s=math.radians(sigma_s_deg)),),
        **kwargs,
    )


def realised_directions(sc, sigma_i, trials, seed):
    """The sweep's realised (theta, phi) per trial and interferer, rebuilt
    from its common standard normals."""
    means = np.array([[d.theta, d.phi] for d in sc.interferer_directions()])
    return means + sigma_i * np.random.default_rng(seed).standard_normal((trials, len(means), 2))


def point_psi_db(sc, w, direction):
    """Effectiveness in dB against one point interferer, via the objective."""
    obj = Objective(sc.array, sc.user_directions(), [NullSampleGrid.point(*direction)])
    return 10 * math.log10(mitigation_effectiveness(obj, w))


class TestGeodeticToDirection:
    def test_subsatellite_point_is_boresight(self):
        target = GeodeticPosition(SAT.longitude, SAT.latitude, 0.0)
        d = geodetic_to_direction(SAT, target)
        assert d.theta == pytest.approx(0.0, abs=1e-9)

    def test_east_west_symmetry(self):
        sat = GeodeticPosition.from_degrees(10.0, 0.0, 800e3)
        east = geodetic_to_direction(sat, GeodeticPosition.from_degrees(12.0, 0.0))
        west = geodetic_to_direction(sat, GeodeticPosition.from_degrees(8.0, 0.0))
        assert east.theta == pytest.approx(west.theta, abs=math.radians(0.01))
        assert abs((east.phi - west.phi) % (2 * math.pi)) == pytest.approx(
            math.pi, abs=math.radians(0.01)
        )

    def test_against_ned_decomposition(self):
        d = geodetic_to_direction(SAT, USER)
        rel = geodetic_to_ecef(USER) - geodetic_to_ecef(SAT)
        ned = ned_to_ecef_rotation(SAT.longitude, SAT.latitude).T @ rel
        srange = np.linalg.norm(ned)
        assert d.theta == pytest.approx(math.acos(ned[2] / srange), rel=1e-12)
        assert d.phi == pytest.approx(math.atan2(ned[0], ned[1]) % (2 * math.pi), rel=1e-12)

    def test_beyond_horizon_rejected(self):
        with pytest.raises(VisibilityError):
            geodetic_to_direction(SAT, GeodeticPosition.from_degrees(-41.5, 19.0))

    def test_target_at_the_satellite_rejected(self):
        # a zero line of sight has no direction
        with pytest.raises(VisibilityError, match="coincides"):
            geodetic_to_direction(SAT, SAT)

    def test_distant_satellite_sees_its_subsatellite_area_at_nadir(self):
        # the squares of a 1e200 m line of sight overflow, a RuntimeWarning
        # that pytest turns into an error
        sat = GeodeticPosition.from_degrees(138.53, -22.024, 1e200)
        d = geodetic_to_direction(sat, GeodeticPosition.from_degrees(136.0, -22.0))
        assert d.theta == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(sat_lon=st.floats(-180.0, 180.0), sat_lat=st.floats(-90.0, 90.0),
           alt_km=st.floats(100.0, 2000.0), d_lon=st.floats(-40.0, 40.0),
           d_lat=st.floats(-40.0, 40.0), target_alt_m=st.floats(-400.0, 9000.0))
    @example(sat_lon=0.0, sat_lat=0.0, alt_km=800.0, d_lon=40.0, d_lat=0.0, target_alt_m=0.0)
    @example(sat_lon=0.0, sat_lat=0.0, alt_km=800.0, d_lon=5.0, d_lat=0.0, target_alt_m=0.0)
    def test_horizon_refusal_matches_the_target_up_vector(
            self, sat_lon, sat_lat, alt_km, d_lon, d_lat, target_alt_m):
        sat = GeodeticPosition.from_degrees(sat_lon, sat_lat, alt_km * 1e3)
        target = GeodeticPosition.from_degrees(
            sat_lon + d_lon, min(90.0, max(-90.0, sat_lat + d_lat)), target_alt_m)
        # reference: the target's local up vector, built by hand
        up = np.array([math.cos(target.latitude) * math.cos(target.longitude),
                       math.cos(target.latitude) * math.sin(target.longitude),
                       math.sin(target.latitude)])
        line_of_sight = geodetic_to_ecef(target) - geodetic_to_ecef(sat)
        if -line_of_sight @ up < 0.0:
            with pytest.raises(VisibilityError, match="horizon"):
                geodetic_to_direction(sat, target)
        else:
            geodetic_to_direction(sat, target)


class TestDesignWeights:
    def test_zero_shaping_ignores_kappa(self):
        a = design_weights(make_scenario(sigma_s_deg=0.0, kappa=1))
        b = design_weights(make_scenario(sigma_s_deg=0.0, kappa=4))
        assert np.array_equal(a.weights.values, b.weights.values)
        # the sharp null reaches the eps_den clamp, which the result reports
        assert a.clamped and a.psi_db == pytest.approx(198.057, abs=1e-3)

    def test_kappa_zero_designs_as_the_point_design(self):
        # kappa = 0 stacks L^2 copies of the mean at 1 / L^2 each: the point
        # design's form, up to rounding, so psi agrees and both clamp
        point = design_weights(make_scenario(sigma_s_deg=0.0))
        collapsed = design_weights(make_scenario(kappa=0))
        assert point.clamped and collapsed.clamped
        assert abs(collapsed.psi_db - point.psi_db) <= 1e-9

    def test_end_to_end_feasible(self):
        result = design_weights(make_scenario())
        assert np.vdot(result.weights.values, result.weights.values).real <= 1.0 + 1e-9
        assert result.psi > 1.0 and not result.clamped

    @pytest.mark.memory_bound
    def test_design_memory_stays_bounded(self):
        # 40,000 grid directions: their whole steering matrix alone would be 41 MB
        sc = make_scenario(samples_per_axis=200)
        tracemalloc.start()
        try:
            optimize(build_objective(sc))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_direction_typed_scenario(self):
        sc = Scenario(
            satellite=SAT,
            array=ArrayModel.half_wavelength(20, 1, 0.015),
            users=(Direction(math.radians(30.0), 0.0),),
            interferers=(InterfererSite(Direction(0.0, 0.0), sigma_s=math.radians(1.0)),),
        )
        result = design_weights(sc)
        user_gain = gain(sc.array, result.weights, Direction(math.radians(30.0), 0.0))
        null_gain = gain(sc.array, result.weights, Direction(0.0, 0.0))
        assert 10 * math.log10(user_gain / max(null_gain, 1e-30)) > 40.0


class TestSweepWeights:
    """Each design of a sweep equals the design made alone."""

    def assert_lone_designs(self, sc, sigmas_deg):
        sigmas = [math.radians(s) for s in sigmas_deg]
        batched = _sweep_weights(sc, sigmas)
        assert len(batched) == len(sigmas)
        for sigma_s, w in zip(sigmas, batched):
            lone = design_weights(sc.with_sigma_s(sigma_s)).weights
            assert np.array_equal(w.values, lone.values)

    @pytest.mark.parametrize("sigmas_deg", [(0.0, 0.1, 0.3, 0.5), (0.5, 0.0, 1.0), (0.0,),
                                            (1e-300, 180.0, 1e-100)])
    def test_each_design_is_its_lone_design(self, sigmas_deg):
        # kappa = 0 and L = 1 shape build_grid's degenerate grids: L^2 copies
        # of the mean, and the mean alone
        for shaping in ({}, {"kappa": 0}, {"samples_per_axis": 1}):
            self.assert_lone_designs(make_scenario(**shaping), sigmas_deg)

    def test_two_users_two_interferers(self):
        sc = make_scenario()
        second = InterfererSite(position=GeodeticPosition.from_degrees(140.0, -20.5))
        sc = replace(sc, users=(USER, GeodeticPosition.from_degrees(137.0, -23.5)),
                     interferers=sc.interferers + (second,))
        self.assert_lone_designs(sc, (0.0, 0.2, 0.6))

    @pytest.mark.parametrize("rows_per_stack", [1, 2, 4])
    def test_blocked_forms_and_stacks(self, rows_per_stack, monkeypatch):
        # B of 25 grid directions summed from stacks of 1, 2 or 4 steering
        # rows (2 and 4: the last stack holds one row)
        monkeypatch.setattr(nullshaper.array, "_BLOCK_BYTES", 16 * 64 * rows_per_stack)
        self.assert_lone_designs(make_scenario(samples_per_axis=5), (0.0, 0.1, 0.3, 0.5))

    def test_single_design_keeps_its_place_in_a_longer_list(self):
        sc = make_scenario()
        sigmas = [math.radians(s) for s in (0.0, 0.1, 0.3, 0.5)]
        alone = _sweep_weights(sc, [sigmas[2]])[0]
        assert np.array_equal(_sweep_weights(sc, sigmas)[2].values, alone.values)


class TestResolvedDirections:
    """A scenario maps its ground points to directions once, on first use."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        original = nullshaper.simulation.geodetic_to_direction

        def counted(sat, target):
            calls.append(target)
            return original(sat, target)

        monkeypatch.setattr(nullshaper.simulation, "geodetic_to_direction", counted)
        return calls

    def test_resolved_once_and_not_shared_by_with_sigma_s(self, calls):
        sc = make_scenario()
        users, interferers = sc.user_directions(), sc.interferer_directions()
        assert sc.user_directions() is users and sc.interferer_directions() is interferers
        assert calls == [USER, INTERFERER]
        copy = sc.with_sigma_s(math.radians(0.7))
        assert copy.user_directions() == users and copy.user_directions() is not users
        assert copy.interferer_directions() == interferers
        assert copy.interferer_directions() is not interferers
        assert calls == [USER, INTERFERER, USER, INTERFERER]

    def test_copy_before_resolution_resolves_its_own(self, calls):
        sc = make_scenario()
        copy = sc.with_sigma_s(0.0)
        assert copy.interferer_directions() == sc.interferer_directions()
        assert calls == [INTERFERER, INTERFERER]

    def test_replace_resolves_afresh(self, calls):
        sc = make_scenario()
        sc.user_directions(), sc.interferer_directions()
        moved_sat = GeodeticPosition.from_degrees(139.0, -21.0, 700e3)
        moved = replace(sc, satellite=moved_sat)
        assert moved.user_directions() == (geodetic_to_direction(moved_sat, USER),)
        assert moved.user_directions() != sc.user_directions()
        assert len(calls) == 3

    def test_beyond_horizon_target_raises_on_use_not_on_load(self):
        far = InterfererSite(position=GeodeticPosition.from_degrees(-41.5, 19.0))
        sc = replace(make_scenario(), interferers=(far,))
        assert sc.user_directions() == make_scenario().user_directions()
        copy = sc.with_sigma_s(0.1)
        for scenario in (sc, copy):
            with pytest.raises(VisibilityError):
                scenario.interferer_directions()
            with pytest.raises(VisibilityError):
                _sweep_weights(scenario, [0.0])

    def test_sweep_resolves_each_ground_point_once(self, calls):
        sc = make_scenario()
        weights = _sweep_weights(sc, [math.radians(s) for s in (0.0, 0.1, 0.3, 0.5)])
        monte_carlo_sweeps(sc, weights, [0.0, 0.01], trials=3)
        assert calls == [INTERFERER, USER]


class TestMonteCarloSweep:
    def test_no_randomness_matches_design_value_exactly(self):
        sc = make_scenario(sigma_s_deg=0.0)
        result = design_weights(sc)
        sweep = monte_carlo_sweep(sc, result.weights, [0.0], trials=5, seed=3)
        assert sweep.mean_db[0] == pytest.approx(result.psi_db, abs=1e-9)
        assert sweep.std_db[0] == 0.0
        # in a multi-design sweep every design scores its value against the
        # mean interferer direction
        mean = sc.interferer_directions()[0]
        weights = [design_weights(sc.with_sigma_s(math.radians(s))).weights
                   for s in (0.0, 0.1, 0.3)]
        for w, (psi, _) in zip(weights, monte_carlo_sweeps(sc, weights, [0.0], trials=5, seed=3)):
            assert psi.mean_db[0] == pytest.approx(
                point_psi_db(sc, w, (mean.theta, mean.phi)), abs=1e-9
            )
            # identical trials; np.std may still round their mean by an ulp
            assert psi.std_db[0] == pytest.approx(0.0, abs=1e-12)

    def test_sharp_null_degrades_off_zero(self):
        sc = make_scenario(sigma_s_deg=0.0)
        result = design_weights(sc)
        sweep = monte_carlo_sweep(
            sc, result.weights, [0.0, math.radians(0.5)], trials=200, seed=4
        )
        assert sweep.mean_db[0] > sweep.mean_db[1]

    def test_crossover_exists_for_shaped_design(self):
        grid = [math.radians(s) for s in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
        sharp_sc = make_scenario(sigma_s_deg=0.0)
        shaped_sc = make_scenario(sigma_s_deg=0.3)
        sharp = monte_carlo_sweep(
            sharp_sc, design_weights(sharp_sc).weights, grid, trials=150, seed=5
        )
        shaped = monte_carlo_sweep(
            shaped_sc, design_weights(shaped_sc).weights, grid, trials=150, seed=5
        )
        cross = crossover_sigma(sharp, shaped)
        assert cross is not None and cross > 0.0

    def test_point_evaluation_matches_objective_path(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        sigma = math.radians(0.3)
        sweep = monte_carlo_sweep(sc, w, [sigma], trials=7, seed=6)
        # rebuild every trial by hand from the common draws, then score it
        # through the generic objective with a single-point grid of weight one
        trials_db = [point_psi_db(sc, w, draw[0]) for draw in realised_directions(sc, sigma, 7, 6)]
        assert sweep.mean_db[0] == pytest.approx(np.mean(trials_db), rel=1e-12)
        assert all(math.isfinite(v) for v in trials_db)

    def test_designs_swept_together_match_single_sweeps(self):
        sc = make_scenario()
        weights = [design_weights(sc.with_sigma_s(math.radians(s))).weights for s in (0.0, 0.3)]
        weights.append(WeightVector.uniform(64))
        grid = [0.0, math.radians(0.2), math.radians(0.6)]
        pairs = monte_carlo_sweeps(sc, weights, grid, trials=40, seed=12)
        assert len(pairs) == len(weights)
        for w, (psi, cap) in zip(weights, pairs):
            assert psi == monte_carlo_sweep(sc, w, grid, trials=40, seed=12)
            assert cap == monte_carlo_sweep(sc, w, grid, trials=40, seed=12, metric="capacity")

    def test_three_designs_three_interferers_match_per_design_scoring(self):
        extra = (InterfererSite(GeodeticPosition.from_degrees(140.0, -20.5)),
                 InterfererSite(GeodeticPosition.from_degrees(137.5, -23.0)))
        sc = replace(make_scenario(), interferers=make_scenario().interferers + extra)
        weights = [design_weights(sc.with_sigma_s(math.radians(s))).weights for s in (0.0, 0.3)]
        weights.append(WeightVector.uniform(64))
        grid = [0.0, math.radians(0.2), math.radians(0.6)]
        for trials in (1, 40):
            pairs = monte_carlo_sweeps(sc, weights, grid, trials=trials, seed=15)
            for w, (psi, cap) in zip(weights, pairs):
                assert psi == monte_carlo_sweep(sc, w, grid, trials=trials, seed=15)
                assert cap == monte_carlo_sweep(sc, w, grid, trials=trials, seed=15,
                                                metric="capacity")
                # one design alone: its (trials, J) gains, reduced trial by trial
                user_gain = Objective(sc.array, sc.user_directions()).user_gain_mean(w)
                for point, sigma in enumerate(grid):
                    realised = realised_directions(sc, sigma, trials, 15).reshape(-1, 2)
                    power = gains(sc.array, w, realised[:, 0], realised[:, 1]).reshape(trials, 3)
                    per_trial = 10.0 * np.log10(user_gain / np.maximum(power.mean(axis=1), EPS_DEN))
                    assert (psi.mean_db[point], psi.std_db[point]) == (
                        per_trial.mean(), per_trial.std())
                    if trials == 1:
                        assert cap.mean_db[point] == capacity(sc, w, realised)

    def test_row_independent_of_surrounding_grid(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        sigma = math.radians(0.4)
        alone = monte_carlo_sweep(sc, w, [sigma], trials=60, seed=13)
        inside = monte_carlo_sweep(
            sc, w, [0.0, math.radians(0.1), sigma, math.radians(0.8)], trials=60, seed=13
        )
        assert (alone.mean_db[0], alone.std_db[0]) == (inside.mean_db[2], inside.std_db[2])

    def test_blocked_steering_matches_default_bit_for_bit(self, monkeypatch):
        second = InterfererSite(position=GeodeticPosition.from_degrees(140.0, -20.5))
        sc = replace(make_scenario(), interferers=make_scenario().interferers + (second,))
        weights = [design_weights(sc).weights, WeightVector.uniform(64)]
        grid = [0.0, math.radians(0.3), math.radians(0.9)]
        default = monte_carlo_sweeps(sc, weights, grid, trials=37, seed=14)
        # 1-row blocks: 74 realised directions per sigma_i point, 74 blocks
        monkeypatch.setattr(nullshaper.array, "_BLOCK_BYTES", 1)
        assert monte_carlo_sweeps(sc, weights, grid, trials=37, seed=14) == default

    def test_grouping_of_sigma_points_does_not_change_a_bit(self, monkeypatch):
        second = InterfererSite(position=GeodeticPosition.from_degrees(140.0, -20.5))
        sc = replace(make_scenario(), interferers=make_scenario().interferers + (second,))
        weights = [design_weights(sc).weights, WeightVector.uniform(64)]
        grid = [0.0] + [math.radians(s) for s in (0.1, 0.4, 0.9, 1.5)]
        trials = 23
        default = monte_carlo_sweeps(sc, weights, grid, trials=trials, seed=16)
        # a group holds array._BLOCK_BYTES / 4 of (designs, points, trials, J) gains;
        # groups of 1 put sigma_i = 0 alone, groups of 2 and 5 next to others
        point_bytes = 8 * len(weights) * trials * len(sc.interferers)
        for points in (1, 2, len(grid)):
            monkeypatch.setattr(nullshaper.array, "_BLOCK_BYTES", 4 * points * point_bytes)
            assert monte_carlo_sweeps(sc, weights, grid, trials=trials, seed=16) == default

    def test_several_users_score_each_designs_mean_user_gain(self):
        # ten users: numpy sums nine or more values pairwise along a
        # contiguous row but one by one down a column, so only a per-design
        # row of user gains rounds as the design alone does
        users = tuple(Direction(0.05 + 0.1 * k, 0.6 * k) for k in range(10))
        sc = replace(make_scenario(), users=users)
        weights = [design_weights(sc).weights, WeightVector.uniform(64)]
        pairs = monte_carlo_sweeps(sc, weights, [0.0], trials=1, seed=17)
        mean = sc.interferer_directions()[0]
        objective = Objective(sc.array, sc.user_directions())
        for w, (psi, _) in zip(weights, pairs):
            # the design's mean user gain over three users, taken alone
            expected = 10.0 * np.log10(objective.user_gain_mean(w) / np.maximum(
                gains(sc.array, w, mean.theta, mean.phi), EPS_DEN))
            assert psi.mean_db[0] == expected

    @pytest.mark.memory_bound
    def test_sweep_memory_stays_bounded_in_the_grid(self):
        # 101 sigma_i points x 2,000 trials x 2 designs: their gains alone
        # are 3.2 MB, and one group of the whole grid peaks near 20 MB
        sc = make_scenario()
        weights = [design_weights(sc).weights, WeightVector.uniform(64)]
        grid = [math.radians(0.02 * i) for i in range(101)]
        # a tiny sweep first, so the first draw's import of numpy.random
        # is not traced
        monte_carlo_sweeps(sc, weights, grid[:2], trials=2, seed=18)
        tracemalloc.start()
        try:
            monte_carlo_sweeps(sc, weights, grid, trials=2000, seed=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_zero_sigma_point_steers_only_the_means(self, monkeypatch):
        second = InterfererSite(position=GeodeticPosition.from_degrees(140.0, -20.5))
        sc = replace(make_scenario(), interferers=make_scenario().interferers + (second,))
        score = nullshaper.array._response_power
        scored = []

        def counting_score(arr, rows, theta, phi, work):
            scored.append(theta.size)
            return score(arr, rows, theta, phi, work)

        monkeypatch.setattr(nullshaper.array, "_response_power", counting_score)
        monte_carlo_sweeps(sc, [WeightVector.uniform(64)], [0.0], trials=500)
        assert 0 < sum(scored) <= len(sc.users) + len(sc.interferers)

    def test_one_gains_call_per_group_of_sigma_points(self, monkeypatch):
        sc = make_scenario()
        weights = [design_weights(sc).weights, WeightVector.uniform(64)]
        grid = [math.radians(0.1 * i) for i in range(11)]
        trials = 500
        user = sc.user_directions()[0]
        score = nullshaper.simulation.gains
        calls = []

        def counting_gains(arr, w, theta, phi):
            calls.append(np.column_stack([theta, phi]))
            return score(arr, w, theta, phi)

        monkeypatch.setattr(nullshaper.simulation, "gains", counting_gains)
        default = monte_carlo_sweeps(sc, weights, grid, trials=trials, seed=19)
        assert len(calls) == 1
        # groups of 4, 4 and 3 points
        point_bytes = 8 * len(weights) * trials * len(sc.interferers)
        monkeypatch.setattr(nullshaper.array, "_BLOCK_BYTES", 4 * 4 * point_bytes)
        calls.clear()
        assert monte_carlo_sweeps(sc, weights, grid, trials=trials, seed=19) == default
        assert len(calls) == 3
        directions = np.concatenate(calls)
        assert np.all(directions == [user.theta, user.phi], axis=1).sum() == 3
        # each group scores the K users, the J means, and every trial of each
        # sigma_i > 0 point
        assert len(directions) == 3 * (len(sc.users) + len(sc.interferers)) + 10 * trials

    def test_no_weight_rows_sweep_nothing(self):
        assert monte_carlo_sweeps(make_scenario(), [], [0.0, 0.01], trials=3) == []

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [0.0, math.nan], [-0.01, 0.0]])
    def test_non_finite_or_negative_sigma_i_rejected(self, grid):
        with pytest.raises(ValueError, match="finite and >= 0"):
            monte_carlo_sweeps(make_scenario(), [WeightVector.uniform(64)], grid, trials=2)

    def test_trials_below_one_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            monte_carlo_sweeps(make_scenario(), [WeightVector.uniform(64)], [0.0], trials=0)

    def test_capacity_none_for_several_users(self):
        sc = replace(make_scenario(), users=(USER, GeodeticPosition.from_degrees(137.0, -21.0)))
        [(psi, cap)] = monte_carlo_sweeps(sc, [WeightVector.uniform(64)], [0.0], trials=2)
        assert cap is None and psi.metric == "psi"

    def test_bitwise_reproducible(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        grid = [0.0, math.radians(0.5)]
        a = monte_carlo_sweep(sc, w, grid, trials=50, seed=9)
        b = monte_carlo_sweep(sc, w, grid, trials=50, seed=9)
        assert a == b

    def test_doubling_trials_stays_within_error_bars(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        grid = [math.radians(s) for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
        small = monte_carlo_sweep(sc, w, grid, trials=400, seed=10)
        large = monte_carlo_sweep(sc, w, grid, trials=800, seed=11)
        ok = sum(
            abs(ms - ml) < 3.0 * (ss / math.sqrt(small.trials)) + 1e-9
            for ms, ml, ss in zip(small.mean_db, large.mean_db, small.std_db)
        )
        assert ok >= 0.95 * len(grid) - 1e-9

    def test_sorted_grid_required(self):
        sc = make_scenario()
        w = WeightVector.uniform(64)
        with pytest.raises(ValueError):
            monte_carlo_sweep(sc, w, [0.2, 0.1], trials=2)

    def test_unknown_metric_rejected(self):
        sc = make_scenario()
        with pytest.raises(ValueError):
            monte_carlo_sweep(sc, WeightVector.uniform(64), [0.0], trials=2, metric="nope")


class TestCapacity:
    def test_interference_free_limit(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        user_gain = gain(sc.array, w, sc.user_directions()[0])
        budget = LinkBudget(user_power=10.0, interferer_power=1e-30, noise_power=1.0)
        mean = sc.interferer_directions()[0]
        value = capacity(replace(sc, link_budget=budget), w, [[mean.theta + 0.1, mean.phi]])
        assert value == pytest.approx(math.log2(1.0 + 10.0 * user_gain), rel=1e-12)

    def test_zero_user_gain_zero_capacity(self):
        sc = make_scenario()
        mean = sc.interferer_directions()[0]
        assert capacity(sc, WeightVector(np.zeros(64)), [[mean.theta, mean.phi]]) == 0.0

    def test_monotone_in_interferer_gain(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        mean = sc.interferer_directions()[0]
        low = capacity(sc, w, [[mean.theta, mean.phi]])  # in the designed null
        high = capacity(sc, w, [[mean.theta + math.radians(3.0), mean.phi]])
        g_low = gain(sc.array, w, Direction(mean.theta, mean.phi))
        g_high = gain(sc.array, w, Direction(mean.theta + math.radians(3.0), mean.phi))
        assert g_low < g_high
        assert low > high

    def test_multiple_users_unsupported(self):
        sc = Scenario(
            satellite=SAT,
            array=ArrayModel.from_frequency(4, 4, 2.0e10),
            users=(USER, GeodeticPosition.from_degrees(137.0, -21.0)),
            interferers=(InterfererSite(INTERFERER),),
        )
        with pytest.raises(UnsupportedScenarioError):
            capacity(sc, WeightVector.uniform(16), [[0.3, 0.3]])
        with pytest.raises(UnsupportedScenarioError):
            monte_carlo_sweep(sc, WeightVector.uniform(16), [0.0], trials=2, metric="capacity")

    def test_single_trial_sweep_matches_capacity(self):
        sc = make_scenario()
        w = design_weights(sc).weights
        sigma = math.radians(0.5)
        sweep = monte_carlo_sweep(sc, w, [sigma], trials=1, seed=14, metric="capacity")
        assert sweep.mean_db[0] == capacity(sc, w, realised_directions(sc, sigma, 1, 14)[0])
        assert sweep.std_db[0] == 0.0


class TestCrossover:
    def test_mismatched_grids_rejected(self):
        from nullshaper.simulation import SweepResult

        a = SweepResult((0.0, 0.1), (1.0, 1.0), (0.0, 0.0), 5)
        b = SweepResult((0.0, 0.2), (1.0, 1.0), (0.0, 0.0), 5)
        with pytest.raises(ValueError):
            crossover_sigma(a, b)

    def test_none_when_never_better(self):
        from nullshaper.simulation import SweepResult

        a = SweepResult((0.0, 0.1), (5.0, 5.0), (0.0, 0.0), 5)
        b = SweepResult((0.0, 0.1), (1.0, 1.0), (0.0, 0.0), 5)
        assert crossover_sigma(a, b) is None


class TestScenarioLoading:
    def scenario_dict(self):
        return {
            "satellite": {"lon_deg": 138.53, "lat_deg": -22.024, "alt_m": 800000.0},
            "array": {"m": 8, "n": 8, "dx_over_lambda": 0.5, "dy_over_lambda": 0.5,
                      "freq_hz": 2.0e10},
            "users": [{"lon_deg": 136.0, "lat_deg": -22.0}],
            "interferers": [
                {"lon_deg": 141.5, "lat_deg": -19.0, "sigma_s_deg": 0.3, "sigma_i_deg": 0.5}
            ],
            "shaping": {"L": 3, "kappa": 1},
            "pso": {"iterations": 40, "polish": {"sweeps": 8}},
            "seed": 7,
        }

    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_dict()))
        sc = load_scenario(path)
        assert sc.array.size == 64
        assert sc.seed == 7
        assert sc.interferers[0].sigma_s == pytest.approx(math.radians(0.3))
        assert sc.samples_per_axis == 3 and sc.kappa == 1
        # older files' pso block and sigma_i_deg key are not read
        raw = self.scenario_dict()
        del raw["pso"], raw["interferers"][0]["sigma_i_deg"]
        assert scenario_from_dict(raw) == sc

    @pytest.mark.parametrize("path, key", [
        pytest.param((), "sigma_s_deg", id="top_level"),
        pytest.param(("satellite",), "alt_km", id="satellite"),
        pytest.param(("array",), "freq", id="array"),
        pytest.param(("users", 0), "alt", id="user"),
        pytest.param(("interferers", 0), "sigma_s", id="interferer"),
        pytest.param(("shaping",), "kapa", id="shaping"),
    ])
    def test_unknown_key_rejected(self, path, key):
        raw = self.scenario_dict()
        entry = raw
        for step in path:
            entry = entry[step]
        entry[key] = 1.0
        with pytest.raises(ScenarioError, match=f"unknown key in .*'{key}'"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("path, key, value", [
        pytest.param(("array",), "m", "8", id="array_m"),
        pytest.param((), "seed", "7", id="seed"),
        pytest.param(("shaping",), "L", "3", id="shaping_L"),
        pytest.param(("array",), "freq_hz", "2e10", id="freq_hz"),
        pytest.param(("satellite",), "alt_m", "8e5", id="satellite_alt_m"),
        pytest.param(("users", 0), "lon_deg", "136.0", id="user_lon_deg"),
        pytest.param(("interferers", 0), "sigma_s_deg", "0.3", id="sigma_s_deg"),
        pytest.param(("link_budget",), "user_power", "10", id="link_budget"),
        pytest.param(("array",), "dx_over_lambda", True, id="boolean_spacing"),
    ])
    def test_quoted_number_rejected(self, path, key, value):
        raw = self.scenario_dict()
        raw["link_budget"] = {"user_power": 10.0}
        entry = raw
        for step in path:
            entry = entry[step]
        entry[key] = value
        with pytest.raises(ScenarioError, match=f"{key} must be an? (number|integer), got {value!r}"):
            scenario_from_dict(raw)

    def test_integer_too_large_for_a_float_rejected(self):
        raw = self.scenario_dict()
        raw["satellite"]["alt_m"] = 10**400
        with pytest.raises(ScenarioError, match="too large"):
            scenario_from_dict(raw)

    def test_direction_entries(self):
        raw = self.scenario_dict()
        raw["users"] = [{"theta_deg": 30.0, "phi_deg": 0.0}]
        raw["interferers"] = [{"theta_deg": 0.0, "phi_deg": 0.0, "sigma_s_deg": 1.0}]
        sc = scenario_from_dict(raw)
        assert isinstance(sc.users[0], Direction)
        assert sc.interferer_directions()[0].theta == 0.0

    def test_mixed_entry_rejected(self):
        raw = self.scenario_dict()
        raw["users"] = [{"lon_deg": 1.0, "theta_deg": 3.0}]
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("section", ["users", "interferers"])
    @pytest.mark.parametrize("entry", [5, [0.0]], ids=["int", "list"])
    def test_entry_that_is_not_an_object_is_named_by_its_type(self, section, entry):
        raw = self.scenario_dict()
        raw[section] = [entry]
        kind = type(entry).__name__
        with pytest.raises(ScenarioError, match=f"^{section[:-1]} entry must be a JSON object, got {kind}$"):
            scenario_from_dict(raw)

    def test_missing_satellite_rejected(self):
        raw = self.scenario_dict()
        del raw["satellite"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_sigma_s_cap(self):
        raw = self.scenario_dict()
        raw["interferers"][0]["sigma_s_deg"] = MAX_SIGMA_S_DEG
        assert scenario_from_dict(raw).interferers[0].sigma_s == math.pi
        raw["interferers"][0]["sigma_s_deg"] = math.nextafter(MAX_SIGMA_S_DEG, math.inf)
        with pytest.raises(ScenarioError, match="sigma_s must be between 0 and 180 deg"):
            scenario_from_dict(raw)
        site = InterfererSite(INTERFERER, sigma_s=math.radians(MAX_SIGMA_S_DEG))
        for bad in (math.nextafter(site.sigma_s, math.inf), -1e-300, math.inf, math.nan):
            with pytest.raises(ValueError):
                replace(site, sigma_s=bad)

    def test_with_sigma_s_override(self):
        sc = scenario_from_dict(self.scenario_dict())
        replaced = sc.with_sigma_s(math.radians(0.7))
        assert replaced.interferers[0].sigma_s == pytest.approx(math.radians(0.7))
        assert sc.interferers[0].sigma_s == pytest.approx(math.radians(0.3))

    def test_link_budget_entry(self):
        raw = self.scenario_dict()
        raw["link_budget"] = {"user_power": 5.0, "interferer_power": 50.0, "noise_power": 2.0}
        sc = scenario_from_dict(raw)
        assert sc.link_budget.user_power == 5.0
        with pytest.raises(ValueError):
            LinkBudget(user_power=0.0)

    def test_integral_numbers_accepted_for_integer_fields(self):
        raw = self.scenario_dict()
        raw["array"].update(m=8.0, n=8.0)
        raw["shaping"] = {"L": 3.0, "kappa": 1.0}
        raw["seed"] = 7.0
        assert scenario_from_dict(raw) == scenario_from_dict(self.scenario_dict())

    @pytest.mark.parametrize("path", [("array", "m"), ("array", "n"), ("shaping", "L"),
                                      ("shaping", "kappa"), ("seed",)])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_rejected_for_integer_fields(self, path, value):
        # a JSON boolean is a Python bool, which int() would read as 1 or 0
        raw = self.scenario_dict()
        *parents, key = path
        entry = raw
        for parent in parents:
            entry = entry[parent]
        entry[key] = value
        with pytest.raises(ScenarioError, match=f"{'.'.join(path)} must be an integer, got {value}"):
            scenario_from_dict(raw)

    def test_shaping_and_seed_bounds(self):
        sc = scenario_from_dict(self.scenario_dict())
        replace(sc, samples_per_axis=316, kappa=10, seed=0)  # the largest accepted
        # a value past each bound is refused, and so is a scenario with no interferer
        for bad in ({"samples_per_axis": 0}, {"samples_per_axis": 317}, {"kappa": -1},
                    {"kappa": 11}, {"seed": -1}, {"interferers": ()}):
            with pytest.raises(ValueError):
                replace(sc, **bad)

    def test_pooled_grid_bound(self):
        # J interferers pool J x L x L shaping directions, at most MAX_GRID_POINTS
        sc = scenario_from_dict(self.scenario_dict())
        site = sc.interferers[0]
        for sites, samples in ((2, 223), (MAX_GRID_POINTS, 1)):  # the largest accepted
            replace(sc, interferers=(site,) * sites, samples_per_axis=samples)
        for sites, samples in ((2, 224), (MAX_GRID_POINTS + 1, 1)):
            with pytest.raises(ValueError, match=f"grid directions at most {MAX_GRID_POINTS}"):
                replace(sc, interferers=(site,) * sites, samples_per_axis=samples)

    def test_user_count_bound(self):
        # the design solves a K x K problem, capped as the N x N form is
        sc = scenario_from_dict(self.scenario_dict())
        replace(sc, users=sc.users * MAX_ELEMENTS)  # the largest accepted
        with pytest.raises(ValueError, match=f"between 1 and {MAX_ELEMENTS} users"):
            replace(sc, users=sc.users * (MAX_ELEMENTS + 1))
