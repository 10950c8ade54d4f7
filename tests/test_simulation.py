import json
import math

import numpy as np
import pytest

from nullshaper.array import ArrayModel, Direction, WeightVector, gain
from nullshaper.geodesy import GeodeticPosition, geodetic_to_ecef, ned_to_ecef_rotation
from nullshaper.optimizer import Objective, PolishConfig, PsoConfig, mitigation_effectiveness
from nullshaper.simulation import (
    InterfererSite,
    LinkBudget,
    Scenario,
    ScenarioError,
    UnsupportedScenarioError,
    VisibilityError,
    capacity,
    crossover_sigma,
    design_weights,
    geodetic_to_direction,
    load_scenario,
    monte_carlo_sweep,
    scenario_from_dict,
)
from nullshaper.uncertainty import NullSampleGrid

SAT = GeodeticPosition.from_degrees(138.53, -22.024, 800e3)
USER = GeodeticPosition.from_degrees(136.0, -22.0)
INTERFERER = GeodeticPosition.from_degrees(141.5, -19.0)

FAST_PSO = PsoConfig(iterations=40, seed=11, polish=PolishConfig(sweeps=8))


def make_scenario(sigma_s_deg=0.3, sigma_i_deg=0.5, m=8, n=8, **kwargs):
    return Scenario(
        satellite=SAT,
        array=ArrayModel.from_frequency(m, n, 2.0e10),
        users=(USER,),
        interferers=(
            InterfererSite(
                position=INTERFERER,
                sigma_s=math.radians(sigma_s_deg),
                sigma_i=math.radians(sigma_i_deg),
            ),
        ),
        pso=FAST_PSO,
        **kwargs,
    )


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
        rel = geodetic_to_ecef(USER).as_array() - geodetic_to_ecef(SAT).as_array()
        ned = ned_to_ecef_rotation(SAT.longitude, SAT.latitude).T @ rel
        srange = np.linalg.norm(ned)
        assert d.theta == pytest.approx(math.acos(ned[2] / srange), rel=1e-12)
        assert d.phi == pytest.approx(math.atan2(ned[0], ned[1]) % (2 * math.pi), rel=1e-12)

    def test_beyond_horizon_rejected(self):
        with pytest.raises(VisibilityError):
            geodetic_to_direction(SAT, GeodeticPosition.from_degrees(-41.5, 19.0))


class TestDesignWeights:
    def test_zero_shaping_ignores_kappa(self):
        a = design_weights(make_scenario(sigma_s_deg=0.0, kappa=1))
        b = design_weights(make_scenario(sigma_s_deg=0.0, kappa=4))
        assert np.array_equal(a.weights.values, b.weights.values)
        # the sharp null reaches the eps_den clamp, which the result reports
        assert a.clamped and a.psi_db == pytest.approx(198.057, abs=1e-3)

    def test_end_to_end_feasible(self):
        result = design_weights(make_scenario())
        assert result.weights.norm_sq() <= 1.0 + 1e-9
        assert result.psi > 1.0 and not result.clamped

    def test_direction_typed_scenario(self):
        sc = Scenario(
            satellite=SAT,
            array=ArrayModel.half_wavelength(20, 1, 0.015),
            users=(Direction(math.radians(30.0), 0.0),),
            interferers=(InterfererSite(Direction(0.0, 0.0), sigma_s=math.radians(1.0)),),
            pso=FAST_PSO,
        )
        result = design_weights(sc)
        user_gain = gain(sc.array, result.weights, Direction(math.radians(30.0), 0.0))
        null_gain = gain(sc.array, result.weights, Direction(0.0, 0.0))
        assert 10 * math.log10(user_gain / max(null_gain, 1e-30)) > 40.0


class TestMonteCarloSweep:
    def test_no_randomness_matches_design_value_exactly(self):
        sc = make_scenario(sigma_s_deg=0.0)
        result = design_weights(sc)
        sweep = monte_carlo_sweep(sc, result.weights, [0.0], trials=5, seed=3)
        assert sweep.mean_db[0] == pytest.approx(result.psi_db, abs=1e-9)
        assert sweep.std_db[0] == 0.0

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
        sweep = monte_carlo_sweep(sc, w, [math.radians(0.3)], trials=7, seed=6)
        # rebuild trial 0 by hand: same rng keying, then score through the
        # generic objective with a single-point grid of weight one
        rng = np.random.default_rng([6, 0, 0])
        mean = sc.interferer_directions()[0]
        draw = rng.normal([mean.theta, mean.phi], math.radians(0.3))
        obj = Objective(
            sc.array, sc.user_directions(), [NullSampleGrid.point(draw[0], draw[1])]
        )
        psi_trial = mitigation_effectiveness(obj, w)
        trials_db = []
        for trial in range(7):
            r = np.random.default_rng([6, 0, trial])
            d = r.normal([mean.theta, mean.phi], math.radians(0.3))
            o = Objective(sc.array, sc.user_directions(), [NullSampleGrid.point(d[0], d[1])])
            trials_db.append(10 * math.log10(mitigation_effectiveness(o, w)))
        assert sweep.mean_db[0] == pytest.approx(np.mean(trials_db), rel=1e-12)
        assert psi_trial > 0.0

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
        value = capacity(sc, w, [[mean.theta + 0.1, mean.phi]], budget)
        assert value == pytest.approx(math.log2(1.0 + 10.0 * user_gain), rel=1e-12)

    def test_zero_user_gain_zero_capacity(self):
        sc = make_scenario()
        mean = sc.interferer_directions()[0]
        assert capacity(sc, WeightVector.zeros(64), [[mean.theta, mean.phi]]) == 0.0

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
            pso=FAST_PSO,
        )
        with pytest.raises(UnsupportedScenarioError):
            capacity(sc, WeightVector.uniform(16), [[0.3, 0.3]])
        with pytest.raises(UnsupportedScenarioError):
            monte_carlo_sweep(sc, WeightVector.uniform(16), [0.0], trials=2, metric="capacity")

    def test_direction_list_accepted(self):
        sc = make_scenario()
        w = WeightVector.uniform(64)
        a = capacity(sc, w, [Direction(0.3, 0.4)])
        b = capacity(sc, w, [[0.3, 0.4]])
        assert a == b


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
        assert sc.pso.seed == 7
        assert sc.pso.iterations == 40
        assert sc.pso.polish.sweeps == 8
        assert sc.interferers[0].sigma_s == pytest.approx(math.radians(0.3))
        assert sc.samples_per_axis == 3 and sc.kappa == 1

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
