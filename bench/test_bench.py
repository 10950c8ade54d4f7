"""Tests of the benchmark's own arithmetic, generator, parsers and checks."""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
import pytest

import run
import tracing
import workloads

ns = workloads.import_nullshaper()


def test_self_time_on_synthetic_span_tree():
    #   root [0, 100]
    #   +- a [10, 40]
    #   +- b [50, 90]
    #      +- c [60, 70]
    start = [0, 10, 50, 60]
    end = [100, 40, 90, 70]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent).tolist() == [30.0, 30.0, 30.0, 10.0]

    rec = tracing.Recorder()
    for name in ("cli.main", "optimizer.value_batch", "simulation.sweep", "array.steering"):
        rec.name_id(name)
    rec.name_of = [0, 1, 1, 2, 3, 0]
    rec.start = [0, 10, 50, 60, 65, 200]
    rec.end = [100, 40, 90, 70, 68, 260]
    rec.parent = [-1, 0, 0, 0, 3, -1]
    rec.job_of = [0, 0, 0, 0, 0, 1]
    table = tracing.span_table(rec)
    assert table[0]["cli.main"] == (1, pytest.approx(100e-9), pytest.approx(20e-9))
    assert table[0]["optimizer.value_batch"] == (2, pytest.approx(70e-9), pytest.approx(70e-9))
    assert table[0]["simulation.sweep"] == (1, pytest.approx(10e-9), pytest.approx(7e-9))
    assert table[1]["cli.main"] == (1, pytest.approx(60e-9), pytest.approx(60e-9))
    assert table[1]["array.steering"][0] == 0

    metrics = tracing.job_layer_metrics(table[0], {"value_batch.rows": 6.0}, [], 0)
    assert metrics["optimizer.self_s"] == pytest.approx(70e-9)
    assert metrics["optimizer.rows_per_call"] == 3.0
    assert metrics["cli.self_s"] == pytest.approx(20e-9)


def test_traced_block_records_nested_spans_and_restores_entry_points():
    arr = ns.ArrayModel.half_wavelength(4, 4, 1.0)
    objective = ns.Objective(arr, [ns.Direction(0.2, 0.0)])
    original = ns.optimizer.Objective.value_batch
    rec = tracing.Recorder()
    with tracing.traced(rec, ns):
        ns.simulation.geodetic_to_direction(
            ns.GeodeticPosition.from_degrees(0.0, 0.0, 8e5), ns.GeodeticPosition.from_degrees(1.0, 1.0)
        )
        objective.value(np.ones(16) / 4.0)
    assert ns.optimizer.Objective.value_batch is original
    assert [rec.names[i] for i in rec.name_of] == ["simulation.to_direction", "optimizer.value_batch"]
    assert rec.counters[0]["value_batch.rows"] == 1
    assert rec.counters[0]["objective_cmacs"] == 16


def test_generator_is_deterministic_and_every_point_visible(tmp_path):
    first = workloads.scaled_scenario(7)
    assert first == workloads.scaled_scenario(7)
    assert first != workloads.scaled_scenario(8)
    assert first["seed"] == 7
    assert len(first["users"]) == 2 and len(first["interferers"]) == 4

    satellite = first["satellite"]
    sat = ns.GeodeticPosition.from_degrees(satellite["lon_deg"], satellite["lat_deg"], satellite["alt_m"])
    for point in first["users"] + first["interferers"]:
        ns.geodetic_to_direction(sat, ns.GeodeticPosition.from_degrees(point["lon_deg"], point["lat_deg"]))

    a = workloads.write_scaled_scenario(tmp_path / "a.json", 7).read_bytes()
    b = workloads.write_scaled_scenario(tmp_path / "b.json", 7).read_bytes()
    assert a == b
    scenario = ns.load_scenario(tmp_path / "a.json")
    assert scenario.array.size == 256
    assert sum(len(grid) for grid in ns.build_objective(scenario).interferer_grids) == 100


SWEEP_FIXTURE = """\
# tool=nullshaper 0.1.0 seed=42
sigma_i_deg,psi_db_mean,psi_db_std,trials
0.0,74.25,0.0,500
0.5,101.5,14.0,500
1.0,96.0625,14.8,500
# crossover_vs_sigma_s_0_deg=0.2
"""


def test_quality_parser_on_fixture_csv(tmp_path):
    path = tmp_path / "sweep_sigmas_0.3.csv"
    path.write_text(SWEEP_FIXTURE)
    assert workloads.sweep_value_at(path) == 96.0625
    assert workloads.sweep_value_at(path, 0.5) == 101.5
    assert workloads.column(path, "trials") == [500.0, 500.0, 500.0]
    assert workloads.crossover(path) == 0.2

    path.write_text(SWEEP_FIXTURE.replace("=0.2", "=none"))
    assert workloads.crossover(path) is None
    with pytest.raises(ValueError):
        workloads.sweep_value_at(path, 2.0)


def test_forced_failing_check_raises_error_rate(tmp_path, monkeypatch, capsys):
    real_main = ns.cli.main
    calls = []

    def main_failing_once(argv):
        calls.append(argv)
        # geometry runs three commands per job: fail the first of job two
        return 3 if len(calls) == 4 else real_main(argv)

    monkeypatch.setattr(ns.cli, "main", main_failing_once)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run(argparse.Namespace(workload="geometry", seed=0, seconds=0.0, trace=1))
    assert (result["jobs"], result["failed_jobs"]) == (3, 1)
    assert result["error_rate"] == pytest.approx(1 / 3)
    assert "geodesy exited with 3" in result["failures"][0]

    run.report(result)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 3, 1)
    assert set(last["metrics"]) == set(tracing.LAYER_METRICS)
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
