"""Span tracing installed from outside the package, and per-layer metrics.

``traced(recorder, package)`` wraps the public entry points of each nullshaper
module for the duration of a ``with`` block. Module functions are replaced
in the defining module and in every module that imported them by name (the
CLI and simulation look names up in their own namespace); methods are
replaced on the class. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time covered by its direct
children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

class Recorder:
    """In-memory spans (name, start, end, parent, job) and per-job counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.job_of: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.designs: dict[int, list] = defaultdict(list)
        self.job = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_of.append(self.job)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[self.job][key] += value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_of, dtype=np.int16),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job_of, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays plus the span-name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


# ---------------------------------------------------------------------------
# Wrappers


def _count_value_batch(rec, args, result):
    objective, weights = args[0], args[1]
    rows = weights.shape[0]
    directions = objective.user_count + sum(len(g) for g in objective.interferer_grids)
    rec.count("value_batch.rows", rows)
    rec.count("objective_cmacs", rows * directions * objective.array.size)


def _count_steering(rec, args, result):
    rec.count("steering.rows", 1 if result.ndim == 1 else result.shape[0])
    rec.count("steering.bytes", result.nbytes)


def _count_optimize(rec, args, result):
    rec.count("evaluations", result.evaluations)
    rec.designs[rec.job].append((args[0], result))


def _count_sweep(rec, args, result):
    rec.count("trials", result.trials * len(result.sigma_i_deg))


def _count_grid(rec, args, result):
    rec.count("grid_points", len(result))


def _targets(ns):
    """(span name, owners, attribute, counter) for every traced entry point."""
    cli, sim, opt = ns.cli, ns.simulation, ns.optimizer
    unc, arr, geo, svg = ns.uncertainty, ns.array, ns.geodesy, ns._svg
    return (
        ("cli.main", (cli,), "main", None),
        ("cli.svg", (svg, cli), "write_line_chart", None),
        ("simulation.design", (sim, cli), "design_weights", None),
        ("simulation.build_objective", (sim,), "build_objective", None),
        ("simulation.sweep", (sim, cli), "monte_carlo_sweep", _count_sweep),
        ("simulation.to_direction", (sim,), "geodetic_to_direction", None),
        ("optimizer.optimize", (opt, sim), "optimize", _count_optimize),
        ("optimizer.value_batch", (opt.Objective,), "value_batch", _count_value_batch),
        ("uncertainty.build_grid", (unc, sim), "build_grid", _count_grid),
        ("array.steering", (arr.ArrayModel,), "steering", _count_steering),
        ("array.pattern_cut", (arr, cli), "pattern_cut", None),
        ("geodesy.deviation", (geo, cli), "angular_deviation_to_ground_distance", None),
        ("geodesy.footprint", (geo,), "ground_footprint", None),
        ("geodesy.ecef_to_geodetic", (geo,), "ecef_to_geodetic", None),
    )


def _wrap(rec: Recorder, name: str, fn, counter):
    name_id = rec.name_id(name)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            counter(rec, args, result)
        return result

    return traced_call


@contextmanager
def traced(rec: Recorder, ns):
    """Install span wrappers on the nullshaper package ``ns`` for the block."""
    saved = []
    try:
        for name, owners, attr, counter in _targets(ns):
            wrapper = _wrap(rec, name, getattr(owners[0], attr), counter)
            for owner in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics

#: Per-layer metric name -> unit, in report order. ``-computed`` units are
#: derived from array sizes, not measured.
LAYER_METRICS = {
    "optimizer.self_s": "s",
    "optimizer.optimize.calls": "count",
    "optimizer.optimize.self_s": "s",
    "optimizer.evaluations": "count",
    "optimizer.value_batch.calls": "count",
    "optimizer.value_batch.rows": "count",
    "optimizer.value_batch.s": "s",
    "optimizer.rows_per_call": "count",
    "optimizer.objective_cmacs": "cmac-computed",
    "optimizer.search_gain_db": "dB",
    "optimizer.clamped_designs": "count",
    "simulation.self_s": "s",
    "simulation.design.calls": "count",
    "simulation.design.s": "s",
    "simulation.build_objective.s": "s",
    "simulation.sweep.calls": "count",
    "simulation.sweep.s": "s",
    "simulation.trials": "count",
    "simulation.trial_us": "us",
    "simulation.to_direction.calls": "count",
    "simulation.to_direction.s": "s",
    "array.self_s": "s",
    "array.steering.calls": "count",
    "array.steering.rows": "count",
    "array.steering.s": "s",
    "array.steering.bytes": "B-computed",
    "array.pattern_cut.s": "s",
    "uncertainty.self_s": "s",
    "uncertainty.build_grid.calls": "count",
    "uncertainty.grid_points": "count",
    "uncertainty.build_grid.s": "s",
    "geodesy.self_s": "s",
    "geodesy.deviation.calls": "count",
    "geodesy.deviation.s": "s",
    "geodesy.footprint.calls": "count",
    "geodesy.ecef_to_geodetic.calls": "count",
    "geodesy.ecef_to_geodetic.s": "s",
    "cli.self_s": "s",
    "cli.svg_s": "s",
    "cli.bytes_out": "B",
    "trace_overhead_pct": "%",
}


def span_table(rec: Recorder) -> dict[int, dict[str, tuple[int, float, float]]]:
    """Per job, per span name: (calls, inclusive seconds, self seconds)."""
    arrays = rec.arrays()
    duration = (arrays["end_ns"] - arrays["start_ns"]).astype(float) / 1e9
    selves = self_times(arrays["start_ns"], arrays["end_ns"], arrays["parent"]) / 1e9
    table = {}
    for job in np.unique(arrays["job"]):
        mask = arrays["job"] == job
        ids = arrays["name"][mask]
        size = len(rec.names)
        calls = np.bincount(ids, minlength=size)
        inclusive = np.bincount(ids, weights=duration[mask], minlength=size)
        own = np.bincount(ids, weights=selves[mask], minlength=size)
        table[int(job)] = {
            label: (int(calls[i]), float(inclusive[i]), float(own[i]))
            for i, label in enumerate(rec.names)
        }
    return table


def job_layer_metrics(spans: dict, counters: dict, designs: list, bytes_out: int) -> dict:
    """Per-layer metrics of one traced job (everything but trace overhead)."""

    def calls(label):
        return spans.get(label, (0, 0.0, 0.0))[0]

    def total(label):
        return spans.get(label, (0, 0.0, 0.0))[1]

    def self_s(label):
        return spans.get(label, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(own for label, (_, _, own) in spans.items() if label.split(".")[0] == layer)

    batch_calls = calls("optimizer.value_batch")
    trials = counters.get("trials", 0.0)
    gains = [result.trace[-1] - result.trace[0] for _, result in designs]
    clamped = sum(
        1 for objective, result in designs
        if objective.interferer_count and objective.interferer_gain_mean(result.weights) <= objective.eps_den
    )
    return {
        "optimizer.self_s": layer_self("optimizer"),
        "optimizer.optimize.calls": calls("optimizer.optimize"),
        "optimizer.optimize.self_s": self_s("optimizer.optimize"),
        "optimizer.evaluations": counters.get("evaluations", 0.0),
        "optimizer.value_batch.calls": batch_calls,
        "optimizer.value_batch.rows": counters.get("value_batch.rows", 0.0),
        "optimizer.value_batch.s": total("optimizer.value_batch"),
        "optimizer.rows_per_call": counters.get("value_batch.rows", 0.0) / batch_calls if batch_calls else 0.0,
        "optimizer.objective_cmacs": counters.get("objective_cmacs", 0.0),
        "optimizer.search_gain_db": statistics.fmean(gains) if gains else 0.0,
        "optimizer.clamped_designs": clamped,
        "simulation.self_s": layer_self("simulation"),
        "simulation.design.calls": calls("simulation.design"),
        "simulation.design.s": total("simulation.design"),
        "simulation.build_objective.s": total("simulation.build_objective"),
        "simulation.sweep.calls": calls("simulation.sweep"),
        "simulation.sweep.s": total("simulation.sweep"),
        "simulation.trials": trials,
        "simulation.trial_us": total("simulation.sweep") / trials * 1e6 if trials else 0.0,
        "simulation.to_direction.calls": calls("simulation.to_direction"),
        "simulation.to_direction.s": total("simulation.to_direction"),
        "array.self_s": layer_self("array"),
        "array.steering.calls": calls("array.steering"),
        "array.steering.rows": counters.get("steering.rows", 0.0),
        "array.steering.s": total("array.steering"),
        "array.steering.bytes": counters.get("steering.bytes", 0.0),
        "array.pattern_cut.s": total("array.pattern_cut"),
        "uncertainty.self_s": layer_self("uncertainty"),
        "uncertainty.build_grid.calls": calls("uncertainty.build_grid"),
        "uncertainty.grid_points": counters.get("grid_points", 0.0),
        "uncertainty.build_grid.s": total("uncertainty.build_grid"),
        "geodesy.self_s": layer_self("geodesy"),
        "geodesy.deviation.calls": calls("geodesy.deviation"),
        "geodesy.deviation.s": total("geodesy.deviation"),
        "geodesy.footprint.calls": calls("geodesy.footprint"),
        "geodesy.ecef_to_geodetic.calls": calls("geodesy.ecef_to_geodetic"),
        "geodesy.ecef_to_geodetic.s": total("geodesy.ecef_to_geodetic"),
        "cli.self_s": self_s("cli.main"),
        "cli.svg_s": total("cli.svg"),
        "cli.bytes_out": bytes_out,
    }


def layer_metrics(rec: Recorder, bytes_out: dict[int, int], traced_s: list[float],
                  untraced_s: list[float]) -> dict:
    """Median over traced jobs of each per-layer metric, plus the trace
    overhead: fastest traced job against fastest untraced job."""
    table = span_table(rec)
    per_job = [
        job_layer_metrics(table.get(job, {}), rec.counters.get(job, {}),
                          rec.designs.get(job, []), bytes_out[job])
        for job in sorted(bytes_out)
    ]
    metrics = {name: float(statistics.median(job[name] for job in per_job)) for name in per_job[0]}
    overhead = min(traced_s) / min(untraced_s) - 1.0
    metrics["trace_overhead_pct"] = 100.0 * overhead
    return {name: metrics[name] for name in LAYER_METRICS}
