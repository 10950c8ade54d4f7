"""Command-line front end.

Four subcommands drive the library against a JSON scenario file:

* ``pattern``   - design weights (or take uniform ones) and export a gain cut
* ``optimize``  - design weights and export them plus a one-row trace
* ``sweep``     - design per shaping value and run robustness sweeps
* ``geodesy``   - pointing-error to ground-distance tables over altitude

Every CSV starts with a comment line recording the tool version and seed,
then a header row. Outputs are deterministic for a fixed scenario and
seed, so re-running a command overwrites files with identical bytes.

Exit codes: 0 success, 1 usage error, 2 scenario validation error,
3 runtime error (non-convergence, missed rays, I/O failures).

``NULLSHAPER_THREADS`` caps worker concurrency; evaluation in this
implementation is vectorised in-process, which always satisfies the cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import write_line_chart
from .array import WeightVector, pattern_cut
from .geodesy import (
    AerPosition,
    ConvergenceError,
    GeodeticPosition,
    RayMissError,
    angular_deviation_to_ground_distance,
)
from .simulation import (
    Scenario,
    ScenarioError,
    UnsupportedScenarioError,
    VisibilityError,
    crossover_sigma,
    design_weights,
    load_scenario,
    monte_carlo_sweep,
)

__all__ = ["main", "entrypoint"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_SCENARIO = 2
_EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, seed: int, header, rows, footer_comments=()) -> None:
    lines = [f"# tool=nullshaper {__version__} seed={seed}"]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(footer_comments)
    path.write_text("\n".join(lines) + "\n")


def _sigma_value_token(value_deg: float) -> str:
    return f"{value_deg:g}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="nullshaper", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nullshaper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory (created on demand)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--kappa", type=int, default=None, help="override shaping kappa")
        p.add_argument("--L", dest="samples_per_axis", type=int, default=None,
                       help="override shaping samples per axis")
        p.add_argument("--format", choices=("csv", "svg", "both"), default="csv")

    pattern = sub.add_parser("pattern", help="export a gain pattern cut")
    add_common(pattern)
    pattern.add_argument("--phi-cut", type=float, default=0.0,
                         help="azimuth of the cut plane in degrees (default 0)")
    pattern.add_argument("--samples", type=int, default=3601)
    pattern.add_argument("--uniform", action="store_true",
                         help="skip optimisation and use uniform weights")

    optimize_cmd = sub.add_parser("optimize", help="design weights and export them")
    add_common(optimize_cmd)

    sweep = sub.add_parser("sweep", help="robustness sweep over interferer error")
    add_common(sweep)
    sweep.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo trials per sigma_i point (default 1000)")
    sweep.add_argument("--sigma-s", type=str, default=None,
                       help="comma list of shaping sigmas in degrees, one design each "
                            "(default: the scenario's interferer sigma_s)")
    sweep.add_argument("--sigma-i-max", type=float, default=1.0)
    sweep.add_argument("--sigma-i-step", type=float, default=0.1)
    sweep.add_argument("--capacity", action="store_true",
                       help="also sweep single-user Shannon capacity")

    geodesy = sub.add_parser("geodesy", help="pointing error vs ground distance tables")
    add_common(geodesy)
    geodesy.add_argument("--altitudes-km", type=str, default="400,600,800,1000,1200",
                         help="comma list of satellite altitudes in km")
    geodesy.add_argument("--deviation-max", type=float, default=1.0,
                         help="swept deviation maximum in degrees")
    geodesy.add_argument("--deviation-step", type=float, default=0.1)
    geodesy.add_argument("--fixed-deviation", type=float, default=0.5,
                         help="held deviation of the other axis in degrees")
    geodesy.add_argument("--expected-azimuth-deg", type=float, default=None,
                         help="expected-ray azimuth; default derived from the first interferer")
    geodesy.add_argument("--expected-elevation-deg", type=float, default=None,
                         help="expected-ray elevation; default derived from the first interferer")
    return parser


def _check_thread_cap() -> None:
    raw = os.environ.get("NULLSHAPER_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise _UsageError(f"NULLSHAPER_THREADS must be an integer, got {raw!r}")
    if cap < 1:
        raise _UsageError("NULLSHAPER_THREADS must be >= 1")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    from dataclasses import replace

    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.kappa is not None:
        if args.kappa < 0:
            raise ScenarioError("kappa must be >= 0")
        scenario = replace(scenario, kappa=args.kappa)
    if args.samples_per_axis is not None:
        if args.samples_per_axis < 1:
            raise ScenarioError("L must be >= 1")
        scenario = replace(scenario, samples_per_axis=args.samples_per_axis)
    return scenario


def _cmd_pattern(scenario: Scenario, args, out_dir: Path) -> int:
    if args.samples < 2:
        raise _UsageError("--samples must be >= 2")
    if args.uniform:
        weights = WeightVector.uniform(scenario.array.size)
    else:
        weights = design_weights(scenario).weights
    phi_rad = math.radians(args.phi_cut)
    angles, levels = pattern_cut(
        scenario.array, weights, phi_cut=phi_rad, samples=args.samples
    )
    token = _sigma_value_token(args.phi_cut)
    csv_path = out_dir / f"pattern_phi{token}.csv"
    rows = [(math.degrees(a), float(g)) for a, g in zip(angles, levels)]
    if args.format in ("csv", "both"):
        _write_csv(csv_path, scenario.seed, ("angle_deg", "gain_db"), rows)
        print(f"wrote {csv_path}")
    if args.format in ("svg", "both"):
        svg_path = out_dir / f"pattern_phi{token}.svg"
        write_line_chart(
            svg_path,
            {"gain": ([r[0] for r in rows], [r[1] for r in rows])},
            f"Gain cut at azimuth {args.phi_cut:g} deg",
            "polar angle [deg]",
            "gain [dB]",
        )
        print(f"wrote {svg_path}")
    return _EXIT_OK


def _cmd_optimize(scenario: Scenario, args, out_dir: Path) -> int:
    started = time.perf_counter()
    result = design_weights(scenario)
    elapsed = time.perf_counter() - started

    values = result.weights.values
    amplitudes = result.weights.amplitudes()
    phases = result.weights.phases()
    n_cols = scenario.array.n
    weight_rows = [
        (idx // n_cols, idx % n_cols, values[idx].real, values[idx].imag,
         float(amplitudes[idx]), float(phases[idx]))
        for idx in range(values.size)
    ]
    _write_csv(
        out_dir / "weights.csv",
        scenario.seed,
        ("m", "n", "re", "im", "amp", "phase_rad"),
        weight_rows,
    )
    _write_csv(
        out_dir / "trace.csv",
        scenario.seed,
        ("iteration", "best_psi_db", "evaluations"),
        [(0, result.psi_db, result.evaluations)],
    )
    print(
        f"psi_db={result.psi_db:.3f} evaluations={result.evaluations} "
        f"loading={result.loading:.3e} clamped={result.clamped} "
        f"wall_time_s={elapsed:.3f}"
    )
    return _EXIT_OK


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"invalid {what} list {text!r}: {exc}") from exc
    if not values:
        raise _UsageError(f"{what} list is empty")
    return values


def _cmd_sweep(scenario: Scenario, args, out_dir: Path) -> int:
    if args.sigma_s is not None:
        sigma_s_list = _parse_float_list(args.sigma_s, "sigma-s")
    else:
        sigma_s_list = [math.degrees(scenario.interferers[0].sigma_s)]
    if args.sigma_i_max < 0 or args.sigma_i_step <= 0:
        raise _UsageError("sigma-i grid must have max >= 0 and step > 0")
    trials = args.trials if args.trials is not None else 1000
    if trials < 1:
        raise _UsageError("--trials must be >= 1")

    steps = int(round(args.sigma_i_max / args.sigma_i_step))
    sigma_i_deg = [i * args.sigma_i_step for i in range(steps + 1)]
    sigma_i_rad = [math.radians(s) for s in sigma_i_deg]

    sweeps = {}
    capacity_sweeps = {}
    for sigma_s_deg in sigma_s_list:
        design_scenario = scenario.with_sigma_s(math.radians(sigma_s_deg))
        result = design_weights(design_scenario)
        sweeps[sigma_s_deg] = monte_carlo_sweep(
            design_scenario, result.weights, sigma_i_rad, trials=trials, seed=scenario.seed
        )
        if args.capacity:
            if len(scenario.users) == 1:
                capacity_sweeps[sigma_s_deg] = monte_carlo_sweep(
                    design_scenario,
                    result.weights,
                    sigma_i_rad,
                    trials=trials,
                    seed=scenario.seed,
                    metric="capacity",
                )
            else:
                print("capacity sweep skipped: scenario serves more than one user",
                      file=sys.stderr)

    baseline = sweeps.get(0.0)
    for sigma_s_deg, sweep in sweeps.items():
        footer = []
        if baseline is not None and sigma_s_deg != 0.0:
            cross = crossover_sigma(baseline, sweep)
            footer.append(
                f"# crossover_vs_sigma_s_0_deg={_fmt(cross) if cross is not None else 'none'}"
            )
        token = _sigma_value_token(sigma_s_deg)
        rows = list(zip(sweep.sigma_i_deg, sweep.mean_db, sweep.std_db,
                        [sweep.trials] * len(sweep.sigma_i_deg)))
        if args.format in ("csv", "both"):
            path = out_dir / f"sweep_sigmas_{token}.csv"
            _write_csv(path, scenario.seed,
                       ("sigma_i_deg", "psi_db_mean", "psi_db_std", "trials"), rows, footer)
            print(f"wrote {path}")
        cap = capacity_sweeps.get(sigma_s_deg)
        if cap is not None and args.format in ("csv", "both"):
            path = out_dir / f"capacity_{token}.csv"
            cap_rows = list(zip(cap.sigma_i_deg, cap.mean_db, cap.std_db,
                                [cap.trials] * len(cap.sigma_i_deg)))
            _write_csv(path, scenario.seed,
                       ("sigma_i_deg", "capacity_mean", "capacity_std", "trials"), cap_rows)
            print(f"wrote {path}")

    if args.format in ("svg", "both"):
        series = {
            f"sigma_s={_sigma_value_token(s)} deg": (list(sw.sigma_i_deg), list(sw.mean_db))
            for s, sw in sweeps.items()
        }
        svg_path = out_dir / "sweep_psi.svg"
        write_line_chart(svg_path, series, "Mitigation effectiveness vs interferer deviation",
                         "sigma_i [deg]", "mean effectiveness [dB]")
        print(f"wrote {svg_path}")
        if capacity_sweeps:
            series = {
                f"sigma_s={_sigma_value_token(s)} deg": (list(sw.sigma_i_deg), list(sw.mean_db))
                for s, sw in capacity_sweeps.items()
            }
            svg_path = out_dir / "sweep_capacity.svg"
            write_line_chart(svg_path, series, "Capacity vs interferer deviation",
                             "sigma_i [deg]", "capacity [bits/s/Hz]")
            print(f"wrote {svg_path}")
    return _EXIT_OK


def _expected_ray(scenario: Scenario, args) -> tuple[float, float]:
    """Expected-ray AER angles, held fixed across the altitude sweep."""
    if args.expected_azimuth_deg is not None and args.expected_elevation_deg is not None:
        return math.radians(args.expected_azimuth_deg), math.radians(args.expected_elevation_deg)
    if args.expected_azimuth_deg is not None or args.expected_elevation_deg is not None:
        raise _UsageError("give both or neither of --expected-azimuth-deg/--expected-elevation-deg")
    mean = scenario.interferer_directions()[0]
    return mean.phi, mean.theta - math.pi / 2.0


def _cmd_geodesy(scenario: Scenario, args, out_dir: Path) -> int:
    altitudes_km = _parse_float_list(args.altitudes_km, "altitudes")
    if args.deviation_max < 0 or args.deviation_step <= 0:
        raise _UsageError("deviation grid must have max >= 0 and step > 0")
    steps = int(round(args.deviation_max / args.deviation_step))
    deviations_deg = [i * args.deviation_step for i in range(steps + 1)]
    azimuth, elevation = _expected_ray(scenario, args)

    files = {
        # held azimuth deviation, swept elevation deviation, and vice versa
        "arc_dtheta": lambda dev_rad: (math.radians(args.fixed_deviation), dev_rad),
        "arc_dphi": lambda dev_rad: (dev_rad, math.radians(args.fixed_deviation)),
    }
    for stem, to_pair in files.items():
        rows = []
        series = {}
        for alt_km in altitudes_km:
            sat = GeodeticPosition(
                scenario.satellite.longitude, scenario.satellite.latitude, alt_km * 1000.0
            )
            xs, ys = [], []
            for dev_deg in deviations_deg:
                d_az, d_el = to_pair(math.radians(dev_deg))
                try:
                    zeta_km = angular_deviation_to_ground_distance(
                        sat, AerPosition(azimuth, elevation, 1.0), d_az, d_el
                    ) / 1000.0
                    rows.append((dev_deg, alt_km, zeta_km, 1))
                    xs.append(dev_deg)
                    ys.append(zeta_km)
                except RayMissError:
                    rows.append((dev_deg, alt_km, float("nan"), 0))
            series[f"{alt_km:g} km"] = (xs, ys)
        if args.format in ("csv", "both"):
            path = out_dir / f"{stem}.csv"
            _write_csv(path, scenario.seed,
                       ("deviation_deg", "altitude_km", "zeta_km", "hit"), rows)
            print(f"wrote {path}")
        if args.format in ("svg", "both"):
            path = out_dir / f"{stem}.svg"
            write_line_chart(path, series, "Ground distance vs pointing deviation",
                             "deviation [deg]", "distance [km]")
            print(f"wrote {path}")
    return _EXIT_OK


_COMMANDS = {
    "pattern": _cmd_pattern,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "geodesy": _cmd_geodesy,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_thread_cap()
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return _EXIT_SCENARIO

    if scenario.pso is not None:
        print("note: the scenario's pso block is ignored; weights are designed in closed form",
              file=sys.stderr)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](scenario, args, out_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (ConvergenceError, RayMissError, VisibilityError, UnsupportedScenarioError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
