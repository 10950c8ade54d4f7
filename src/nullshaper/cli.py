"""Command-line front end.

Four subcommands drive the library against a JSON scenario file:

* ``pattern``   - design weights (or take uniform ones) and export a gain cut
* ``optimize``  - design weights and export them plus a one-row trace
* ``sweep``     - design per shaping value and run robustness sweeps
* ``geodesy``   - pointing-error to ground-distance tables over altitude

Each subcommand takes only the flags it reads. All four take ``--scenario``,
``--out`` and ``--seed``; ``pattern``, ``optimize`` and ``sweep`` take the
shaping overrides ``--kappa`` and ``--L``; ``pattern``, ``sweep`` and
``geodesy`` take ``--format csv|svg|both``, which ``_emit`` alone reads.
``optimize`` writes CSV only.

Every CSV starts with a comment line recording the tool version and seed,
then a header row. Outputs are deterministic for a fixed scenario and
seed, so re-running a command overwrites files with identical bytes.

Exit codes: 0 success, 1 usage error, 2 scenario validation error,
3 runtime error (missed rays, I/O failures, a sigma_s too small to design
in double precision).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import write_line_chart
from .array import WeightVector, pattern_cut
from .geodesy import (
    AerPosition,
    GeodeticPosition,
    RayMissError,
    angular_deviation_to_ground_distance,
)
from .simulation import (
    MAX_GRID_POINTS,
    Scenario,
    ScenarioError,
    UnsupportedScenarioError,
    VisibilityError,
    crossover_sigma,
    design_weights,
    load_scenario,
    monte_carlo_sweep,  # noqa: F401  (bench/tracing.py wraps it in this namespace)
    monte_carlo_sweeps,
)

__all__ = ["main", "entrypoint"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_SCENARIO = 2
_EXIT_RUNTIME = 3

#: Most Monte-Carlo trials per sigma_i point. Steering is built in
#: bounded blocks, so the cap limits run time and the per-trial arrays
#: (a few doubles per trial, design and interferer), not steering memory.
MAX_TRIALS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1
        raise _UsageError(message)


#: Rows per block that ``_write_csv`` formats and writes at once, so a long
#: table streams to its file instead of being built as one string.
_CSV_ROWS = 4096


def _write_csv(path: Path, seed: int, header, columns, footer_comments=()) -> None:
    """Write the comment line, the header and one row per element of the
    equal-length ``columns``, then the footer lines.

    Values print as their Python ``repr``: the shortest round-trip form for
    floats (``nan`` for NaN) and plain digits for integers. Rows stream to
    the file in blocks of ``_CSV_ROWS``. Columns of unequal length raise
    ``ValueError`` before the file is opened.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError(f"{path.name}: columns differ in length")
    row_format = ",".join(["%r"] * len(columns)) + "\n"
    with path.open("w") as out:
        out.write(f"# tool=nullshaper {__version__} seed={seed}\n{','.join(header)}\n")
        for start in range(0, rows, _CSV_ROWS):
            block = [c[start:start + _CSV_ROWS].tolist() for c in columns]
            # interleave row-major without casting, so int columns keep their repr
            flat = [None] * (len(block[0]) * len(block))
            for j, values in enumerate(block):
                flat[j::len(block)] = values
            out.write(row_format * len(block[0]) % tuple(flat))
        out.writelines(line + "\n" for line in footer_comments)


def _emit(args, out_dir: Path, stem: str, seed: int, csv=None, svg=None) -> None:
    """Write ``stem.csv`` from the ``_write_csv`` arguments after the seed and
    ``stem.svg`` from the ``write_line_chart`` arguments after the path, each
    when given and asked for by ``--format``; print ``wrote <path>`` per file."""
    if csv is not None and args.format in ("csv", "both"):
        path = out_dir / f"{stem}.csv"
        _write_csv(path, seed, *csv)
        print(f"wrote {path}")
    if svg is not None and args.format in ("svg", "both"):
        path = out_dir / f"{stem}.svg"
        write_line_chart(path, *svg)
        print(f"wrote {path}")


def _sigma_value_token(value_deg: float) -> str:
    return f"{value_deg:g}"


def _finite(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    """argparse type: a non-empty comma list of finite floats."""
    values = [_finite(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused after it."""
    parser = _Parser(prog="nullshaper", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nullshaper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument("--out", required=True, help="output directory (created on demand)")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    shaping = _Parser(add_help=False)
    shaping.add_argument("--kappa", type=int, default=None, help="override shaping kappa")
    shaping.add_argument("--L", dest="samples_per_axis", type=int, default=None,
                         help="override shaping samples per axis")
    charts = _Parser(add_help=False)
    charts.add_argument("--format", choices=("csv", "svg", "both"), default="csv")

    pattern = sub.add_parser("pattern", parents=[common, shaping, charts],
                             help="export a gain pattern cut")
    pattern.add_argument("--phi-cut", type=_finite, default=0.0,
                         help="azimuth of the cut plane in degrees (default 0)")
    pattern.add_argument("--samples", type=int, default=3601)
    pattern.add_argument("--uniform", action="store_true",
                         help="skip optimisation and use uniform weights")

    sub.add_parser("optimize", parents=[common, shaping],
                   help="design weights and export them (CSV only)")

    sweep = sub.add_parser("sweep", parents=[common, shaping, charts],
                           help="robustness sweep over interferer error")
    sweep.add_argument("--trials", type=int, default=1000,
                       help="Monte-Carlo trials per sigma_i point (default 1000)")
    sweep.add_argument("--sigma-s", type=_finite_list, default=None,
                       help="comma list of shaping sigmas in degrees, one design each "
                            "(default: the scenario as loaded, its interferers "
                            "sharing one sigma_s)")
    sweep.add_argument("--sigma-i-max", type=_finite, default=1.0)
    sweep.add_argument("--sigma-i-step", type=_finite, default=0.1)
    sweep.add_argument("--capacity", action="store_true",
                       help="also sweep single-user Shannon capacity")

    geodesy = sub.add_parser("geodesy", parents=[common, charts],
                             help="pointing error vs ground distance tables")
    geodesy.add_argument("--altitudes-km", type=_finite_list, default="400,600,800,1000,1200",
                         help="comma list of satellite altitudes in km")
    geodesy.add_argument("--deviation-max", type=_finite, default=1.0,
                         help="swept deviation maximum in degrees")
    geodesy.add_argument("--deviation-step", type=_finite, default=0.1)
    geodesy.add_argument("--fixed-deviation", type=_finite, default=0.5,
                         help="held deviation of the other axis in degrees")
    geodesy.add_argument("--expected-azimuth-deg", type=_finite, default=None,
                         help="expected-ray azimuth; default derived from the first interferer")
    geodesy.add_argument("--expected-elevation-deg", type=_finite, default=None,
                         help="expected-ray elevation; default derived from the first interferer")
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """The scenario with the --seed, --kappa and --L flags that were given,
    validated by the scenario itself. A flag the subcommand lacks reads as None."""
    names = ("seed", "kappa", "samples_per_axis")
    given = vars(args)
    overrides = {name: given[name] for name in names if given.get(name) is not None}
    try:
        return replace(scenario, **overrides)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


#: Slack on maximum / step before it is floored to whole steps: the
#: quotient can land just below a whole number (0.6 / 0.2 is
#: 2.9999999999999996), and such a grid should still reach its maximum.
_STEPS_TOL = 1e-9


def _grid_deg(maximum: float, step: float, what: str) -> list[float]:
    """[0, step, 2 step, ...] up to ``maximum`` and never past it, at most
    ``MAX_GRID_POINTS`` long."""
    if not (maximum >= 0 and step > 0):
        raise _UsageError(f"{what} grid must have max >= 0 and step > 0")
    steps = maximum / step + _STEPS_TOL
    if steps >= MAX_GRID_POINTS:
        raise _UsageError(f"{what} grid would have more than {MAX_GRID_POINTS} points")
    return [i * step for i in range(math.floor(steps) + 1)]


def _cmd_pattern(scenario: Scenario, args, out_dir: Path) -> int:
    # + 0.0 folds -0 into 0 for the cut, its file name and its chart title
    phi_cut_deg = args.phi_cut + 0.0
    if not 2 <= args.samples <= MAX_GRID_POINTS:
        raise _UsageError(f"--samples must be between 2 and {MAX_GRID_POINTS}")
    if args.uniform:
        weights = WeightVector.uniform(scenario.array.size)
    else:
        weights = design_weights(scenario).weights
    angles, levels = pattern_cut(
        scenario.array, weights, phi_cut=math.radians(phi_cut_deg), samples=args.samples
    )
    angles_deg = np.degrees(angles)
    _emit(args, out_dir, f"pattern_phi{_sigma_value_token(phi_cut_deg)}", scenario.seed,
          csv=(("angle_deg", "gain_db"), (angles_deg, levels)),
          svg=({"gain": (angles_deg, levels)}, f"Gain cut at azimuth {phi_cut_deg:g} deg",
               "polar angle [deg]", "gain [dB]"))
    return _EXIT_OK


def _cmd_optimize(scenario: Scenario, args, out_dir: Path) -> int:
    started = time.perf_counter()
    result = design_weights(scenario)
    elapsed = time.perf_counter() - started

    weights = result.weights
    m_index, n_index = np.divmod(np.arange(weights.values.size), scenario.array.n)
    _write_csv(
        out_dir / "weights.csv",
        scenario.seed,
        ("m", "n", "re", "im", "amp", "phase_rad"),
        (m_index, n_index, weights.values.real, weights.values.imag,
         weights.amplitudes(), weights.phases()),
    )
    _write_csv(
        out_dir / "trace.csv",
        scenario.seed,
        ("iteration", "best_psi_db", "evaluations"),
        ([0], [result.psi_db], [result.evaluations]),
    )
    print(
        f"psi_db={result.psi_db:.3f} evaluations={result.evaluations} "
        f"loading={result.loading:.3e} clamped={result.clamped} "
        f"wall_time_s={elapsed:.3f}"
    )
    return _EXIT_OK


def _sweep_columns(sweep) -> tuple:
    return (sweep.sigma_i_deg, sweep.mean_db, sweep.std_db,
            [sweep.trials] * len(sweep.sigma_i_deg))


def _cmd_sweep(scenario: Scenario, args, out_dir: Path) -> int:
    if args.sigma_s is None and len({j.sigma_s for j in scenario.interferers}) > 1:
        raise _UsageError(
            "the interferers' sigma_s values differ; choose the designs with --sigma-s")
    # + 0.0 folds -0 into 0, so it designs, names its files and serves as
    # the crossover baseline exactly as 0 does
    sigma_s_list = args.sigma_s or [math.degrees(scenario.interferers[0].sigma_s)]
    sigma_s_list = [s + 0.0 for s in sigma_s_list]
    if min(sigma_s_list) < 0:
        raise _UsageError("--sigma-s values must be >= 0")
    if len({_sigma_value_token(s) for s in sigma_s_list}) < len(sigma_s_list):
        raise _UsageError("--sigma-s values must differ at %g precision, which names their files")
    sigma_i_deg = _grid_deg(args.sigma_i_max, args.sigma_i_step, "sigma-i")
    if not 1 <= args.trials <= MAX_TRIALS:
        raise _UsageError(f"--trials must be between 1 and {MAX_TRIALS}")
    # a value whose radians underflow would design, and be compared as,
    # sigma_s = 0 while its files name it
    vanishing = [s for s in sigma_s_list if s > 0.0 and math.radians(s) == 0.0]
    if vanishing:
        raise UnsupportedScenarioError(
            f"sigma_s = {min(vanishing):g} deg is too small to design in double precision "
            "(its radians underflow to 0); use sigma_s = 0 for a point-mass design")

    sigma_i_rad = [math.radians(s) for s in sigma_i_deg]

    designs = ([scenario.with_sigma_s(math.radians(s)) for s in sigma_s_list] if args.sigma_s
               else [scenario])
    weights = [design_weights(design).weights for design in designs]
    results = monte_carlo_sweeps(scenario, weights, sigma_i_rad, trials=args.trials)
    if args.capacity and len(scenario.users) != 1:
        print("capacity sweep skipped: scenario serves more than one user", file=sys.stderr)

    baseline = next((psi for s, (psi, _) in zip(sigma_s_list, results) if s == 0.0), None)
    psi_series, capacity_series = {}, {}
    for sigma_s_deg, (sweep, cap) in zip(sigma_s_list, results):
        footer = []
        if baseline is not None and sigma_s_deg != 0.0:
            cross = crossover_sigma(baseline, sweep)
            footer.append(
                f"# crossover_vs_sigma_s_0_deg={float(cross)!r}" if cross is not None
                else "# crossover_vs_sigma_s_0_deg=none"
            )
        token = _sigma_value_token(sigma_s_deg)
        label = f"sigma_s={token} deg"
        psi_series[label] = (sweep.sigma_i_deg, sweep.mean_db)
        _emit(args, out_dir, f"sweep_sigmas_{token}", scenario.seed,
              csv=(("sigma_i_deg", "psi_db_mean", "psi_db_std", "trials"),
                   _sweep_columns(sweep), footer))
        if args.capacity and cap is not None:
            capacity_series[label] = (cap.sigma_i_deg, cap.mean_db)
            _emit(args, out_dir, f"capacity_{token}", scenario.seed,
                  csv=(("sigma_i_deg", "capacity_mean", "capacity_std", "trials"),
                       _sweep_columns(cap)))

    _emit(args, out_dir, "sweep_psi", scenario.seed,
          svg=(psi_series, "Mitigation effectiveness vs interferer deviation",
               "sigma_i [deg]", "mean effectiveness [dB]"))
    if capacity_series:
        _emit(args, out_dir, "sweep_capacity", scenario.seed,
              svg=(capacity_series, "Capacity vs interferer deviation",
                   "sigma_i [deg]", "capacity [bits/s/Hz]"))
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
    if min(args.altitudes_km) <= 0:
        raise _UsageError("--altitudes-km values must be > 0")
    deviations_deg = np.array(_grid_deg(args.deviation_max, args.deviation_step, "deviation"))
    azimuth, elevation = _expected_ray(scenario, args)
    try:
        expected = AerPosition(azimuth, elevation, 1.0)
    except ValueError as exc:  # only a given elevation can be out of range
        raise _UsageError(f"--expected-elevation-deg: {exc}") from exc
    swept = np.radians(deviations_deg)
    held = math.radians(args.fixed_deviation)
    sats = [GeodeticPosition(scenario.satellite.longitude, scenario.satellite.latitude,
                             alt_km * 1000.0) for alt_km in args.altitudes_km]

    files = {
        # held azimuth deviation, swept elevation deviation, and vice versa
        "arc_dtheta": (held, swept),
        "arc_dphi": (swept, held),
    }
    # both tables are solved before either is written; NaN marks a ray that
    # misses the planet, and a table with no hit at all is refused
    tables = {}
    for stem, (d_az, d_el) in files.items():
        zetas = [angular_deviation_to_ground_distance(sat, expected, d_az, d_el) / 1000.0
                 for sat in sats]
        if np.isnan(zetas).all():
            raise RayMissError(f"no look ray of the {stem} table reaches the Earth's surface")
        tables[stem] = zetas
    for stem, zetas in tables.items():
        zeta_km = np.concatenate(zetas)
        columns = (np.tile(deviations_deg, len(zetas)),
                   np.repeat(args.altitudes_km, deviations_deg.size),
                   zeta_km, (~np.isnan(zeta_km)).astype(int))
        series = {}
        for alt_km, zeta in zip(args.altitudes_km, zetas):
            hit = ~np.isnan(zeta)
            series[f"{alt_km:g} km"] = (deviations_deg[hit], zeta[hit])
        _emit(args, out_dir, stem, scenario.seed,
              csv=(("deviation_deg", "altitude_km", "zeta_km", "hit"), columns),
              svg=(series, "Ground distance vs pointing deviation",
                   "deviation [deg]", "distance [km]"))
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
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return _EXIT_SCENARIO

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](scenario, args, out_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (RayMissError, VisibilityError, UnsupportedScenarioError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
