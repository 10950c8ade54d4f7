"""The benchmark's three workloads: the CLI commands of one job, the files
each command must write, and the checks and quality readings of one job.

A job is a list of ``nullshaper.cli.main`` calls. Every job of a run uses
the same workload seed, so repeats must write byte-identical CSV files.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "demos" / "scenarios"
LEO = SCENARIOS / "leo_capacity.json"
LINEAR = SCENARIOS / "linear_null_widening.json"

WORKLOADS = ("leo-sweep", "scaled-design", "geometry")

SWEEP_SIGMA_S = ("0", "0.1", "0.3", "0.5")
#: Design whose sweep row at sigma_i = 1 deg is the leo-sweep quality. The
#: sigma_s = 0 design is left out: its psi sits on the eps_den clamp.
QUALITY_SIGMA_S = "0.3"

# Scaled scenario: a 16x16 half-wavelength array at 20 GHz over the
# leo_capacity sub-satellite point, with 2 users and 4 interferers drawn
# uniformly within SCALED_SPAN_DEG of it in longitude and latitude.
SCALED_SATELLITE = {"lon_deg": 138.53, "lat_deg": -22.024, "alt_m": 800000.0}
SCALED_SIZE = 16
SCALED_USERS = 2
SCALED_INTERFERERS = 4
SCALED_SPAN_DEG = 3.0
SCALED_SIGMA_S_DEG = 0.3
SCALED_L = 5
#: Smallest angle, seen from the satellite, between an interferer and a
#: user: about two 16x16 beamwidths. Without it an interferer drawn next to
#: a user drags design psi down by 10 dB or more, and seeds stop comparing.
SCALED_MIN_SEPARATION_DEG = 12.0


class SetupError(RuntimeError):
    """The checkout lacks the package source or the demo scenarios."""


def import_nullshaper():
    """Import the package from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "nullshaper" / "__init__.py").is_file() or not LEO.is_file() or not LINEAR.is_file():
        raise SetupError(f"no nullshaper source or demo scenarios under {ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import nullshaper
    import nullshaper.cli

    if Path(nullshaper.__file__).resolve().parent != src / "nullshaper":
        raise SetupError(f"imported nullshaper from {nullshaper.__file__}, not {src}")
    return nullshaper


def scaled_scenario(seed: int) -> dict:
    """Deterministic scaled scenario for ``seed``.

    A point that ``geodetic_to_direction`` rejects as beyond the horizon is
    redrawn, and so is an interferer closer to a user than the minimum
    separation.
    """
    import numpy as np

    from nullshaper import GeodeticPosition, VisibilityError, geodetic_to_direction

    rng = np.random.default_rng([seed, SCALED_SIZE])
    sat_lon, sat_lat = SCALED_SATELLITE["lon_deg"], SCALED_SATELLITE["lat_deg"]
    sat = GeodeticPosition.from_degrees(sat_lon, sat_lat, SCALED_SATELLITE["alt_m"])
    min_cos = math.cos(math.radians(SCALED_MIN_SEPARATION_DEG))
    user_axes = []

    def draw(is_user: bool) -> dict:
        while True:
            d_lon, d_lat = rng.uniform(-SCALED_SPAN_DEG, SCALED_SPAN_DEG, size=2)
            point = {"lon_deg": round(sat_lon + float(d_lon), 6), "lat_deg": round(sat_lat + float(d_lat), 6)}
            try:
                d = geodetic_to_direction(sat, GeodeticPosition.from_degrees(point["lon_deg"], point["lat_deg"]))
            except VisibilityError:
                continue
            axis = np.array([math.sin(d.theta) * math.cos(d.phi),
                             math.sin(d.theta) * math.sin(d.phi), math.cos(d.theta)])
            if is_user:
                user_axes.append(axis)
            elif any(axis @ u > min_cos for u in user_axes):
                continue
            return point

    users = [draw(True) for _ in range(SCALED_USERS)]
    interferers = [
        dict(draw(False), sigma_s_deg=SCALED_SIGMA_S_DEG, sigma_i_deg=SCALED_SIGMA_S_DEG)
        for _ in range(SCALED_INTERFERERS)
    ]
    return {
        "satellite": dict(SCALED_SATELLITE),
        "array": {"m": SCALED_SIZE, "n": SCALED_SIZE, "dx_over_lambda": 0.5,
                  "dy_over_lambda": 0.5, "freq_hz": 2.0e10},
        "users": users,
        "interferers": interferers,
        "shaping": {"L": SCALED_L, "kappa": 1},
        "seed": seed,
    }


def write_scaled_scenario(path: Path, seed: int) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scaled_scenario(seed), indent=1, sort_keys=True) + "\n")
    return path


def prepare(workload: str, work_dir: Path, seed: int) -> list[Path]:
    """Load or generate the workload's scenario files; returns their paths.

    This is the work ``setup_s`` times, together with the package import.
    """
    from nullshaper import load_scenario

    if workload == "scaled-design":
        paths = [write_scaled_scenario(work_dir / "scaled_scenario.json", seed)]
    elif workload == "leo-sweep":
        paths = [LEO]
    else:
        paths = [LEO, LINEAR]
    for path in paths:
        load_scenario(path)
    return paths


@dataclass(frozen=True)
class Command:
    """One CLI call of a job, its output directory and the files it writes."""

    argv: tuple[str, ...]
    out: Path
    expected: tuple[str, ...]


def job_commands(workload: str, scenarios: list[Path], out: Path, seed: int) -> list[Command]:
    common = ("--seed", str(seed), "--format", "both")
    if workload == "leo-sweep":
        expected = tuple(f"sweep_sigmas_{s}.csv" for s in SWEEP_SIGMA_S)
        expected += tuple(f"capacity_{s}.csv" for s in SWEEP_SIGMA_S)
        expected += ("sweep_psi.svg", "sweep_capacity.svg")
        argv = ("sweep", "--scenario", str(scenarios[0]), "--out", str(out / "sweep"),
                "--sigma-s", ",".join(SWEEP_SIGMA_S), "--trials", "500", "--capacity") + common
        return [Command(argv, out / "sweep", expected)]
    if workload == "scaled-design":
        argv = ("optimize", "--scenario", str(scenarios[0]), "--out", str(out / "optimize"),
                "--seed", str(seed))
        return [Command(argv, out / "optimize", ("weights.csv", "trace.csv"))]
    altitudes = ",".join(str(km) for km in range(300, 1501, 100))
    commands = [Command(
        ("geodesy", "--scenario", str(LEO), "--out", str(out / "geodesy"),
         "--altitudes-km", altitudes, "--deviation-step", "0.01") + common,
        out / "geodesy",
        ("arc_dtheta.csv", "arc_dtheta.svg", "arc_dphi.csv", "arc_dphi.svg"),
    )]
    for scenario in scenarios:
        commands.append(Command(
            ("pattern", "--scenario", str(scenario), "--out", str(out / scenario.stem),
             "--uniform", "--samples", "36001") + common,
            out / scenario.stem,
            ("pattern_phi0.csv", "pattern_phi0.svg"),
        ))
    return commands


# ---------------------------------------------------------------------------
# Reading outputs


def read_csv(path: Path) -> tuple[list[str], list[list[float]], list[str]]:
    """Header, numeric rows and ``#`` comment lines of a nullshaper CSV."""
    header: list[str] = []
    rows: list[list[float]] = []
    comments: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif not header:
            header = line.split(",")
        elif line:
            rows.append([float(tok) for tok in line.split(",")])
    return header, rows, comments


def column(path: Path, name: str) -> list[float]:
    header, rows, _ = read_csv(path)
    index = header.index(name)
    return [row[index] for row in rows]


def sweep_value_at(path: Path, sigma_i_deg: float = 1.0) -> float:
    """Mean of a sweep or capacity CSV at one sigma_i row."""
    header, rows, _ = read_csv(path)
    for row in rows:
        if abs(row[0] - sigma_i_deg) < 1e-9:
            return row[1]
    raise ValueError(f"{path.name} has no sigma_i = {sigma_i_deg} row")


def crossover(path: Path) -> float | None:
    """Value of the ``crossover_vs_sigma_s_0_deg`` footer, None if absent or 'none'."""
    for line in read_csv(path)[2]:
        key, _, value = line.lstrip("# ").partition("=")
        if key == "crossover_vs_sigma_s_0_deg" and value != "none":
            return float(value)
    return None


def csv_digest(commands: list[Command]) -> dict[str, str]:
    return {
        f"{cmd.out.name}/{name}": hashlib.sha256((cmd.out / name).read_bytes()).hexdigest()
        for cmd in commands
        for name in cmd.expected
        if name.endswith(".csv")
    }


def quality(workload: str, commands: list[Command], scenarios: list[Path]) -> tuple[dict, list[str]]:
    """Quality readings of one finished job and the failures of the
    workload's own checks."""
    failures: list[str] = []
    if workload == "leo-sweep":
        out = commands[0].out
        shaped = sweep_value_at(out / f"sweep_sigmas_{QUALITY_SIGMA_S}.csv")
        sharp = sweep_value_at(out / "sweep_sigmas_0.csv")
        values = {
            "sweep_psi_db_1deg": shaped,
            "capacity_1deg": sweep_value_at(out / f"capacity_{QUALITY_SIGMA_S}.csv"),
        }
        if not shaped > sharp:
            failures.append(f"sigma_s={QUALITY_SIGMA_S} design ({shaped} dB) does not beat "
                            f"sigma_s=0 ({sharp} dB) at sigma_i=1 deg")
        if crossover(out / f"sweep_sigmas_{QUALITY_SIGMA_S}.csv") is None:
            failures.append("no crossover footer with a value")
    elif workload == "scaled-design":
        from nullshaper import build_objective, load_scenario, mitigation_effectiveness

        weights_csv = commands[0].out / "weights.csv"
        re, im = column(weights_csv, "re"), column(weights_csv, "im")
        norm_sq = math.fsum(a * a + b * b for a, b in zip(re, im))
        if not norm_sq <= 1.0 + 1e-9:
            failures.append(f"weights.csv norm^2 {norm_sq} exceeds 1 + 1e-9")
        objective = build_objective(load_scenario(scenarios[0]))
        psi = mitigation_effectiveness(objective, [complex(a, b) for a, b in zip(re, im)])
        values = {"design_psi_db": 10.0 * math.log10(psi) if psi > 0.0 else -math.inf}
    else:
        # Control workload: uniform weights, so the peak of the cut is the
        # array's coherent gain 10 log10(N).
        leo_cut = next(cmd.out for cmd in commands if cmd.out.name == LEO.stem) / "pattern_phi0.csv"
        values = {"pattern_peak_db": max(column(leo_cut, "gain_db"))}
    for name, value in values.items():
        if not math.isfinite(value):
            failures.append(f"{name} is not finite: {value}")
    return values, failures


def check_job(
    workload: str,
    commands: list[Command],
    codes: list[int | None],
    scenarios: list[Path],
    reference: dict[str, str] | None,
) -> tuple[dict, dict[str, str] | None, list[str]]:
    """Run every check on one finished job.

    Returns the quality readings, the CSV digest (None when files are
    missing) and the list of failed checks; an empty list means the job
    passed. ``reference`` is the digest of the run's first job.
    """
    failures = [f"{cmd.argv[0]} exited with {code}" for cmd, code in zip(commands, codes) if code != 0]
    missing = [str(cmd.out / name) for cmd in commands for name in cmd.expected
               if not (cmd.out / name).is_file()]
    failures += [f"missing output {path}" for path in missing]
    if failures:
        return {}, None, failures
    digest = csv_digest(commands)
    if reference is not None:
        failures += [f"{name} differs from the first job" for name in reference
                     if digest.get(name) != reference[name]]
    try:
        values, quality_failures = quality(workload, commands, scenarios)
    except (ValueError, OSError) as exc:
        return {}, digest, failures + [f"unreadable output: {exc}"]
    return values, digest, failures + quality_failures
