import collections
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullshaper.simulation
from nullshaper import __version__
from nullshaper.array import null_width
from nullshaper import cli
from nullshaper.cli import _write_csv, main
from nullshaper._svg import _HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH


@pytest.fixture()
def scenario_path(tmp_path):
    raw = {
        "satellite": {"lon_deg": 138.53, "lat_deg": -22.024, "alt_m": 800000.0},
        "array": {"m": 4, "n": 4, "dx_over_lambda": 0.5, "dy_over_lambda": 0.5,
                  "freq_hz": 2.0e10},
        "users": [{"lon_deg": 136.0, "lat_deg": -22.0}],
        "interferers": [
            {"lon_deg": 141.5, "lat_deg": -19.0, "sigma_s_deg": 0.3, "sigma_i_deg": 0.5}
        ],
        "shaping": {"L": 3, "kappa": 1},
        "pso": {"iterations": 25, "polish": {"sweeps": 5}},
        "seed": 21,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def read_lines(path):
    return path.read_text().splitlines()


def written(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


#: Small runs of the three commands that write charts, and the charts each writes.
CHART_RUNS = [
    pytest.param(["pattern", "--uniform", "--samples", "181"], {"pattern_phi0.svg"},
                 id="pattern"),
    pytest.param(["sweep", "--sigma-s", "0,0.3", "--trials", "10", "--capacity",
                  "--sigma-i-max", "0.2", "--sigma-i-step", "0.1"],
                 {"sweep_psi.svg", "sweep_capacity.svg"}, id="sweep"),
    pytest.param(["geodesy", "--altitudes-km", "400,800",
                  "--deviation-max", "0.4", "--deviation-step", "0.2"],
                 {"arc_dtheta.svg", "arc_dphi.svg"}, id="geodesy"),
]


class TestCommonBehaviour:
    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"nullshaper {__version__}\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sigma-s=-0.1"],
        ["sweep", "--sigma-s", "nan"],
        ["sweep", "--sigma-i-max", "nan"],
        ["sweep", "--sigma-i-step", "nan"],
        ["geodesy", "--deviation-max", "nan"],
        ["geodesy", "--altitudes-km=-7000"],
        ["geodesy", "--fixed-deviation", "nan"],
        ["geodesy", "--expected-azimuth-deg", "inf", "--expected-elevation-deg", "-30"],
        ["pattern", "--phi-cut", "inf"],
        # grids above MAX_GRID_POINTS are refused before they are allocated
        ["sweep", "--sigma-i-step", "1e-12"],
        ["geodesy", "--deviation-step", "1e-12"],
        # so are trial counts and pattern samples above their caps
        ["sweep", "--trials", "100001"],
        ["pattern", "--samples", "100002"],
        # two --sigma-s values with one %g token would write one file twice
        ["sweep", "--sigma-s", "0.1,0.10000001"],
        ["sweep", "--sigma-s", "0,-0"],
        # an elevation beyond +/-90 deg names no look ray
        ["geodesy", "--expected-azimuth-deg", "0", "--expected-elevation-deg", "100"],
        # 1e306 km is finite, but not in metres
        ["geodesy", "--altitudes-km", "400,1e306"],
    ])
    def test_bad_numeric_flag_is_usage_error(self, argv, scenario_path, tmp_path, capsys):
        assert main(argv + ["--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("path, value, argv", [
        pytest.param(("interferers", 0, "sigma_s_deg"), math.nan, [], id="sigma_s_nan"),
        pytest.param(("array", "freq_hz"), math.nan, [], id="freq_nan"),
        pytest.param(("array", "dx_over_lambda"), math.inf, [], id="spacing_inf"),
        pytest.param(("link_budget",), {"user_power": math.nan}, [], id="user_power_nan"),
        pytest.param(("seed",), -5, [], id="seed_file"),
        pytest.param((), None, ["--seed", "-1"], id="seed_flag"),
        pytest.param(("shaping", "kappa"), 11, [], id="kappa_file"),
        pytest.param((), None, ["--kappa", "11"], id="kappa_flag"),
        pytest.param(("shaping", "L"), 317, [], id="L_file"),
        pytest.param((), None, ["--L", "317"], id="L_flag"),
        # integer fields refuse a fractional part rather than truncating it
        pytest.param(("shaping", "L"), 3.7, [], id="L_fractional"),
        pytest.param(("shaping", "kappa"), 1.9, [], id="kappa_fractional"),
        pytest.param(("seed",), 42.9, [], id="seed_fractional"),
        pytest.param(("array", "m"), 8.5, [], id="m_fractional"),
        pytest.param(("array", "n"), 4.5, [], id="n_fractional"),
        # neither a boolean nor a quoted number is an element count
        pytest.param(("array", "m"), True, [], id="m_true"),
        pytest.param(("array", "m"), "8", [], id="m_quoted"),
        # a wavelength needs a positive, finite frequency
        pytest.param(("array", "freq_hz"), 0, [], id="freq_zero"),
        pytest.param(("array", "freq_hz"), -0.0, [], id="freq_negative_zero"),
        # more than MAX_ELEMENTS (1024) elements
        pytest.param(("array", "m"), 257, [], id="elements_over_cap"),
        pytest.param(("array",), {"m": 1000, "n": 1000}, [], id="array_1000x1000"),
        # optional sections must be JSON objects when present
        pytest.param(("shaping",), 3, [], id="shaping_not_object"),
        pytest.param(("link_budget",), [], [], id="link_budget_not_object"),
        # a misspelled key is refused rather than left at its default
        pytest.param(("shaping", "kapa"), 3, [], id="misspelled_key"),
    ])
    def test_out_of_range_value_is_validation_error(
        self, path, value, argv, scenario_path, tmp_path, capsys
    ):
        raw = json.loads(scenario_path.read_text())
        if path:
            *parents, key = path
            entry = raw
            for parent in parents:
                entry = entry[parent]
            entry[key] = value
        scenario_path.write_text(json.dumps(raw))  # NaN and Infinity as JSON allows
        code = main(["optimize", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "o")] + argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("scenario error: ")
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_scenario_is_validation_error(self, tmp_path, capsys):
        code = main(["pattern", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    def test_invalid_scenario_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"satellite": {"lon_deg": 0.0}}))
        assert main(["optimize", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv", [
        # each flag belongs to subcommands that read it: geodesy takes no
        # shaping overrides, and optimize writes CSV only
        ["geodesy", "--kappa", "11"],
        ["geodesy", "--L", "3"],
        ["optimize", "--format", "svg"],
    ])
    def test_flag_of_another_subcommand_is_usage_error(
        self, argv, scenario_path, tmp_path, capsys
    ):
        assert main(argv + ["--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, charts", CHART_RUNS)
    def test_svg_format_writes_charts_and_no_csv(self, argv, charts, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(argv + ["--scenario", str(scenario_path), "--out", str(out),
                            "--format", "svg"]) == 0
        assert set(written(out)) == charts
        assert all(svg.startswith(b"<svg") for svg in written(out).values())

    def test_calls_in_one_process_match_lone_runs(self, scenario_path, tmp_path):
        # main reuses one parser, so no call may leave a flag to the next:
        # the plain sweep after a --capacity --format both sweep writes
        # neither capacity files nor charts
        sweep = ["sweep", "--trials", "10", "--sigma-i-max", "0.2", "--sigma-i-step", "0.1"]
        runs = {
            "charted": sweep + ["--capacity", "--format", "both"],
            "plain": sweep,
            "geodesy": ["geodesy", "--altitudes-km", "400,800",
                        "--deviation-max", "0.4", "--deviation-step", "0.2"],
        }
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for name, argv in runs.items():
            argv = argv + ["--scenario", str(scenario_path)]
            assert main(argv + ["--out", str(tmp_path / "in" / name)]) == 0
            subprocess.run([sys.executable, "-m", "nullshaper.cli", *argv,
                            "--out", str(tmp_path / "alone" / name)],
                           env=env, check=True, capture_output=True, timeout=120)
        for name in runs:
            assert written(tmp_path / "in" / name) == written(tmp_path / "alone" / name)
        assert sorted(written(tmp_path / "in" / "plain")) == ["sweep_sigmas_0.3.csv"]

    def test_output_directory_created(self, scenario_path, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert main(["pattern", "--scenario", str(scenario_path), "--out", str(out),
                     "--uniform"]) == 0
        assert (out / "pattern_phi0.csv").exists()


@pytest.fixture(scope="class", params=["leo_capacity", "linear_null_widening"])
def long_cut(request, tmp_path_factory):
    """A demo scenario's 36,001-sample uniform cut, written as CSV and SVG;
    returns the path stem of both files."""
    out = tmp_path_factory.mktemp(request.param)
    assert main(["pattern", "--uniform", "--samples", "36001", "--out", str(out), "--format", "both",
                 "--scenario", str(SCENARIOS / f"{request.param}.json")]) == 0
    return out / "pattern_phi0"


class TestPattern:
    def test_uniform_main_lobe_at_boresight(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["pattern", "--scenario", str(scenario_path), "--out", str(out),
                     "--uniform", "--samples", "721"]) == 0
        lines = read_lines(out / "pattern_phi0.csv")
        assert lines[0] == f"# tool=nullshaper {__version__} seed=21"
        assert lines[1] == "angle_deg,gain_db"
        rows = [line.split(",") for line in lines[2:]]
        angles = np.array([float(r[0]) for r in rows])
        levels = np.array([float(r[1]) for r in rows])
        assert angles[np.argmax(levels)] == pytest.approx(0.0, abs=1e-9)
        assert (levels >= -100.0).all()

    def test_long_uniform_cut_spells_every_value_as_repr(self, long_cut):
        # a 36,001-row float table takes the whole-array speller; each data
        # line must read as the repr of the values it spells
        lines = read_lines(long_cut.with_suffix(".csv"))[2:]
        assert len(lines) == 36001
        bad = [line for line in lines if line != ",".join(repr(float(t)) for t in line.split(","))]
        assert not bad, bad[:3]

    def test_long_uniform_cut_chart_keeps_every_pixel_columns_extremes(self, long_cut):
        # a long cut is drawn as each pixel column's first, last, lowest and
        # highest point: at most 4 per column, each a CSV point in CSV order,
        # and each column's lowest and highest at the chart's scaling of the CSV
        rows = [[float(t) for t in line.split(",")] for line in read_lines(long_cut.with_suffix(".csv"))[2:]]
        xs, ys = zip(*[r for r in rows if all(map(math.isfinite, r))])
        drawn = long_cut.with_suffix(".svg").read_text().split('<polyline points="')[1].split('"')[0].split()
        # the chart's scaling, as write_line_chart takes it from every finite point
        plot_w, plot_h = _WIDTH - _MARGIN_L - _MARGIN_R, _HEIGHT - _MARGIN_T - _MARGIN_B
        x_lo, x_hi = min(xs), max(xs)
        pad = 0.04 * (max(ys) - min(ys))
        y_lo, y_hi = min(ys) - pad, max(ys) + pad

        def sx(x):
            return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y):
            return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

        spelled = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)]
        columns = [math.floor(sx(x)) for x in xs]
        by_column = collections.defaultdict(list)
        for column, y in zip(columns, ys):
            by_column[column].append(y)
        drawn_y = collections.defaultdict(list)
        row = 0
        for point in drawn:
            row = spelled.index(point, row)  # ValueError: not a CSV point, or out of order
            drawn_y[columns[row]].append(point.split(",")[1])
            row += 1
        assert drawn_y.keys() == by_column.keys()
        assert max(map(len, drawn_y.values())) <= 4
        lost = [c for c, v in by_column.items()
                if not {f"{sy(min(v)):.2f}", f"{sy(max(v)):.2f}"} <= set(drawn_y[c])]
        assert not lost, lost[:5]

    def test_rerun_byte_identical(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        args = ["pattern", "--scenario", str(scenario_path), "--out", str(out)]
        assert main(args) == 0
        first = (out / "pattern_phi0.csv").read_bytes()
        assert main(args) == 0
        assert (out / "pattern_phi0.csv").read_bytes() == first

    def test_svg_output(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["pattern", "--scenario", str(scenario_path), "--out", str(out),
                     "--uniform", "--format", "both"]) == 0
        svg = (out / "pattern_phi0.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_negative_zero_phi_cut_is_the_zero_cut(self, scenario_path, tmp_path):
        outputs = {}
        for token in ("-0", "0"):
            out = tmp_path / token
            assert main(["pattern", "--scenario", str(scenario_path), "--out", str(out),
                         f"--phi-cut={token}", "--uniform", "--samples", "181",
                         "--format", "both"]) == 0
            outputs[token] = written(out)
        assert sorted(outputs["-0"]) == ["pattern_phi0.csv", "pattern_phi0.svg"]
        assert outputs["-0"] == outputs["0"]

    def test_notch_width_grows_with_kappa_override(self, tmp_path):
        raw = {
            "satellite": {"lon_deg": 138.53, "lat_deg": -22.024, "alt_m": 800000.0},
            "array": {"m": 20, "n": 1, "freq_hz": 2.0e10},
            "users": [{"theta_deg": 30.0, "phi_deg": 0.0}],
            "interferers": [{"theta_deg": 0.0, "phi_deg": 0.0, "sigma_s_deg": 1.0}],
            "shaping": {"L": 5, "kappa": 1},
            "seed": 42,
        }
        scenario = tmp_path / "linear.json"
        scenario.write_text(json.dumps(raw))
        widths = []
        for kappa in (1, 2, 3):
            out = tmp_path / f"kappa{kappa}"
            assert main(["pattern", "--scenario", str(scenario), "--out", str(out),
                         "--kappa", str(kappa)]) == 0
            rows = [line.split(",") for line in read_lines(out / "pattern_phi0.csv")[2:]]
            angles = np.array([float(r[0]) for r in rows])
            levels = np.array([float(r[1]) for r in rows])
            widths.append(null_width(angles, levels, center=0.0, depth_db=40.0))
        assert widths[0] < widths[1] < widths[2]


class TestOptimize:
    def test_outputs_and_summary(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        summary = captured.out
        assert "psi_db=" in summary and "evaluations=1 " in summary and "wall_time_s=" in summary
        assert "loading=" in summary and "clamped=False" in summary
        # the fixture's legacy pso block loads without a note
        assert captured.err == ""

        weight_lines = read_lines(out / "weights.csv")
        assert weight_lines[1] == "m,n,re,im,amp,phase_rad"
        body = [line.split(",") for line in weight_lines[2:]]
        assert len(body) == 16
        assert [row[0] for row in body[:5]] == ["0", "0", "0", "0", "1"]
        norm_sq = sum(float(r[2]) ** 2 + float(r[3]) ** 2 for r in body)
        assert norm_sq == pytest.approx(1.0, rel=1e-9)
        phases = np.array([float(r[5]) for r in body])
        assert ((phases >= 0.0) & (phases < 2 * math.pi)).all()

        trace_lines = read_lines(out / "trace.csv")
        assert trace_lines[1] == "iteration,best_psi_db,evaluations"
        best = [float(line.split(",")[1]) for line in trace_lines[2:]]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        assert summary.split("psi_db=")[1].split()[0] == f"{best[-1]:.3f}"

    def test_seed_override_changes_then_repeats(self, scenario_path, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        base = ["optimize", "--scenario", str(scenario_path)]
        assert main(base + ["--out", str(out_a), "--seed", "5"]) == 0
        assert main(base + ["--out", str(out_b), "--seed", "5"]) == 0
        assert main(base + ["--out", str(out_c), "--seed", "6"]) == 0
        assert (out_a / "weights.csv").read_bytes() == (out_b / "weights.csv").read_bytes()
        assert (out_a / "weights.csv").read_bytes() != (out_c / "weights.csv").read_bytes()


class TestSweep:
    def test_sigma_list_files_and_footer(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--sigma-s", "0,0.3", "--trials", "60",
                     "--sigma-i-max", "0.6", "--sigma-i-step", "0.2"]) == 0
        base = read_lines(out / "sweep_sigmas_0.csv")
        shaped = read_lines(out / "sweep_sigmas_0.3.csv")
        assert base[1] == "sigma_i_deg,psi_db_mean,psi_db_std,trials"
        assert len(base) == 2 + 4  # comment, header, 4 sigma_i rows
        assert shaped[-1].startswith("# crossover_vs_sigma_s_0_deg=")
        rows = [line.split(",") for line in base[2:]]
        assert [r[0] for r in rows] == ["0.0", "0.2", "0.4", "0.6000000000000001"]
        assert all(r[3] == "60" for r in rows)

    def test_sigma_i_grid_stops_at_its_maximum(self, scenario_path, tmp_path):
        # 0.38 / 0.1 rounds to 4 steps; the grid must end at 0.3, not 0.4
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--trials", "5", "--sigma-i-max", "0.38", "--sigma-i-step", "0.1"]) == 0
        rows = [line.split(",") for line in read_lines(out / "sweep_sigmas_0.3.csv")[2:]]
        assert [r[0] for r in rows] == ["0.0", "0.1", "0.2", "0.30000000000000004"]

    def test_negative_zero_sigma_s_is_the_zero_design(self, scenario_path, tmp_path):
        outputs = {}
        for token in ("-0", "0"):
            out = tmp_path / token
            assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                         f"--sigma-s={token},0.3", "--trials", "10", "--capacity",
                         "--sigma-i-max", "0.2", "--sigma-i-step", "0.1",
                         "--format", "both"]) == 0
            outputs[token] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "sweep_sigmas_0.csv" in outputs["-0"]
        assert outputs["-0"] == outputs["0"]
        footer = outputs["-0"]["sweep_sigmas_0.3.csv"].decode().splitlines()[-1]
        assert footer.startswith("# crossover_vs_sigma_s_0_deg=")

    def test_differing_scenario_sigma_s_needs_sigma_s_flag(self, scenario_path, tmp_path, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["interferers"] = [
            dict(raw["interferers"][0], sigma_s_deg=0.1),
            {"lon_deg": 140.0, "lat_deg": -20.5, "sigma_s_deg": 0.5},
        ]
        scenario_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = ["sweep", "--scenario", str(scenario_path), "--out", str(out), "--trials", "5",
                "--sigma-i-max", "0.1", "--sigma-i-step", "0.1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--sigma-s" in err
        assert not list(tmp_path.rglob("*.csv"))
        assert main(argv + ["--sigma-s", "0.1,0.5"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep_sigmas_0.1.csv", "sweep_sigmas_0.5.csv"]

    def test_rows_do_not_depend_on_the_sigma_i_points_beside_them(self, tmp_path):
        # a group of sigma_i points is scored in one gains call; the 0.5 and
        # 1.0 deg rows must be the same in the default 11-point grid as in a
        # 3-point one
        tables = {}
        for name, flags in (("default", []), ("half", ["--sigma-i-step", "0.5"])):
            out = tmp_path / name
            assert main(["sweep", "--scenario", str(SCENARIOS / "leo_capacity.json"), "--out", str(out),
                         "--sigma-s", "0,0.3", "--trials", "200", "--capacity"] + flags) == 0
            tables[name] = {f: {line.split(",")[0]: line for line in read_lines(out / f)[2:]
                                if not line.startswith("#")}
                            for f in ("sweep_sigmas_0.3.csv", "capacity_0.3.csv", "sweep_sigmas_0.csv")}
        for f, rows in tables["default"].items():
            assert (len(rows), len(tables["half"][f])) == (11, 3)
            for sigma_i in ("0.5", "1.0"):
                assert rows[sigma_i] == tables["half"][f][sigma_i]

    def test_single_trial_zero_std(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--trials", "1", "--sigma-i-max", "0", "--sigma-i-step", "0.1"]) == 0
        lines = read_lines(out / "sweep_sigmas_0.3.csv")
        assert float(lines[2].split(",")[2]) == 0.0

    def test_capacity_files(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--sigma-s", "0.3", "--trials", "20", "--capacity",
                     "--sigma-i-max", "0.2", "--sigma-i-step", "0.1"]) == 0
        lines = read_lines(out / "capacity_0.3.csv")
        assert lines[1] == "sigma_i_deg,capacity_mean,capacity_std,trials"
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert all(v > 0.0 for v in values)

    def test_combined_svg_charts(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--sigma-s", "0,0.3", "--trials", "10", "--capacity",
                     "--sigma-i-max", "0.2", "--sigma-i-step", "0.1",
                     "--format", "both"]) == 0
        assert (out / "sweep_psi.svg").read_text().startswith("<svg")
        assert (out / "sweep_capacity.svg").read_text().startswith("<svg")

    def test_invisible_user_exits_runtime_error(self, tmp_path, capsys):
        raw = {
            "satellite": {"lon_deg": 0.0, "lat_deg": 0.0, "alt_m": 800000.0},
            "array": {"m": 4, "n": 4, "freq_hz": 2.0e10},
            "users": [{"lon_deg": 180.0, "lat_deg": 0.0}],
            "interferers": [{"lon_deg": 1.0, "lat_deg": 1.0, "sigma_s_deg": 0.1}],
            "seed": 3,
        }
        scenario = tmp_path / "farside.json"
        scenario.write_text(json.dumps(raw))
        code = main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                     "--trials", "2", "--sigma-i-max", "0.1", "--sigma-i-step", "0.1"])
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    def test_rerun_byte_identical(self, scenario_path, tmp_path):
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                         "--trials", "30", "--sigma-i-max", "0.3",
                         "--sigma-i-step", "0.1"]) == 0
            outs.append((out / "sweep_sigmas_0.3.csv").read_bytes())
        assert outs[0] == outs[1]


class TestGeodesy:
    def test_tables_and_altitude_trend(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                     "--altitudes-km", "400,800,1200",
                     "--deviation-max", "0.4", "--deviation-step", "0.2"]) == 0
        for stem in ("arc_dtheta", "arc_dphi"):
            lines = read_lines(out / f"{stem}.csv")
            assert lines[1] == "deviation_deg,altitude_km,zeta_km,hit"
            rows = [line.split(",") for line in lines[2:]]
            assert all(r[3] == "1" for r in rows)
            # fixed held deviation: distance grows with altitude at the zero
            # point of the swept axis
            zero_rows = [r for r in rows if float(r[0]) == 0.0]
            zetas = [float(r[2]) for r in zero_rows]
            assert zetas == sorted(zetas)
            assert zetas[0] > 0.0

    def test_deviation_grid_stops_at_its_maximum(self, scenario_path, tmp_path):
        # 0.18 / 0.1 rounds to 2 steps; the table must end at 0.1, not 0.2
        out = tmp_path / "out"
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                     "--altitudes-km", "800",
                     "--deviation-max", "0.18", "--deviation-step", "0.1"]) == 0
        for stem in ("arc_dtheta", "arc_dphi"):
            rows = [line.split(",") for line in read_lines(out / f"{stem}.csv")[2:]]
            assert [r[0] for r in rows] == ["0.0", "0.1"]

    def test_ray_miss_marked_not_dropped(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                     "--altitudes-km", "800",
                     "--expected-azimuth-deg", "0.0", "--expected-elevation-deg", "-28.0",
                     "--deviation-max", "1", "--deviation-step", "0.5",
                     "--fixed-deviation", "0"]) == 0
        # the horizon from 800 km sits at elevation -27.3 deg; raising the
        # -28 deg ray by a degree crosses it and must be flagged, not dropped
        lines = read_lines(out / "arc_dtheta.csv")
        rows = [line.split(",") for line in lines[2:]]
        assert {r[3] for r in rows} == {"0", "1"}
        missed = [r for r in rows if r[3] == "0"]
        assert all(r[2] == "nan" for r in missed)
        # with both deviations zero the footprints coincide
        assert float(rows[0][0]) == 0.0 and float(rows[0][2]) == 0.0

    def test_altitude_overflowing_the_ray_solve_reads_as_a_miss(self, scenario_path, tmp_path):
        # squared, 1e300 km overflows; the row is a miss, and pytest turns a
        # RuntimeWarning into an error
        out = tmp_path / "out"
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                     "--altitudes-km", "400,1e300",
                     "--deviation-max", "0.4", "--deviation-step", "0.2"]) == 0
        rows = [line.split(",") for line in read_lines(out / "arc_dtheta.csv")[2:]]
        assert {(r[2] == "nan", r[3]) for r in rows if r[1] == "1e+300"} == {(True, "0")}
        assert {r[3] for r in rows if r[1] == "400.0"} == {"1"}

    @pytest.mark.parametrize("altitudes", ["800,800.0000001,1200", "800,800"])
    def test_altitudes_that_label_alike_are_usage_error(
            self, altitudes, scenario_path, tmp_path, capsys):
        # the CSVs would keep every altitude, but both 800s label their chart
        # curve "800 km", and one curve would overwrite the other
        out = tmp_path / "o"
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                     "--format", "both", "--altitudes-km", altitudes]) == 1
        assert capsys.readouterr().err == (
            "usage error: --altitudes-km values must differ at %g precision, "
            "which labels their curves\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv, hit_flags", [
        # the benchmark's tables: every ray hits
        pytest.param(["--altitudes-km", ",".join(str(km) for km in range(300, 1501, 100)),
                      "--deviation-step", "0.01"], {"1"}, id="benchmark-tables"),
        # from 800 km raising the -28 deg ray crosses the horizon, and from
        # 1200 km (horizon at -32.7 deg) every ray misses
        pytest.param(["--expected-azimuth-deg", "0", "--expected-elevation-deg", "-28",
                      "--altitudes-km", "100,800,1200"], {"0", "1"}, id="misses"),
    ])
    def test_altitude_rows_do_not_depend_on_the_altitudes_beside_it(
            self, argv, hit_flags, tmp_path):
        # every altitude's rays are solved in one batch; each altitude's rows
        # must be the bytes of a run with that altitude alone
        scenario = str(SCENARIOS / "leo_capacity.json")
        assert main(["geodesy", "--scenario", scenario, "--out", str(tmp_path / "all")] + argv) == 0
        at = argv.index("--altitudes-km") + 1
        tables = {stem: [line.split(",") for line in read_lines(tmp_path / "all" / f"{stem}.csv")[2:]]
                  for stem in ("arc_dtheta", "arc_dphi")}
        assert {row[3] for rows in tables.values() for row in rows} == hit_flags
        for altitude in argv[at].split(","):
            out = tmp_path / f"alone_{altitude}"
            code = main(["geodesy", "--scenario", scenario, "--out", str(out)]
                        + argv[:at] + [altitude] + argv[at + 1:])
            for stem, rows in tables.items():
                rows = [row for row in rows if row[1] == repr(float(altitude))]
                assert rows
                if code == 3:  # alone, a table with no hit is refused
                    assert {row[3] for row in rows} == {"0"}
                else:
                    assert code == 0
                    assert [",".join(row) for row in rows] == read_lines(out / f"{stem}.csv")[2:]

    def test_expected_ray_flags_must_pair(self, scenario_path, tmp_path):
        assert main(["geodesy", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "o"),
                     "--expected-azimuth-deg", "10.0"]) == 1

    def test_table_without_a_hit_is_runtime_error_before_writing(
        self, scenario_path, tmp_path, capsys
    ):
        # a ray 10 deg above the horizontal never reaches the ground
        assert main(["geodesy", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "o"), "--format", "both",
                     "--expected-azimuth-deg", "0", "--expected-elevation-deg", "10"]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert not list((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("argv", [["--fixed-deviation", "200"],
                                      ["--fixed-deviation", "-200"],
                                      ["--deviation-max", "200", "--deviation-step", "10"]])
    def test_elevation_past_vertical_is_usage_error(self, argv, scenario_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(out),
                     "--format", "both"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {argv[0]} {argv[1]} deg takes ")
        assert captured.err.count("\n") == 1
        assert not list(out.iterdir())


def reference_write_csv(path, seed, header, columns, footer_comments=()):
    """The per-row CSV writer: one ``%r`` row template applied per row."""
    lines = [f"# tool=nullshaper {__version__} seed={seed}", ",".join(header)]
    row_format = ",".join(["%r"] * len(header))
    lines.extend(row_format % row for row in zip(*(np.asarray(c).tolist() for c in columns)))
    lines.extend(footer_comments)
    path.write_text("\n".join(lines) + "\n")


class TestWriteCsv:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.integers(-10**6, 10**6),
                           st.floats(allow_infinity=True, allow_nan=True),
                           st.floats(-1.0, 1.0)),
                 min_size=0, max_size=30),
        st.lists(st.sampled_from(["# crossover_vs_sigma_s_0_deg=none", "# note=1"]), max_size=2),
    )
    def test_matches_per_row_reference(self, tmp_path_factory, rows, footer):
        out = tmp_path_factory.mktemp("csv")
        ints = np.array([r[0] for r in rows], dtype=int)
        floats = np.array([r[1] for r in rows], dtype=float)
        plain = [r[2] for r in rows]  # a list column, as the trace table passes
        header = ("i", "x", "y", "hit")
        columns = (ints, floats, plain, (~np.isnan(floats)).astype(int))
        reference_write_csv(out / "want.csv", 7, header, columns, footer)
        _write_csv(out / "got.csv", 7, header, columns, footer)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_mixed_columns_keep_their_repr(self, tmp_path):
        _write_csv(tmp_path / "t.csv", 3, ("n", "v"), (np.arange(3), [0.1, np.nan, -0.0]),
                   ["# end"])
        assert read_lines(tmp_path / "t.csv")[2:] == ["0,0.1", "1,nan", "2,-0.0", "# end"]

    def test_zero_rows_write_comment_and_header_only(self, tmp_path):
        _write_csv(tmp_path / "e.csv", 5, ("a", "b"), (np.empty(0), []))
        assert (tmp_path / "e.csv").read_text() == (
            f"# tool=nullshaper {__version__} seed=5\na,b\n"
        )


@pytest.fixture(scope="class", params=[1, 7])
def csv_rows(request):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CSV_ROWS", request.param)
        yield request.param


@pytest.mark.usefixtures("csv_rows")
class TestWriteCsvBlocks:
    """The per-row reference again, with tables streamed in blocks of one
    and of seven rows."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.integers(-10**6, 10**6),
                           st.floats(allow_infinity=True, allow_nan=True)),
                 min_size=0, max_size=30),
        st.lists(st.sampled_from(["# crossover_vs_sigma_s_0_deg=none", "# note=1"]), max_size=2),
    )
    def test_matches_per_row_reference(self, tmp_path_factory, rows, footer):
        out = tmp_path_factory.mktemp("csv")
        ints = np.array([r[0] for r in rows], dtype=int)
        floats = [r[1] for r in rows]
        columns = (ints, floats, (~np.isnan(floats)).astype(int))
        reference_write_csv(out / "want.csv", 7, ("i", "x", "hit"), columns, footer)
        _write_csv(out / "got.csv", 7, ("i", "x", "hit"), columns, footer)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.floats(), st.floats(-1e6, 1e6)), min_size=0, max_size=30),
        st.lists(st.sampled_from(["# crossover_vs_sigma_s_0_deg=none", "# note=1"]), max_size=2),
    )
    def test_float_table_matches_per_row_reference(self, tmp_path_factory, rows, footer):
        # all float64: spelled in array passes
        out = tmp_path_factory.mktemp("csv")
        columns = (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
        reference_write_csv(out / "want.csv", 7, ("x", "y"), columns, footer)
        _write_csv(out / "got.csv", 7, ("x", "y"), columns, footer)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


class TestWriteCsvStreaming:
    def test_columns_of_unequal_length_write_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="columns differ in length"):
            _write_csv(tmp_path / "t.csv", 1, ("a", "b"), (np.arange(3), [0.5, 1.5]))
        assert not (tmp_path / "t.csv").exists()

    def test_float_tables_alone_take_the_array_path(self, monkeypatch, tmp_path):
        spelled = []
        repr_lines = cli.repr_lines

        def spy(table):
            spelled.append(table.shape)
            return repr_lines(table)

        monkeypatch.setattr(cli, "repr_lines", spy)
        monkeypatch.setattr(cli, "_CSV_ROWS", 4)
        floats = np.linspace(0.0, 1.0, 9)
        _write_csv(tmp_path / "mixed.csv", 1, ("i", "x"), (np.arange(9), floats))
        assert spelled == []
        _write_csv(tmp_path / "short.csv", 1, ("x", "y"), (floats[:3], floats[:3]))
        _write_csv(tmp_path / "long.csv", 1, ("x", "y"), (floats, floats))
        assert spelled == [(3, 2), (4, 2), (4, 2), (1, 2)]

    @pytest.mark.memory_bound
    def test_long_table_memory_is_bounded(self, tmp_path):
        angles = np.linspace(0.0, 180.0, 36001)
        columns = (angles, 30.0 * np.sin(np.radians(7.0 * angles)) - 20.0)
        _write_csv(tmp_path / "warm.csv", 1, ("angle_deg", "gain_db"), columns)
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "p.csv", 1, ("angle_deg", "gain_db"), columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        reference_write_csv(tmp_path / "want.csv", 1, ("angle_deg", "gain_db"), columns)
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestTinySigmaS:
    """A sigma_s too small to widen the grid designs as the point design:
    its psi is the sigma_s = 0 design's, clamped. Only a --sigma-s whose
    radians underflow to 0 is refused, since it would run as sigma_s = 0
    under another name."""

    def assert_refused(self, argv, sigma_s, out, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("runtime error: sigma_s = %s deg " % sigma_s)
        assert captured.err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("sigma_s", ["1e-100", "1e-160", "1e-300"])
    def test_sweep(self, sigma_s, scenario_path, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--sigma-s", "0," + sigma_s, "--trials", "5", "--format", "both"]) == 0
        # at sigma_i = 0 every trial meets the design's own null, clamped
        # for both designs; their weights differ only by rounding
        point, tiny = (float(read_lines(out / f"sweep_sigmas_{s}.csv")[2].split(",")[1])
                       for s in ("0", sigma_s))
        assert tiny == pytest.approx(point, abs=1e-9)
        assert point == pytest.approx(192.008, abs=1e-3)

    @pytest.mark.parametrize("sigma_s", ["1e-322", "0,1e-322"])
    def test_sweep_radians_underflow(self, sigma_s, scenario_path, tmp_path, capsys):
        # math.radians(1e-322) is 0.0: the value would design as sigma_s = 0
        out = tmp_path / "o"
        self.assert_refused(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                             "--sigma-s", sigma_s, "--trials", "5", "--format", "both"],
                            "9.88131e-323", out, capsys)

    def test_optimize_scenario_file(self, scenario_path, tmp_path, capsys):
        summaries = {}
        for sigma_s in (0.0, 1e-160):
            raw = json.loads(scenario_path.read_text())
            raw["interferers"][0]["sigma_s_deg"] = sigma_s
            scenario_path.write_text(json.dumps(raw))
            assert main(["optimize", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / str(sigma_s))]) == 0
            summaries[sigma_s] = capsys.readouterr().out.splitlines()[-1].split(" wall_time_s=")[0]
        assert summaries[1e-160] == summaries[0.0]
        assert summaries[0.0] == "psi_db=192.008 evaluations=1 loading=1.000e-08 clamped=True"


class TestHugeSigmaS:
    """sigma_s is capped at ``MAX_SIGMA_S_DEG`` = 180 deg. A larger
    --sigma-s is a usage error and a larger scenario value a validation
    error, refused before anything is designed or written."""

    def assert_refused(self, argv, code, message, out, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert not out.exists() or not list(out.iterdir())

    def with_sigmas(self, scenario_path, sigmas):
        raw = json.loads(scenario_path.read_text())
        raw["interferers"] = [dict(raw["interferers"][0], sigma_s_deg=s) for s in sigmas]
        if len(sigmas) > 1:
            raw["interferers"][1].update(lon_deg=140.0, lat_deg=-25.0)
        scenario_path.write_text(json.dumps(raw))

    @pytest.mark.parametrize("sigma_s", ["1e+100", "1e+308"])
    def test_sweep(self, sigma_s, scenario_path, tmp_path, capsys):
        out = tmp_path / "o"
        self.assert_refused(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                             "--sigma-s", "0," + sigma_s, "--trials", "5", "--format", "both"],
                            1, "usage error: --sigma-s values must be between 0 and 180\n",
                            out, capsys)

    def test_optimize_scenario_file(self, scenario_path, tmp_path, capsys):
        self.with_sigmas(scenario_path, [1e308])
        out = tmp_path / "o"
        self.assert_refused(["optimize", "--scenario", str(scenario_path), "--out", str(out)],
                            2, "scenario error: invalid scenario: sigma_s must be between 0 and "
                               "180 deg, got 1e+308\n", out, capsys)

    @pytest.mark.parametrize("sigmas", [(1e170, 1e-200), (1e-200, 1e170)],
                             ids=["huge_first", "tiny_first"])
    def test_two_interferers_name_the_failing_side(self, sigmas, scenario_path, tmp_path,
                                                    capsys):
        # a tiny sigma_s is valid; the refusal names the one over the cap, in either order
        self.with_sigmas(scenario_path, sigmas)
        out = tmp_path / "o"
        self.assert_refused(["optimize", "--scenario", str(scenario_path), "--out", str(out)],
                            2, "scenario error: invalid scenario: sigma_s must be between 0 and "
                               "180 deg, got 1e+170\n", out, capsys)

    def test_cap_is_inclusive_at_both_entry_points(self, scenario_path, tmp_path, capsys):
        above = repr(math.nextafter(180.0, math.inf))
        sweep = ["sweep", "--scenario", str(scenario_path), "--trials", "5",
                 "--sigma-i-max", "0.2"]
        assert main(sweep + ["--out", str(tmp_path / "at"), "--sigma-s", "180"]) == 0
        capsys.readouterr()
        self.assert_refused(sweep + ["--out", str(tmp_path / "above"), "--sigma-s", above],
                            1, "usage error: --sigma-s values must be between 0 and 180\n",
                            tmp_path / "above", capsys)
        optimize = ["optimize", "--scenario", str(scenario_path)]
        self.with_sigmas(scenario_path, [180.0])
        assert main(optimize + ["--out", str(tmp_path / "file_at")]) == 0
        capsys.readouterr()
        self.with_sigmas(scenario_path, [float(above)])
        self.assert_refused(optimize + ["--out", str(tmp_path / "file_above")],
                            2, "scenario error: invalid scenario: sigma_s must be between 0 and "
                               "180 deg, got 180\n", tmp_path / "file_above", capsys)


class TestSweepDesignsTogether:
    """``sweep`` designs its sigma_s values on the scenario as loaded, with
    the outputs of designing them one at a time."""

    def test_four_designs_resolve_each_ground_point_once(self, monkeypatch, tmp_path):
        calls = []
        original = nullshaper.simulation.geodetic_to_direction

        def counted(sat, target):
            calls.append(target)
            return original(sat, target)

        monkeypatch.setattr(nullshaper.simulation, "geodetic_to_direction", counted)
        scenario = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "leo_capacity.json"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                     "--sigma-s", "0,0.1,0.3,0.5", "--trials", "20", "--capacity"]) == 0
        assert len(calls) == 2  # one user and one interferer, both ground points

    def test_beyond_horizon_interferer_fails_only_where_it_is_resolved(
            self, scenario_path, tmp_path, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["interferers"][0].update(lon_deg=-41.5, lat_deg=19.0)
        scenario_path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                     "--trials", "5"]) == 3
        assert capsys.readouterr().err == (
            "runtime error: satellite below the target's horizon; target is not visible\n")
        assert not list(out.iterdir())
        # an explicit ray never resolves the interferer
        assert main(["geodesy", "--scenario", str(scenario_path), "--out", str(tmp_path / "g"),
                     "--expected-azimuth-deg", "30", "--expected-elevation-deg", "-60"]) == 0

    def test_scenario_sigma_s_designs_as_the_flag_does(self, tmp_path):
        # leo_capacity's interferer has sigma_s_deg 0.3, so a sweep without
        # --sigma-s designs with the scenario's own sigma_s
        scenario = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "leo_capacity.json"
        outs = []
        for name, flags in (("scenario", []), ("flag", ["--sigma-s", "0.3"])):
            out = tmp_path / name
            assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--trials", "20",
                         "--capacity", "--format", "both"] + flags) == 0
            outs.append(written(out))
        assert "sweep_sigmas_0.3.csv" in outs[0] and "sweep_capacity.svg" in outs[0]
        assert outs[0] == outs[1]

    def test_design_rows_do_not_depend_on_the_designs_beside_it(self, scenario_path, tmp_path):
        outs = {}
        for name, sigma_s in (("four", "0,0.1,0.3,0.5"), ("two", "0,0.3"), ("one", "0.3")):
            out = tmp_path / name
            assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out),
                         "--sigma-s", sigma_s, "--trials", "20", "--capacity"]) == 0
            outs[name] = written(out)
        for name in ("sweep_sigmas_0.3.csv", "capacity_0.3.csv"):
            assert outs["four"][name] == outs["two"][name]
        # alone, the sigma_s = 0.3 design has no baseline and so no crossover footer
        assert outs["one"]["capacity_0.3.csv"] == outs["four"]["capacity_0.3.csv"]
