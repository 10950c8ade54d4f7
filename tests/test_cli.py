import json
import math

import numpy as np
import pytest

from nullshaper import __version__
from nullshaper.array import null_width
from nullshaper.cli import main


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


def read_lines(path):
    return path.read_text().splitlines()


class TestCommonBehaviour:
    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_scenario_is_validation_error(self, tmp_path, capsys):
        code = main(["pattern", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    def test_invalid_scenario_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"satellite": {"lon_deg": 0.0}}))
        assert main(["optimize", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_thread_cap_validated(self, scenario_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NULLSHAPER_THREADS", "zero")
        code = main(["pattern", "--scenario", str(scenario_path), "--out", str(tmp_path / "o"),
                     "--uniform"])
        assert code == 1
        monkeypatch.setenv("NULLSHAPER_THREADS", "2")
        code = main(["pattern", "--scenario", str(scenario_path), "--out", str(tmp_path / "o"),
                     "--uniform"])
        assert code == 0

    def test_output_directory_created(self, scenario_path, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert main(["pattern", "--scenario", str(scenario_path), "--out", str(out),
                     "--uniform"]) == 0
        assert (out / "pattern_phi0.csv").exists()


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
        assert captured.err.count("pso block is ignored") == 1

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

    def test_deterministic_across_thread_cap(self, scenario_path, tmp_path, monkeypatch):
        outs = []
        for cap, name in (("1", "t1"), ("8", "t8")):
            monkeypatch.setenv("NULLSHAPER_THREADS", cap)
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

    def test_expected_ray_flags_must_pair(self, scenario_path, tmp_path):
        assert main(["geodesy", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "o"),
                     "--expected-azimuth-deg", "10.0"]) == 1
