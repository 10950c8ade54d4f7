"""Checks that need an interpreter of their own.

- Gains must not move with the BLAS thread count, which is read once when
  numpy loads: the bit-for-bit tests and both demo scenarios' 36,001-sample
  cuts run at ``OPENBLAS_NUM_THREADS`` 1 and 4.
- A tracemalloc bound must hold without the imports and caches that the
  tests run before it leave behind: each test marked ``memory_bound`` runs
  alone in a fresh interpreter.
- A traced benchmark run must finish with every job correct.

Each test waits on one child process at a time. The benchmark runs use a
copy of ``src/``, ``bench/`` and ``demos/``, so their results land under
the copy's ``.bench_out/``, not the checkout's.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "demos" / "scenarios"


def run(argv, threads=1, root=ROOT):
    """Run ``python argv`` from ``root``, the checkout or a copy of it, with
    its ``src`` importable and BLAS on ``threads`` threads; returns the
    finished process."""
    # scanning every installed package for pytest plugins takes most of a
    # short pytest run's second; run_pytest loads the one these tests use
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=str(threads),
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    return subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)


def run_pytest(args, threads=1):
    return run(["-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", *args],
               threads)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("path, select", [
    ("tests/test_array.py", "bit_for_bit"),
    ("tests/test_simulation.py",
     "bit_for_bit or grouping_of_sigma_points or designs_swept_together or three_designs"),
], ids=["array", "simulation"])
def test_bit_for_bit_tests_pass_at_each_blas_thread_count(path, select, threads):
    # BLAS products partition their rows by the thread count
    done = run_pytest([path, "-k", select], threads)
    assert done.returncode == 0, done.stdout[-3000:]


@pytest.mark.parametrize("name", ["leo_capacity", "linear_null_widening"])
def test_long_cut_does_not_move_with_the_blas_thread_count(name, tmp_path):
    csvs = []
    for threads in (1, 4):
        out = tmp_path / str(threads)
        done = run(["-m", "nullshaper.cli", "pattern", "--uniform", "--samples", "36001",
                    "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out)], threads)
        assert done.returncode == 0, done.stderr
        csvs.append((out / "pattern_phi0.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_each_memory_bounded_test_passes_in_a_fresh_interpreter():
    listed = run_pytest(["--collect-only", "-m", "memory_bound", "tests"])
    assert listed.returncode == 0, listed.stdout[-3000:]
    node_ids = [line for line in listed.stdout.splitlines() if "::" in line]
    assert node_ids
    failed = {}
    for node_id in node_ids:
        done = run_pytest([node_id])
        if done.returncode != 0:
            failed[node_id] = done.stdout[-3000:]
    assert not failed, failed


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """A copy of the checkout's ``src/``, ``bench/`` and ``demos/``: run.py
    writes its results beside the ``bench/`` it runs from, and a run from
    the checkout would overwrite the results kept there."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "bench", "demos"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("workload", ["leo-sweep", "geometry", "scaled-design"])
def test_traced_benchmark_run_is_correct(workload, bench_copy):
    # run.py exits 0 even when a job fails, so the verdict is its last line
    done = run(["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
               root=bench_copy)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, (last, done.stderr)
    assert (bench_copy / ".bench_out" / "results" / f"{workload}-seed1-trace1.json").is_file()
