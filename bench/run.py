"""nullshaper benchmark: one workload, closed loop, for a fixed time.

    python3 bench/run.py --workload leo-sweep --seed 1 --seconds 60 --trace 0

Each job is one workload's CLI commands run in-process through
``nullshaper.cli.main``, one after another. With ``--trace 0`` the run
times jobs untraced and reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced jobs and reports the per-layer metrics.
The last stdout line is one JSON object; the full result, with an
environment block, is written under ``.bench_out/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

OUT = workloads.ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timed per run for setup_s, spread evenly over the run
#: so that the median does not hang on one moment of a shared machine.
SETUP_PROBES = 7
#: A warm-up job (checked, not timed: first calls page in memory and
#: caches), then at least one untraced and one traced or second timed job.
MIN_JOBS = 3

#: job_min_s is the fastest timed job of the run. On a shared virtual machine
#: CPU speed can swing by tens of percent for minutes at a time, so the
#: median job of a run moves with when the run happened; the fastest job of
#: a 60 s run repeats far better. The median (job_s) is still printed and
#: kept in the result file.
E2E_UNITS = {"job_min_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "quality_db": "dB"}
#: Source of quality_db on each workload (all in dB).
QUALITY_SOURCE = {
    "leo-sweep": "sweep_psi_db_1deg",
    "scaled-design": "design_psi_db",
    "geometry": "pattern_peak_db",
}


def pin_blas_threads() -> None:
    """Run BLAS single-threaded, before numpy loads.

    On a 2-vCPU machine, idle OpenBLAS workers spin against the interpreter
    thread and widened the job-time spread of one input to about +-25%;
    one thread avoids that and never exceeds the CPU count.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(np) -> dict:
    commit = None
    root = workloads.ROOT
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {lib: {k: v for k, v in blas.get(lib, {}).items() if "directory" not in k}
                 for lib in ("blas", "lapack")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("NULLSHAPER_THREADS",)},
        "git_commit": commit,
        "platform": platform.platform(),
    }


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """Child process: print the seconds to import nullshaper and load or
    generate the workload's scenarios."""
    started = time.perf_counter()
    workloads.import_nullshaper()
    workloads.prepare(workload, work, seed)
    print(repr(time.perf_counter() - started))


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Run one setup probe in a fresh interpreter and return its seconds."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_job(cli, commands) -> tuple[float, list[int | None]]:
    """Time one job: every command of the workload, stdout captured."""
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
    codes: list[int | None] = []
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        for cmd in commands:
            try:
                codes.append(cli.main(list(cmd.argv)))
            except Exception:  # a crash is a failed job, not a failed run
                import traceback

                traceback.print_exc()
                codes.append(None)
        elapsed = time.perf_counter() - started
    return elapsed, codes


def bytes_written(commands) -> int:
    return sum(p.stat().st_size for cmd in commands if cmd.out.is_dir()
               for p in cmd.out.rglob("*") if p.is_file())


def run(args) -> dict:
    ns = workloads.import_nullshaper()
    import numpy as np

    import tracing

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    scenarios = workloads.prepare(args.workload, work, args.seed)
    commands = workloads.job_commands(args.workload, scenarios, work / "job", args.seed)

    recorder = tracing.Recorder()
    times: dict[bool, list[float]] = {False: [], True: []}
    warmup_s = None
    bytes_out: dict[int, int] = {}
    failures: list[list[str]] = []
    reference = None
    first_quality: dict = {}
    setup: list[float] = []
    probes = 0 if args.trace else SETUP_PROBES
    started = time.perf_counter()
    job = 0
    # A job starts only if a typical job still fits in the time left.
    while (job < MIN_JOBS or time.perf_counter() - started
           + statistics.median(times[False] + times[True]) <= args.seconds):
        while len(setup) < probes and time.perf_counter() - started >= len(setup) * args.seconds / probes:
            setup.append(measure_setup(args.workload, args.seed, work / f"probe{len(setup)}"))
        traced = bool(args.trace) and job % 2 == 1
        recorder.job = job
        if traced:
            with tracing.traced(recorder, ns):
                elapsed, codes = run_job(ns.cli, commands)
            bytes_out[job] = bytes_written(commands)
        else:
            elapsed, codes = run_job(ns.cli, commands)
        if job == 0:
            warmup_s = elapsed
        else:
            times[traced].append(elapsed)
        quality, digest, failed = workloads.check_job(args.workload, commands, codes, scenarios, reference)
        reference = reference or digest
        first_quality = first_quality or quality
        failures.append(failed)
        for message in failed:
            print(f"job {job} check failed: {message}", file=sys.stderr)
        job += 1
    while len(setup) < probes:
        setup.append(measure_setup(args.workload, args.seed, work / f"probe{len(setup)}"))

    failed_jobs = sum(1 for f in failures if f)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(np),
        "jobs": job,
        "failed_jobs": failed_jobs,
        "error_rate": failed_jobs / job,
        "failures": [f for f in failures if f],
        "warmup_s": warmup_s,
        "job_s": times[False],
        "quality": first_quality,
    }
    if args.trace:
        result["traced_job_s"] = times[True]
        result["metrics"] = {
            name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
            for name, value in tracing.layer_metrics(recorder, bytes_out, times[True], times[False]).items()
        }
    else:
        result["setup_s"] = setup
        values = {
            "job_min_s": min(times[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_db": first_quality.get(QUALITY_SOURCE[args.workload], float("nan")),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.save(results / f"{stem}.spans.npz")
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return result


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"jobs={result['jobs']} error_rate={result['error_rate']:.4f} fraction")
    print(f"job_s={statistics.median(result['job_s'])!r} s (median of {len(result['job_s'])} untraced jobs)")
    for name, value in result["quality"].items():
        unit = "bits/s/Hz" if name.startswith("capacity") else "dB"
        print(f"{name}={value!r} {unit}")
    for name, metric in result["metrics"].items():
        print(f"{name}={metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed_jobs"] == 0,
        "attempted": result["jobs"],
        "failed": result["failed_jobs"],
        "metrics": result["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pin_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.work)
        return 0
    try:
        result = run(args)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
