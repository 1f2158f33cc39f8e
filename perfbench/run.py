"""The repository's benchmark: one seeded workload per call, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_fields --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs one untraced unit and the same unit traced, and reports the
per-layer metrics plus the tracing overhead.  Every run checks the
program's outputs outside the timed region and exits 1 if a check fails.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``BENCHMARK.json``
at the repository root names the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("paper_fields", "mega_sharded", "serve_zipf",
                  "distributed_sim")
#: The interpreter start a user pays once per process: import every
#: layer the workloads enter.
STARTUP_IMPORT = ("import repro.core, repro.network, repro.shard, "
                  "repro.serving, repro.runtime")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics():
    """``({name: unit} end_to_end, {name: unit} per_layer)`` from
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def process_start_seconds() -> float:
    """Wall time of a fresh interpreter importing the library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_IMPORT], env=env, cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def make_workload(name: str, workdir: Path):
    from perfbench import workloads

    if name == "paper_fields":
        return workloads.PaperFields()
    if name == "mega_sharded":
        # The pool's workers and this process each get a CPU: with more
        # processes than CPUs the runs time the host's scheduler (on two
        # CPUs, jobs=2 spread 0.22 across seeds), so on two CPUs the tiles
        # run in this process and only traced runs start the pool.
        return workloads.MegaSharded(
            jobs=max(1, min(workloads.POOL_JOBS, (os.cpu_count() or 1) - 1)))
    if name == "serve_zipf":
        return workloads.ServeZipf(workdir)
    return workloads.DistributedSim()


def environment(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "jobs": getattr(workload, "jobs", 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def run(args, workdir: Path) -> int:
    from perfbench.probe import timed

    end_to_end, per_layer = declared_metrics()
    workload = make_workload(args.workload, workdir)
    setups, inputs = [], None
    for _ in range(workload.setup_repeats):
        inputs = None  # one set of inputs alive at a time, as in one set-up
        startup = process_start_seconds()
        elapsed, inputs = timed(workload.setup, args.seed)
        setups.append(startup + elapsed)
    if args.trace:
        report = workload.trace(inputs)
    else:
        report = workload.measure(inputs, args.seconds)
    report.add("setup_s", statistics.median(setups), "s")
    report.add("failed_ratio", report.failed / max(1, report.attempted),
               "ratio")
    if report.failed:
        # Exceptions, non-ok responses and degraded runs never happen on
        # correct code, and their time would distort the rates.
        report.failures.append(f"{report.failed} of {report.attempted} "
                               "operations failed")

    wanted = per_layer if args.trace else end_to_end
    missing = sorted(set(wanted) - set(report.metrics))
    if args.trace:
        # Every workload reports every per-layer metric; a layer it does
        # not enter spent no time and did no work there.
        for name in missing:
            report.add(name, 0, wanted[name])
        report.info["bypassed"] = missing
    elif missing:
        report.failures.append(f"end-to-end metrics not measured: {missing}")
    for name, unit in sorted(wanted.items()):
        measured = report.metrics.get(name, (None, unit))[1]
        if measured != unit:
            report.failures.append(f"{name} measured in {measured}, not {unit}")

    print("env " + json.dumps(environment(args, workload), sort_keys=True))
    for key, value in sorted(report.info.items()):
        print(f"info {key} = {value}")
    for name, (value, unit) in sorted(report.metrics.items()):
        print(f"metric {name} = {value} {unit}")
    for line in report.failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    print(json.dumps({
        "correct": not report.failures,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(report.metrics.items())
                    if name in wanted},
    }))
    return 1 if report.failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no library sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still owns a directory there
            pass


if __name__ == "__main__":
    sys.exit(main())
