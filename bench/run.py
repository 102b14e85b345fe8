"""lawbench benchmark: runs one workload's sweep grid in-process through
`roblaw.sweep.run_sweep`, checks every CSV it writes, and prints the
metrics, the last line being one JSON object.

    python3 bench/run.py --workload ntk-width --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced sweeps and reports the per-layer metrics
from the traced ones. Outputs (CSVs, a result record with the environment,
the spans of a traced run) go to .bench_out/ under the repository root.
The benchmark sets no BLAS or threading variable; the BLAS thread count
is only read.
"""

import argparse
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from layers import TARGETS, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, check_rows, sweep_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 3
#: every run makes at least this many sweeps, so same-seed CSVs can be compared
MIN_SWEEPS = 2

SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from workloads import WORKLOADS, sweep_config
start = time.perf_counter()
import roblaw, roblaw.sweep
sweep_config(roblaw, WORKLOADS[sys.argv[3]], int(sys.argv[4]), "setup.csv")
print(time.perf_counter() - start)
"""


def load_roblaw():
    """Import roblaw from this checkout's sources, never from elsewhere."""
    if not (SRC / "roblaw" / "__init__.py").is_file():
        sys.exit(f"error: no roblaw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import roblaw
    import roblaw.analyze
    import roblaw.sweep

    if Path(roblaw.__file__).resolve().parent != SRC / "roblaw":
        sys.exit(f"error: imported roblaw from {roblaw.__file__}, not {SRC}")
    return roblaw


def setup_seconds(workload: str, seed: int) -> float:
    """Time to import roblaw and build the workload's SweepConfig in a
    fresh interpreter, as every `lawbench` call pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=OUT,
    )
    return float(proc.stdout.split()[-1])


def blas_libraries() -> list:
    """Each loaded OpenBLAS with its build string and thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        out.append(info)
    return out


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """sha256 of the roblaw sources, which names the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "roblaw").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
    }


class SweepRunner:
    """Runs one workload's sweep repeatedly and checks each CSV against the
    grid, the workload's checks and the first CSV of the run."""

    def __init__(self, roblaw, workload, seed: int):
        self.roblaw = roblaw
        self.workload = workload
        self.workers = workload.workers
        self.path = OUT / f"{workload.name}-seed{seed}.csv"
        self.config = sweep_config(roblaw, workload, seed, str(self.path))
        self.first_csv = None
        #: wall time of every sweep of the run, in order
        self.walls: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def sweep(self) -> tuple:
        """One timed run_sweep call, then its checks; returns (rows, wall)."""
        start = time.perf_counter()
        self.roblaw.sweep.run_sweep(self.config, workers=self.workers)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        data = self.path.read_bytes()
        reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
        rows = list(reader)
        per_row = check_rows(self.roblaw, self.config, reader.fieldnames, rows)
        grid_level = [msg for check in self.workload.sweep_checks
                      for msg in check(self.roblaw, str(self.path))]
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            grid_level.append("CSV differs from the first CSV of this seed")
        if grid_level:
            per_row = [bad + grid_level for bad in per_row]
        self.attempted += len(per_row)
        for bad in per_row:
            if bad:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append("; ".join(bad))
        return len(rows), wall


def fits(durations, deadline) -> bool:
    """Whether one more step of the median duration ends by the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def run_untraced(runner, args) -> dict:
    setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    rates = []
    deadline = time.perf_counter() + args.seconds
    while len(rates) < MIN_SWEEPS or fits(runner.walls, deadline):
        rows, wall = runner.sweep()
        rates.append(rows / wall)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "trials_per_s": (statistics.median(rates), "trials/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def run_traced(runner, args, tracer) -> dict:
    """After one untimed warm-up sweep, untraced and traced sweeps in ABBA
    order; per-layer metrics come from the traced ones, trace.overhead
    from the ratio of their medians."""
    walls = {False: [], True: []}
    pairs = []
    deadline = time.perf_counter() + args.seconds
    runner.sweep()
    while not pairs or fits(pairs, deadline):
        start = time.perf_counter()
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced:
                tracer.install(TARGETS, "roblaw")
            try:
                walls[traced].append(runner.sweep()[1])
            finally:
                tracer.uninstall()
        pairs.append(time.perf_counter() - start)
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    return layer_metrics(tracer.spans, runner.workers, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    roblaw = load_roblaw()
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    runner = SweepRunner(roblaw, WORKLOADS[args.workload], args.seed)
    tracer = Tracer()
    if args.trace:
        metrics = run_traced(runner, args, tracer)
    else:
        metrics = run_untraced(runner, args)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    failed_frac = runner.failed / runner.attempted
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": failed_frac, "failures": runner.failures,
        "sweep_walls_s": runner.walls,
        "missing": tracer.missing, "count_errors": tracer.count_errors[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"environment {json.dumps(env)}")
    for msg in runner.failures:
        print(f"FAILED {msg}")
    for name in tracer.missing:
        print(f"missing {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value:14.6g} {unit}")
    print(f"{'failed_frac':26s} {failed_frac:14.6g} share "
          f"({runner.failed}/{runner.attempted} trials)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
