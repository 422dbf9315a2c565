"""cohlat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload criterion-sz8 --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from src/. The seed
relabels the input groups and draws the ring-session queries (inputs.py);
cohlat sees only the generated group files. Every run starts fresh worker
processes (worker.py), because cohlat caches resolutions for the life of a
process.

phi-small and ring-session loop for --seconds; a criterion-sz8 process is
one CLI run of about 20 s, whatever --seconds says. --trace 0 reports the
end-to-end metrics over RUN_PROCS measured processes. query_p99_ms is a
99th percentile only on ring-session, whose runs measure 1000 queries or
more; on the two workloads of a few long operations it is their median
operation, like query_p50_ms (see tail_latency). --trace 1 runs one
process untraced and then one traced, on the same inputs, and reports the per-layer metrics of the traced one plus the
difference between the two solve times. The answers of both must be
identical.

The last line of standard output is the result object; the line before it
holds run metadata. A run that cannot measure (no package, a worker that
crashes or overruns) prints no result and exits non-zero.
"""
import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
# worker processes that run the timed part, each on its own relabelling
# (one criterion run is a single ~20 s operation, so it takes two), and
# processes that stop once their inputs are ready. setup_s is the median
# set-up time over both kinds; peak_rss_mb the largest peak of a measured
# process, since the labelling moves the criterion's peak by up to 15%.
# A ring-session set-up takes ~13 s, so a run sets up only once, to leave
# the driver's time to the query window.
RUN_PROCS = {"criterion-sz8": 2, "phi-small": 1, "ring-session": 1}
SETUP_ONLY_PROCS = {"criterion-sz8": 6, "phi-small": 6, "ring-session": 0}
# operations a run needs before query_p99_ms is a 99th percentile: the
# nearest-rank p99 of 1000 leaves ten samples beyond it (ring-session runs
# at least 1000 queries)
P99_MIN_OPS = 1000
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def run_worker(spec: dict, workdir: Path, deadline: float) -> dict:
    """One worker process; returns its result plus the spawn timestamp."""
    spec = dict(spec, result=str(workdir / f"result-{spec['tag']}.json"))
    spec_path = workdir / f"spec-{spec['tag']}.json"
    spec_path.write_text(json.dumps(spec))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {spec['tag']} overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {spec['tag']} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    result = json.loads(Path(spec["result"]).read_text())
    result["setup_s"] = (result["ready_ns"] - spawn_ns) / 1e9
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_latency(lat_ms) -> float:
    """The 99th percentile where the run measured enough operations for one;
    otherwise the median.

    With fewer than P99_MIN_OPS operations (criterion-sz8's two CLI runs,
    phi-small's ~14 passes) the nearest-rank p99 is the slowest operation,
    which measures the shared host's worst moment, not the program.
    """
    if len(lat_ms) >= P99_MIN_OPS:
        return percentile(lat_ms, 0.99)
    return statistics.median(lat_ms)


def end_to_end(runs, setup_times) -> dict:
    units = [u for run in runs for u in run["units_s"]]
    lat_ms = [x * 1000.0 for run in runs for x in run["latencies_s"]]
    return {
        "solve_s": {"value": statistics.median(units), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": max(run["peak_rss_mb"] for run in runs),
                        "unit": "MB"},
        "query_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "query_p99_ms": {"value": tail_latency(lat_ms), "unit": "ms"},
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    from tracer import per_layer_units
    values = dict(traced["layers"])
    values["trace.overhead_s"] = (statistics.median(traced["units_s"])
                                  - statistics.median(untraced["units_s"]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def metadata(seed: int) -> dict:
    import numpy
    lines = sum(path.read_bytes().count(b"\n")
                for path in (SRC / "cohlat").glob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "src_cohlat_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: "1" for name in PINNED_THREADS},
    }


def bench(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "cohlat" / "__init__.py").is_file():
        raise BenchError(f"no cohlat package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from inputs import write_group_files
    WORK_ROOT.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        base = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "workdir": str(workdir),
                "trace": 0, "mode": "run",
                "spans": str(OUT_DIR / f"spans-{args.workload}.jsonl")}
        n_run = 1 if args.trace else RUN_PROCS[args.workload]
        specs = [dict(base, tag=f"run{copy}", groups=write_group_files(
            args.workload, args.seed, workdir, copy)) for copy in range(n_run)]
        if args.trace:
            plain = run_worker(dict(specs[0], tag="untraced"), workdir,
                               deadline)
            traced = run_worker(dict(specs[0], tag="traced", trace=1),
                                workdir, deadline)
            failed = traced["failed"]
            if plain["digest"] != traced["digest"]:
                print("check failed: answers differ with tracing on",
                      file=sys.stderr)
                failed += 1
            return traced["attempted"], failed, per_layer(plain, traced)
        setups = [run_worker(dict(specs[i % n_run], tag=f"setup{i}",
                                  mode="setup"), workdir, deadline)["setup_s"]
                  for i in range(SETUP_ONLY_PROCS[args.workload])]
        runs = [run_worker(spec, workdir, deadline) for spec in specs]
        setups += [run["setup_s"] for run in runs]
        return (sum(run["attempted"] for run in runs),
                sum(run["failed"] for run in runs),
                end_to_end(runs, setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(RUN_PROCS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        attempted, failed, metrics = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": metadata(args.seed)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
