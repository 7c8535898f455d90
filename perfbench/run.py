"""gapsim benchmark: run a workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload runs in its own
fresh, single-threaded process (perfbench/worker.py) with src/ on the
import path; nothing is installed.  With --trace 0 this prints every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer metric,
each by name with its unit, and ends each workload with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

setup_s is the median over SETUP_SAMPLES fresh processes of the time from
process start to the first timed job (importing gapsim, generating and
validating the inputs), scaled to the reference host speed like the job
latencies (see worker.job_latencies).  Traced runs also write their spans to
.perfbench/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
DEADLINE_S = 170  # the whole run, all processes included


def _worker(workload: str, args, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Start a worker process, wait for it and return (its result, its start time)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = _clock()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except BaseException as exc:  # timeout or interrupt: never leave the worker behind
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"{workload}: worker did not finish in time") from exc
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(workload: str, args, spec: dict) -> int:
    """Measure one workload and print its metrics; the last line is the JSON result."""
    deadline = _clock() + DEADLINE_S
    setup_times, scaled_setup_times = [], []

    def add_setup(result: dict, started: float) -> None:
        seconds = result["first_job_at"] - started
        setup_times.append(seconds)
        scaled_setup_times.append(seconds * result["nominal_loop_ms"] / 1000 / result["setup_host_s"])

    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            add_setup(*_worker(workload, args, True, deadline))
    result, started = _worker(workload, args, False, deadline)
    add_setup(result, started)

    values = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    kind = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        values["setup_s"] = statistics.median(scaled_setup_times)
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {', '.join(missing)}\n")
        return 1

    print(
        f"# workload {workload}  seed {args.seed}  python {platform.python_version()}  "
        f"nproc {os.cpu_count()}  passes {result['passes']}  jobs {attempted}  "
        f"timed {result['timed_s']:.3f} s"
    )
    print(f"# inputs {json.dumps(result['properties'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for m in spec[kind]:
        print(f"{m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_frac':<32} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
        print(f"# samples: latency over {attempted} jobs, setup_s median of {len(setup_times)} processes")
        wall = "  ".join(f"{name} {value:.6g}" for name, value in result["wall"].items())
        print(
            f"# unscaled wall time: {wall}  setup_s {statistics.median(setup_times):.6g}; "
            f"reference loop median {result['host_loop_ms']:.4g} ms "
            f"(nominal {result['nominal_loop_ms']:.4g} ms)"
        )
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }
    print(json.dumps(report), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run gapsim benchmark workloads.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that _worker kills its child first.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    if not os.path.isfile(os.path.join(ROOT, "src", "gapsim", "__init__.py")):
        sys.stderr.write("error: no gapsim sources under src/gapsim; run from a full checkout\n")
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    return max(run_one(workload, args, spec) for workload in workloads)


if __name__ == "__main__":
    raise SystemExit(main())
