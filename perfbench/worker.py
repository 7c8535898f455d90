"""One workload in one fresh, single-threaded process: set up, measure, check.

Usage (normally started by run.py, with PYTHONPATH pointing at src/):

    python3 perfbench/worker.py --workload simulate --seed 1 --seconds 20 --trace 0

The closed loop runs whole passes over the seeded job list, one job after
another, until the timed job time reaches --seconds and at least MIN_JOBS
jobs ran.  Between jobs, at least every CALIBRATION_EVERY_S of job time, it
times a fixed reference loop that calls no gapsim code; the end-to-end
latencies are reported at the reference host speed (see job_latencies).
With --trace 1, passes alternate untraced and traced over the
same jobs; the traced passes give the per-layer metrics and the untraced
ones the tracing overhead.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from time import perf_counter

import spans
import workloads

MIN_JOBS = 100  # job_p90_ms needs at least 10 samples beyond it
CALIBRATION_EVERY_S = 0.05  # job time between two samples of the reference loop
HOST_WINDOW = 4  # reference-loop samples on each side of a job that give its host time
REFERENCE_LOOP_S = 0.002  # the reference loop's time at the reference host speed
SETUP_HOST_SAMPLES = 5  # reference-loop samples after set-up
SUITES = workloads.suites.SUITES
CLI_COMMANDS = ("verify", "simulate", "gap_eval", "lowness")

# Per-call metrics: each group's mean self time per call, summed over groups.
PER_CALL = {
    "model.build_s": (("model.build_system", "model.make_system", "model.load_system"),),
    "evolve.accept_probability_s": (("evolve.accept_probability",),),
    "evolve.float_check_s": (("evolve.float_check",),),
    "trees.gap_s": (("trees.gap",),),
    "gapp.system_tree_s": (("gapp.system_tree",),),
    "gapp.exp_sum_build_s": (("gapp.exp_sum",),),
    "gapp.poly_product_build_s": (("gapp.poly_product",),),
    "gapp.certify_s": (("gapp.bqp_to_awpp",), ("gapp.check_awpp",)),
    "lowness.inline_s": (("lowness.inline_construction",),),
    "lowness.sign_check_s": (("lowness.verify_sign_preservation",),),
    "oracle.flip_stability_s": (("oracle.verify_flip_stability",),),
    "oracle.decide_s": (("oracle.rerelativized_decide",),),
    "corpus.build_s": (
        (
            "corpus.gap_machine_corpus",
            "corpus.amplified_family",
            "corpus.deep_chain_system",
            "corpus.decider_corpus",
            "corpus.decider_conditions",
            "corpus.write_corpus",
        ),
    ),
    **{f"suites.{name}_s": ((f"suites.run_{name}",),) for name in SUITES},
    **{f"cli.{command}_s": ((f"cli.{command}",),) for command in CLI_COMMANDS},
}


def clock() -> float:
    """Monotonic clock shared by every process on the host (for set-up time)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den) -> float:
    return sum(num) / sum(den) if den and sum(den) else 0.0


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes: dict updates, list
    appends, a sort and big-integer arithmetic, the operations gapsim's jobs
    are made of.  It calls no gapsim code, so only the host's speed moves it."""
    start = perf_counter()
    table: dict[int, int] = {}
    pairs = []
    x = 3**200
    for i in range(1500):
        k = i % 61
        table[k] = table.get(k, 0) + i
        x = (x * 7 + i) % 5**300
        pairs.append((k, x & 255))
    pairs.sort()
    return perf_counter() - start


def _measure(plan, rng, seconds, trace, tracer, min_jobs):
    """Closed loop over whole passes; returns per-job records and per-pass times.

    A record is [job index, seconds, summary, error, host], where host is the
    median of the HOST_WINDOW reference-loop samples taken just before the
    job and the HOST_WINDOW just after it.  One 2 ms sample is itself noisy
    (two back to back differ by 20 % on a busy host); the median of several
    is not.
    """
    records: list[list] = []
    pass_times = []  # (traced, total job seconds)
    counters: dict = {}
    timed = 0.0
    samples: list[float] = []  # reference-loop times, in run order
    while True:
        traced = trace and len(pass_times) % 2 == 1
        order = list(range(len(plan.jobs)))
        rng.shuffle(order)
        pass_time = 0.0
        samples.append(reference_loop())
        since = 0.0
        for index in order:
            if since >= CALIBRATION_EVERY_S:
                samples.append(reference_loop())
                since = 0.0
            job = plan.jobs[index]
            tracer.enabled, tracer.job, tracer.phase = traced, len(records), "job"
            summary, error = None, None
            start = perf_counter()
            try:
                raw = tracer.call(f"job.{job.kind}", job.run, tracer)
            except Exception as exc:  # a raised exception is a failed job
                raw, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            if error is None:
                try:
                    summary = job.summarize(raw)
                    if traced and job.observe is not None:
                        job.observe(raw, tracer, counters)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            raw = None
            records.append([index, elapsed, summary, error, len(samples)])
            pass_time += elapsed
            since += elapsed
        samples.append(reference_loop())
        tracer.enabled = False
        pass_times.append((traced, pass_time))
        timed += pass_time
        enough_passes = not trace or len(pass_times) >= 2
        if timed >= seconds and len(records) >= min_jobs and enough_passes:
            for record in records:
                before = record[4]
                record[4] = statistics.median(samples[max(0, before - HOST_WINDOW) : before + HOST_WINDOW])
            return records, pass_times, counters


def _check(plan, records) -> tuple[list[bool], list[str]]:
    """Compare every job's summary with its reference; references run once per key."""
    expected: dict = {}
    verdicts, problems = [], []
    for index, _elapsed, summary, error, _host in records:
        job = plan.jobs[index]
        if error is None:
            if job.key not in expected:
                try:
                    expected[job.key] = (True, job.reference())
                except Exception as exc:
                    expected[job.key] = (False, f"reference failed: {type(exc).__name__}: {exc}")
            ok, want = expected[job.key]
            if not ok:
                error = want
            else:
                try:
                    if not job.agrees(summary, want):
                        error = f"wrong answer {summary!r}, expected {want!r}"
                except Exception as exc:
                    error = f"check failed: {type(exc).__name__}: {exc}"
        verdicts.append(error is None)
        if error is not None and len(problems) < 5:
            problems.append(f"{job.kind} {job.key!r}: {error}"[:400])
    return verdicts, problems


def job_latencies(records) -> list[float]:
    """Each job's latency at the reference host speed, one per record.

    A job's wall time is scaled by REFERENCE_LOOP_S / host, the reference
    loop's nominal time over its time around the job.  The host's speed
    swings by up to 2x over tens of seconds, and a slow phase can cover a
    whole run; the scaling cancels that, and a change to gapsim moves the
    job's time but not the loop's.  Every input runs once per pass, and a
    job's latency is the median of its input's scaled times in the run.
    """
    scaled: dict[int, list[float]] = {}
    for index, elapsed, _summary, _error, host in records:
        scaled.setdefault(index, []).append(elapsed * REFERENCE_LOOP_S / host)
    median = {index: statistics.median(times) for index, times in scaled.items()}
    return [median[record[0]] for record in records]


def latency_metrics(latencies, correct: int) -> dict:
    return {
        "jobs_per_s": correct / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1000,
        "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
    }


def end_to_end(records, verdicts, rss_mb: float) -> dict:
    latencies = job_latencies(records)
    return {**latency_metrics(latencies, sum(verdicts)), "peak_rss_mb": rss_mb}


def per_layer(plan, records, pass_times, counters, tracer) -> dict:
    span_list = tracer.spans
    selfs = spans.self_times(span_list)
    traced_passes = sum(1 for traced, _t in pass_times if traced)
    by_name: dict[str, list[float]] = {}
    durations: dict[str, list[tuple[int | str, float]]] = {}
    layer_setup = dict.fromkeys(workloads.LAYER_NAMES, 0.0)
    layer_passes = dict.fromkeys(workloads.LAYER_NAMES, 0.0)
    for span, own in zip(span_list, selfs):
        name, start, end, _parent, job, phase = span
        by_name.setdefault(name, []).append(own)
        durations.setdefault(name, []).append((job, end - start))
        layer = name.split(".", 1)[0]
        if layer in layer_setup:
            if phase == "setup":
                layer_setup[layer] += own
            else:
                layer_passes[layer] += own

    metrics = {}
    for metric, groups in PER_CALL.items():
        metrics[metric] = sum(
            _mean(own for name in group for own in by_name.get(name, ())) for group in groups
        )
    for layer in workloads.LAYER_NAMES:
        metrics[f"{layer}.self_s"] = layer_setup[layer] + layer_passes[layer] / traced_passes

    get = counters.get
    metrics.update(
        {
            "model.entries": _mean(get("model.entries", ())),
            "evolve.amp_bits_max": max(get("evolve.amp_bits", ()), default=0),
            "evolve.config_steps": _mean(get("evolve.config_steps", ())),
            "evolve.support_frac": _ratio(get("evolve.cone_pairs", ()), get("evolve.all_pairs", ())),
            "trees.distinct_nodes": _mean(get("trees.distinct_nodes", ())),
            "trees.edges": _mean(get("trees.edges", ())),
            "trees.unfolded_leaves": float(_mean(get("trees.unfolded_leaves", ()))),
            "lowness.tally_bits": _mean(get("lowness.tally_bits", ())),
            "oracle.runs": _mean(get("oracle.runs", ())),
            "oracle.probes": _mean(get("oracle.probes", ())),
            "oracle.probe_budget_frac": _ratio(get("oracle.probes", ()), get("oracle.budget", ())),
            "cli.report_bytes": _mean(get("cli.report_bytes", ())),
        }
    )

    # cli.overhead_s: `cli.main(["verify", s])` minus a direct RUNNERS[s] call, per suite.
    cli_verify: dict[str, list[float]] = {}
    for job, seconds in durations.get("cli.verify", ()):
        suite = plan.jobs[records[job][0]].key[1]
        cli_verify.setdefault(suite, []).append(seconds)
    gaps = [
        statistics.median(cli_verify[suite])
        - statistics.median(seconds for _job, seconds in durations[f"suites.run_{suite}"])
        for suite in cli_verify
        if f"suites.run_{suite}" in durations
    ]
    metrics["cli.overhead_s"] = _mean(gaps)

    # Passes are contiguous runs of len(plan.jobs) records; compare them at
    # the reference host speed, as the end-to-end latencies are.
    size = len(plan.jobs)
    scaled = [
        sum(record[1] * REFERENCE_LOOP_S / record[4] for record in records[start : start + size])
        for start in range(0, len(records), size)
    ]
    plain = [t for (traced, _t), t in zip(pass_times, scaled) if not traced]
    with_spans = [t for (traced, _t), t in zip(pass_times, scaled) if traced]
    metrics["trace.overhead_frac"] = statistics.median(with_spans) / statistics.median(plain) - 1
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    min_jobs: int = MIN_JOBS,
    setup_only: bool = False,
    spans_path: str | None = None,
) -> dict:
    """Set up, measure and check one workload in this process."""
    rng = random.Random(seed)
    tracer = spans.Tracer()
    tracer.enabled = trace
    plan = workloads.SETUPS[name](rng, tracer, scale)
    first_job_at = clock()
    result = {
        "first_job_at": first_job_at,
        # the host's speed just after set-up, to scale the set-up time with
        "setup_host_s": statistics.median(reference_loop() for _ in range(SETUP_HOST_SAMPLES)),
        "nominal_loop_ms": REFERENCE_LOOP_S * 1000,
        "properties": plan.properties,
    }
    if setup_only:
        return result
    records, pass_times, counters = _measure(plan, rng, seconds, trace, tracer, min_jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts, problems = _check(plan, records)
    timed = sum(t for _traced, t in pass_times)
    result.update(
        attempted=len(records),
        failed=len(records) - sum(verdicts),
        passes=len(pass_times),
        timed_s=timed,
        problems=problems,
    )
    if trace:
        result["metrics"] = per_layer(plan, records, pass_times, counters, tracer)
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        result["metrics"] = end_to_end(records, verdicts, rss_mb)
        result["wall"] = latency_metrics([record[1] for record in records], sum(verdicts))
        result["host_loop_ms"] = statistics.median(r[4] for r in records) * 1000
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spans_path = None
    if args.trace:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        setup_only=args.setup_only,
        spans_path=spans_path,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
