"""szwalk benchmark: one workload per process, every metric with its unit.

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 45 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src`` directory.  Jobs run in-process and back to back (a closed loop
with one client), in passes over the workload's fixed job list, for about
``--seconds`` of job time.  Every output is checked against an independent
reference.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time to
import szwalk afresh and generate the inputs, sampled after every job),
``pass_s`` (median over passes of the summed job wall times) and
``peak_rss_mb``.  ``--trace 1`` runs untraced passes for half the time and
traced ones for the other half and prints the per-layer metrics.  Without
``--workload`` every workload runs, each in its own process.  The last line
of standard output is one JSON object; the full record, with the
environment, goes to ``perfbench/results/``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import envinfo
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
TAIL_BEYOND = 10        # samples required above the reported tail latency
# End-to-end figures kept out of BENCHMARK.json and reported in the results
# record only.  Not every workload has verify or PageRank jobs; failures are
# already in "attempted" and "failed"; and on verify-dense the per-job
# median and tail sit on the few sub-second jobs, whose run-to-run spread is
# wider than any bound BENCHMARK.json may set.
DETAIL_UNITS = {"job_p50_s": "s", "job_p50_samples": "count",
                "job_tail_s": "s", "job_tail_percentile": "%", "job_tail_samples": "count",
                "passes": "count", "verify_cols_per_s": "1/s",
                "pagerank_steps_per_s": "1/s", "failed_ratio": "ratio",
                "host_probe_s": "s"}


def tail_latency(samples, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with at least ``beyond`` samples
    above it: returns (value, percentile, sample count)."""
    xs = sorted(samples)
    k = len(xs) - 1 - beyond
    if k < 0:
        raise ValueError(f"{len(xs)} samples; a tail needs at least {beyond + 1}")
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def host_probe():
    """Seconds a fixed pure-Python loop takes: how fast the host runs now.
    Recorded, not gated; it tells a slow program from a slow host."""
    t0 = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return perf_counter() - t0


def szwalk_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "szwalk" or name.startswith("szwalk.")}


def import_szwalk():
    """Import szwalk afresh from this checkout's ``src``."""
    for name in szwalk_modules():
        del sys.modules[name]
    szwalk = importlib.import_module("szwalk")
    if not os.path.abspath(szwalk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"szwalk imported from {szwalk.__file__}, not from {SRC}")
    return szwalk


@dataclass
class Pass:
    seconds: float
    jobs: list          # (job, seconds)
    facts: dict         # job name -> facts from its check
    failures: list      # (job name, message)


def run_pass(workload, order, out, tracer=None, after_job=None):
    """Run every job once, in ``order``, then check all outputs.  The pass
    takes the sum of its jobs' wall times; ``after_job`` runs between jobs,
    outside that time."""
    os.mkdir(out)
    gc.collect()
    done = []
    for i in order:
        job = workload.jobs[i]
        t0 = perf_counter()
        try:
            with tracer.span("job", job.name) if tracer else nullcontext():
                code, output = job.run(out)
            error = None
        except Exception:       # a crashing job is a failed job, not a crashed run
            code, output, error = None, None, traceback.format_exc(limit=4)
        done.append((job, perf_counter() - t0, code, output, error))
        if after_job:
            after_job()
    seconds = sum(dt for _, dt, *_ in done)

    facts, failures = {}, []
    for job, _, code, output, error in done:
        if error is None:
            try:
                facts[job.name] = job.check(out, code, output)
            except Exception as exc:    # malformed output of any shape
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((job.name, error))
    failures += workload.pass_check(facts)
    shutil.rmtree(out)
    return Pass(seconds, [(job, dt) for job, dt, *_ in done], facts, failures)


def measure(workload, rng, tmp, seconds, min_samples=1, tracer=None, after_job=None):
    """Run passes until their total comes closest to ``seconds``, and at
    least two passes and enough for ``min_samples`` jobs.  The pass count
    follows the host's speed, so a slow host does not stretch the run."""
    label = "traced" if tracer else "plain"
    passes = []

    def done():
        if len(passes) < 2 or len(passes) * len(workload.jobs) < min_samples:
            return False
        half_pass = statistics.median(p.seconds for p in passes) / 2
        return sum(p.seconds for p in passes) + half_pass >= seconds

    while not done():
        passes.append(run_pass(workload, rng.permutation(len(workload.jobs)),
                               os.path.join(tmp, f"pass-{len(passes)}-{label}"),
                               tracer, after_job))
    return passes


def setup(name, seed):
    """Import szwalk afresh and generate the workload's inputs in a new
    temp dir; returns (seconds, szwalk, workload, temp dir)."""
    t0 = perf_counter()
    szwalk = import_szwalk()
    tmp = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    workload = workloads.WORKLOADS[name](szwalk, np.random.default_rng(seed), tmp)
    return perf_counter() - t0, szwalk, workload, tmp


def sample_setup(name, seed):
    """Time one more set-up and return its seconds.  The modules the jobs
    use go back into sys.modules, so an import inside a command still finds
    the classes the jobs already hold."""
    loaded = szwalk_modules()
    try:
        seconds, _, _, extra = setup(name, seed)
    finally:
        for module in szwalk_modules():
            del sys.modules[module]
        sys.modules.update(loaded)
    shutil.rmtree(extra)
    return seconds


def failed_jobs(passes):
    return sum(len({name for name, _ in p.failures}) for p in passes)


def throughput(passes, kind):
    """Work units per second over the jobs of one kind, or None if there are none."""
    jobs = [(job.work, dt) for p in passes for job, dt in p.jobs if job.kind == kind]
    return sum(w for w, _ in jobs) / sum(dt for _, dt in jobs) if jobs else None


def end_to_end(passes, setup_s, failed, probes):
    times = [dt for p in passes for _, dt in p.jobs]
    tail, percentile, n = tail_latency(times)
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "job_p50_s": statistics.median(times),
        "job_p50_samples": n,
        "job_tail_s": tail,
        "job_tail_percentile": percentile,
        "job_tail_samples": n,
        "passes": len(passes),
        "verify_cols_per_s": throughput(passes, "verify"),
        "pagerank_steps_per_s": throughput(passes, "pagerank"),
        "failed_ratio": failed / n,
        "host_probe_s": statistics.median(probes),
    }
    return metrics, detail


def per_layer(szwalk, plain, traced, tracer):
    facts = [f for p in traced for f in p.facts.values()]
    metrics = spans.layer_metrics(tracer.spans, len(traced), szwalk.gates.gate_count, facts)
    metrics["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                       / statistics.median(p.seconds for p in plain))
    return metrics


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(RESULTS, exist_ok=True)

    seconds, szwalk, workload, tmp = setup(args.workload, args.seed)
    setup_times, probes = [seconds], []

    def between_jobs():
        # One more set-up after every job, so that the median of set-up times
        # sees the same machine conditions as the jobs.
        setup_times.append(sample_setup(args.workload, args.seed))
        probes.append(host_probe())

    try:
        order_rng = np.random.default_rng([args.seed, 1])

        if args.trace:
            plain = measure(workload, order_rng, tmp, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(workload, order_rng, tmp, args.seconds / 2, tracer=tracer)
            finally:
                tracer.remove()
            passes = plain + traced
            metrics, detail = per_layer(szwalk, plain, traced, tracer), {}
        else:
            passes = measure(workload, order_rng, tmp, args.seconds, TAIL_BEYOND + 1,
                             after_job=between_jobs)
            metrics, detail = end_to_end(passes, statistics.median(setup_times),
                                         failed_jobs(passes), probes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    attempted = sum(len(p.jobs) for p in passes)
    failures = [(i, name, msg) for i, p in enumerate(passes) for name, msg in p.failures]
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": envinfo.environment(ROOT, args.seed),
        "setup_s_samples": setup_times,
        "host_probe_s_samples": probes,
        "computed": [m for m in spans.COMPUTED if m in metrics],
        "passes": [{"seconds": p.seconds, "jobs": [[job.name, dt] for job, dt in p.jobs]}
                   for p in passes],
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
    }
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([s[:4] + ([s[4]] if s[0] == "job" else []) for s in tracer.spans], fh)

    for i, name, msg in failures:
        print(f"FAILED pass {i} {name}: {msg}")
    for name, value in {**metrics, **detail}.items():
        unit = units.get(name) or DETAIL_UNITS[name]
        print(f"{args.workload} {name} = {'n/a' if value is None else value} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed_jobs(passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


def main(argv=None):
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "szwalk", "__init__.py")):
        print(f"error: no szwalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args)
    status = 0
    for name in sorted(workloads.WORKLOADS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
