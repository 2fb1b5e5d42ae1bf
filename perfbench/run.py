"""Benchmark of reptheory: time to a verified exact result.

    python3 perfbench/run.py --workload sn-tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the program is imported from ./src.
Each workload runs in its own fresh process as a closed loop with one
client: no threads, and the next job starts only when the previous one
has returned. Jobs come from the seeded generator in jobs.py. Every
output is checked by checks.py at the end of its pass, off the clock.

One pass runs the whole job list once. A run makes
max(2, seconds // PASS_SECONDS[workload]) passes: the count depends on
--seconds and the workload, never on how fast the machine happens to be.
Every job is timed between two readings of speed.slowness(), with more
readings taken every SAMPLE_PERIOD while it runs, and its time divided by
their mean is its latency at reference speed (see speed.py for why). The run reports, tracing off:

  wall_s       one pass, first job's call to last job's return, check
               time excluded: the sum of the pass's job latencies; the
               median over the passes
  job_p50_s    median latency over every job run of every pass
  job_p90_s    90th-percentile latency (nearest rank) over the same; a
               run has at least 100 job runs, so ten lie beyond it
  setup_s      median over fresh processes of import + one warm-up job
  peak_rss_mb  peak resident memory of this process (ru_maxrss)

Failed and attempted job runs go to the "failed" and "attempted" fields;
fail_ratio is their quotient. With --trace 1 the run makes one untraced
pass and one pass traced by layertrace.Tracer, and reports the per-layer
metrics of the traced pass plus the tracing overhead. The last line of
standard output is the JSON result; a record of the run (and with
--trace 1 its spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import slowness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sn-tables", "gl2-verify", "dynkin", "artifacts")
MIN_PASSES = 2
MIN_RUNS = 100  # job runs per run, so that the 90th percentile has ten beyond it
SETUP_PROBES = 9
SAMPLE_PERIOD = 0.1  # seconds between readings of slowness() while a job runs

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2]
# the warm-up code, argv[3] the benchmark directory. Prints the seconds
# from before the import to after the warm-up job, and two slowness
# readings taken right after; taken before, they would import modules
# (fractions) that the import of the program should pay for.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reptheory
exec(sys.argv[2], {"reptheory": reptheory})
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
from speed import slowness
print(t1 - t0, slowness(), slowness())
"""


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "reptheory" / "__init__.py").is_file():
        fail(f"no reptheory sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import reptheory
    if Path(reptheory.__file__).resolve().parent != SRC / "reptheory":
        fail(f"imported reptheory from {reptheory.__file__}, not from {SRC}")
    return reptheory


def measure_setup(warmup, probes):
    """(measured seconds, seconds at reference speed) of each probe."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), warmup, str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}")
        seconds, first, second = map(float, proc.stdout.strip().splitlines()[-1].split())
        samples.append((seconds, 2 * seconds / (first + second)))
    return samples


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


class Sampler:
    """Reads slowness() every SAMPLE_PERIOD seconds while a job runs, from
    a SIGALRM handler, so that a job longer than a phase of the machine is
    scaled by the speed the machine had while it ran, not only at its
    ends. The handler's own time is kept, to be taken off the job's."""

    def __init__(self):
        self.readings = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._read)

    def _read(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(slowness())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.readings.clear()
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(jobs, tracer, failures):
    """One closed-loop pass. Returns every job's latency, measured and at
    reference speed; the outputs are checked after the last job."""
    from checks import CheckFailed
    measured, scaled, results = [], [], []
    sampler = Sampler()
    before = slowness()
    for index, job in enumerate(jobs):
        error = out = None
        sampler.start()
        t0 = time.perf_counter()
        try:
            out = job.run() if tracer is None else tracer.run_job(index, job.label, job.run)
        except Exception as exc:  # a job that raises is a failed job
            error = f"raised {exc!r}"
        t1 = time.perf_counter()
        sampler.stop()
        after = slowness()
        seconds = t1 - t0 - sampler.spent
        measured.append(seconds)
        scaled.append(seconds * (len(sampler.readings) + 2)
                      / (before + sum(sampler.readings) + after))
        results.append((out, error))
        before = after
    for job, (out, error) in zip(jobs, results):
        if error is None:
            try:
                job.check(out)
            except CheckFailed as exc:
                error = str(exc)
        if error is not None:
            failures.append(f"{job.label}: {error}")
    return measured, scaled


def run_passes(jobs, passes, tracer=None):
    """Returns (measured latencies per pass, scaled latencies per pass, failures)."""
    measured, scaled, failures = [], [], []
    for _ in range(passes):
        m, s = run_pass(jobs, tracer, failures)
        measured.append(m)
        scaled.append(s)
    return measured, scaled, failures


def run_workload(args):
    import_program()
    import jobs as mixes

    warmup = mixes.WARMUPS[args.workload]
    import reptheory
    exec(warmup, {"reptheory": reptheory})

    rng = random.Random(f"{args.workload}:{args.seed}")
    job_list = mixes.WORKLOADS[args.workload](rng)
    digest = mixes.mix_digest(job_list)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "mix_digest": digest, "jobs": [j.label for j in job_list]}
    if not args.trace:
        passes = max(MIN_PASSES, int(args.seconds // mixes.PASS_SECONDS[args.workload]))
        if passes * len(job_list) < MIN_RUNS:
            fail(f"{passes} passes of {len(job_list)} jobs are fewer than {MIN_RUNS} job runs")
        setup = measure_setup(warmup, SETUP_PROBES)
        measured, scaled, failures = run_passes(job_list, passes)
        runs = [t for p in scaled for t in p]
        metrics = {
            "wall_s": (statistics.median(map(sum, scaled)), "s"),
            "job_p50_s": (percentile(runs, 0.5), "s"),
            "job_p90_s": (percentile(runs, 0.9), "s"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update(setup_samples=setup, measured_latencies=measured, scaled_latencies=scaled)
        summary = (f"{passes} passes, job_p90_s over {len(runs)} job runs, measured wall_s "
                   f"{statistics.median(map(sum, measured)):.3f}")
    else:
        from layertrace import Tracer
        measured, scaled, failures = run_passes(job_list, 1)
        tracer = Tracer()
        t_measured, t_scaled, t_failures = run_passes(job_list, 1, tracer)
        failures += t_failures
        passes = 2
        metrics = tracer.metrics()
        wall, t_wall = sum(scaled[0]), sum(t_scaled[0])
        metrics["trace.wall_s"] = (t_wall, "s")
        metrics["trace.overhead_s"] = (t_wall - wall, "s")
        record.update(measured_latencies=measured, scaled_latencies=scaled,
                      traced_measured_latencies=t_measured, traced_scaled_latencies=t_scaled)
        summary = "1 + 1 traced passes"

    attempted = len(job_list) * passes
    record["failures"] = failures
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed,
                                                  "mix_digest": digest})

    for message in failures[:20]:
        print(f"FAIL {message}")
    print(f"{args.workload}: seed {args.seed}, {len(job_list)} jobs, {summary}, "
          f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}, "
          f"mix {digest[:16]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process; prints one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"fail_ratio {res['failed'] / res['attempted']:.4f} (ratio)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
