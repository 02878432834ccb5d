"""Benchmark for the epicdemo command line: one workload, one seed.

Run from the root of an epicdemo checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Every job is an in-process call of ``epicdemo.cli.main`` on inputs that
``workloads.py`` writes from the seed.  One process, one thread, closed
loop: a job starts when the previous one has returned.  The first pass
checks every output against the independent references in ``checks.py``;
the timed passes that follow must reproduce those outputs exactly.  With
``--trace 1`` half of the time runs untraced and half with spans around
each layer (``spans.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from time import perf_counter

import checks
import workloads
from spans import LAYER_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
# A reference machine runs one round of calibrate() in exactly this time.
# The clock speed of a shared machine drifts by up to a factor of two within
# a second, so every time the benchmark reports is scaled by CAL_REF_S over
# the mean round time of calibration runs taken right before it (600
# rounds), right after it (600) and every CAL_INTERVAL_S while it runs (200).
CAL_REF_S = 1e-3 / 600
CAL_INTERVAL_S = 0.025
MIN_PASSES = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return (self.a, self.b)


def calibrate(rounds) -> float:
    """Seconds for rounds of a fixed mix of interpreter work like the
    package's own: small objects, method calls, tuples, sets, dicts and
    strings.  The cyclic collector stays off, so the time does not depend
    on how many objects the package keeps alive."""
    gc.disable()
    try:
        return _calibration_loop(rounds)
    finally:
        gc.enable()


def _calibration_loop(rounds) -> float:
    start = perf_counter()
    counts, seen, batch = {}, set(), []
    for i in range(rounds):
        k = _Point(i & 31, i % 7).key()
        seen.add(k)
        counts[k] = counts.get(k, 0) + 1
        batch.append(frozenset((k, i & 3)))
        if len(batch) > 64:
            batch.clear()
        " ".join(("x", str(i)))
    return perf_counter() - start


def scaled(measure):
    """(raw seconds, reference seconds) of measure(), which returns its own
    raw time.  A timer signal runs calibrate() every CAL_INTERVAL_S while
    measure() runs; the time spent in it is taken off the raw time."""
    cal_s, rounds, spent = calibrate(600), 600, 0.0

    def sample(_signum, _frame):
        nonlocal cal_s, rounds, spent
        start = perf_counter()
        cal_s += calibrate(200)
        rounds += 200
        spent += perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
    try:
        seconds = measure()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cal_s += calibrate(600)
    seconds -= spent
    return seconds, seconds * CAL_REF_S * (rounds + 600) / cal_s


def set_up(src, files):
    """Import epicdemo and load the workspace files, SETUP_REPEATS times.

    Returns the median reference time and the last imported cli module.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "epicdemo" or m.startswith("epicdemo.")]:
            del sys.modules[name]

        def measure():
            start = perf_counter()
            importlib.import_module("epicdemo.cli").load(files)
            return perf_counter() - start

        times.append(scaled(measure)[1])
    cli = sys.modules["epicdemo.cli"]
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported epicdemo from {cli.__file__}, not from {src}")
    return statistics.median(times), cli


def run_job(main, argv):
    """(exit code, stdout, raw seconds, reference seconds) of one CLI call;
    an exception that escapes the CLI is reported in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    result = {}

    def measure():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                result["code"] = main(argv)
            except SystemExit as e:
                result["code"] = f"SystemExit({e.code})"
            except Exception as e:  # a crash is a failed job, not a failed benchmark
                result["code"] = f"{type(e).__name__}: {e}"
            return perf_counter() - start

    raw, ref = scaled(measure)
    return result["code"], out.getvalue(), raw, ref


def read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


class Bench:
    def __init__(self, wl, cli, seed):
        self.wl, self.cli, self.seed = wl, cli, seed
        self.main = cli.main
        self.jobs = []                     # the expanded job list of one pass
        self.reference = {}                # jid -> (code, stdout, bundle text)
        self.counts = {}                   # jid -> work counts
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.raw_walls = []                # unscaled pass times, for the log

    def fresh_pass(self):
        for job in self.wl.jobs:
            if "frontier" in job.info and os.path.exists(job.info["frontier"]):
                os.remove(job.info["frontier"])

    def record(self, job, code, out, problems, **counts):
        self.jobs.append(job)
        self.reference[job.jid] = (code, out, read(job.out) if job.out else None)
        self.counts[job.jid] = counts
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{job.jid}: {p}" for p in problems]

    def check_pass(self):
        """Run every job once and check each output independently."""
        self.fresh_pass()
        budget = workloads.WP_BUDGET
        for job in self.wl.jobs:
            code, out, _, _ = run_job(self.main, job.argv)
            if job.kind == "verify":
                self.record(job, code, out, checks.check_verify(code, out), words=job.words)
            elif job.kind == "ball":
                self.record(job, code, out, checks.check_ball(job, code, out),
                            elements=len(out.splitlines()))
            elif job.kind == "wp":
                self.check_wp(job, code, out, budget)
            else:
                problems, states, transitions = checks.check_bundle(
                    job, code, out, self.cli.load, self.wl.groups[job.info["group"]], self.seed)
                self.record(job, code, out, problems, states=states, transitions=transitions)

    def check_wp(self, job, code, out, budget):
        """A word that runs out of budget is resumed once from its frontier,
        and run once more uninterrupted with the summed budget."""
        problems = checks.check_wp(job, code, out, budget)
        exceeded = checks.parse_verdict(out).get("kind") == "budget_exceeded"
        if exceeded and not os.path.exists(job.info["frontier"]):
            problems.append("no frontier written")
        self.record_wp(job, code, out, problems)
        if not exceeded:
            return
        runs = []
        for suffix, kind in (("r", "resume"), ("f", "reference")):
            argv = job.info[kind]
            runs.append((workloads.Job(job.jid + suffix, f"wp-{kind}", argv, info=job.info),
                         *run_job(self.main, argv)[:2]))
        (resumed, code_r, out_r), (reference, code_f, out_f) = runs
        self.record_wp(resumed, code_r, out_r, checks.check_wp(resumed, code_r, out_r, 2 * budget)
                       + checks.same_run(out_r, out_f))
        self.record_wp(reference, code_f, out_f,
                       checks.check_wp(reference, code_f, out_f, 2 * budget))

    def record_wp(self, job, code, out, problems):
        verdict = checks.parse_verdict(out)
        self.record(job, code, out, problems,
                    comparisons=int(verdict.get("comparisons", 0)), verdict=verdict.get("kind"))

    def timed_pass(self, tracer=None):
        """(wall seconds, {jid: seconds}) of one pass in reference time; the
        wall time is the sum of the job times, as the jobs run back to back.
        Outputs must match the checked pass.  A tracer gets the index of the
        running job."""
        self.fresh_pass()
        main, results = self.main, []
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            results.append(run_job(main, job.argv))
        self.raw_walls.append(sum(r[2] for r in results))
        latencies = {}
        for job, (code, out, _, seconds) in zip(self.jobs, results):
            latencies[job.jid] = seconds
            self.attempted += 1
            ref_code, ref_out, ref_bundle = self.reference[job.jid]
            if (code, out) != (ref_code, ref_out) or (job.out and read(job.out) != ref_bundle):
                self.failed += 1
                self.problems.append(f"{job.jid}: output differs from the checked pass")
        return sum(latencies.values()), latencies

    def passes(self, seconds, minimum):
        walls, runs = [], []
        deadline = perf_counter() + seconds
        while len(walls) < minimum or perf_counter() < deadline:
            wall, latencies = self.timed_pass()
            walls.append(wall)
            runs.append(latencies)
        return walls, runs

    def work(self, job):
        """Work units behind work_per_s, and whether the job counts for it."""
        c = self.counts[job.jid]
        if self.wl.name == "verify":
            return c.get("words", 0), job.kind == "verify"
        if self.wl.name == "wp-decide":
            return c["comparisons"], True
        return c["states"], True


def tail(values):
    """Highest listed percentile with at least ten values above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)            # nearest rank, 1-based
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 50, ordered[(n - 1) // 2], n - (n + 1) // 2


def end_to_end(bench, setup_s, walls, runs):
    medians = {jid: statistics.median(r[jid] for r in runs) for jid in runs[0]}
    rates = []
    for r in runs:
        units = busy = 0
        for job in bench.jobs:
            n, counted = bench.work(job)
            if counted:
                units += n
                busy += r[job.jid]
        rates.append(units / busy)
    p, tail_s, beyond = tail(medians.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (statistics.median(medians.values()) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} imports and loads",
        "wall_s": f"median of {len(walls)} passes of {len(bench.jobs)} jobs; unscaled "
                  f"{statistics.median(bench.raw_walls[:len(walls)]):.4g} s",
        "job_p50_ms": "median over jobs of each job's median latency",
        "job_tail_ms": f"p{p} over {len(medians)} jobs, {beyond} beyond it",
        "work_per_s": {"verify": "words_per_s: accepted words checked, identity and "
                                 "coverage pass, per second of verify jobs",
                       "wp-decide": "comparisons_per_s: decide_word comparisons per second",
                       "construct": "states_per_s: bundle states written per second"
                       }[bench.wl.name],
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes, medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "epicdemo", "cli.py")):
        print("error: no src/epicdemo here; run from the root of an epicdemo checkout",
              file=sys.stderr)
        return 2
    missed = checks.self_test()
    if missed:
        print(f"error: the checker accepted wrong outputs: {missed}", file=sys.stderr)
        return 3
    sys.path.insert(0, src)

    work_dir = os.path.join(HERE, "work", f"{args.workload}-s{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work_dir)
    setup_s, cli = set_up(src, wl.files)
    bench = Bench(wl, cli, args.seed)
    bench.check_pass()

    if args.trace:
        walls, runs = bench.passes(args.seconds / 2, 2)
        tracer = Tracer()
        tracer.install()
        bench.main = tracer.wrap(cli.main, "cli.main")
        traced_walls = []
        deadline = perf_counter() + args.seconds / 2
        while not traced_walls or perf_counter() < deadline:
            traced_walls.append(bench.timed_pass(tracer)[0])
            tracer.keep = False            # keep the spans of the first traced pass
        tracer.restore()
    else:
        walls, runs = bench.passes(args.seconds, MIN_PASSES)

    metrics, notes, medians = end_to_end(bench, setup_s, walls, runs)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(bench.jobs)} jobs per pass, {bench.attempted} runs")
    for job in bench.jobs:
        counts = " ".join(f"{k}={v}" for k, v in bench.counts[job.jid].items())
        print(f"job {job.jid} {job.kind} median_ms={medians[job.jid] * 1e3:.3f} {counts}")
    for p in bench.problems[:20]:
        print(f"FAILED {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}  ({notes[name]})")
    print(f"failed_ratio {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} job runs)")

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        scale = sum(traced_walls) / sum(bench.raw_walls[-len(traced_walls):])
        layers = tracer.layer_metrics(len(traced_walls), overhead, scale)
        path = os.path.join(HERE, "out", f"spans-{wl.name}-s{args.seed}.tsv.gz")
        n = tracer.write(path)
        print(f"traced passes {len(traced_walls)}; {n} spans of the first one in "
              f"{os.path.relpath(path)}")
        for name, value in layers.items():
            print(f"{name} {value:.6g} {LAYER_METRICS[name]}")
        result = {name: {"value": value, "unit": LAYER_METRICS[name]}
                  for name, value in layers.items()}
    else:
        result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
