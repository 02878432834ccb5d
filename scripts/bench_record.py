"""Record the benchmark's per-workload medians in one JSON file.

Runs ``perfbench/run.py`` on every workload over several seeds, once
untraced (end-to-end metrics) and once traced (per-layer metrics), and
writes the median of each metric over the seeds, with the commit, the
Python version and the core count, so runs on one machine can be compared
across commits:

    python3 scripts/bench_record.py --seconds 20 --seeds 3

The file is ``BENCH_<n>.json`` at the root of this repository, ``<n>``
one more than the highest present, unless ``--out`` names another.  With
``--root`` the benchmark runs in another checkout, on its own ``src/`` and
``perfbench/``: a clone of an older commit, say.  ``--root`` may be given
more than once, for a before/after pair: each run (workload, trace, seed)
then goes through the checkouts in turn, so drift of the machine reaches
all of them alike.  Run k starts at checkout k mod n of the n given and
goes on in ``--root`` order from there, so that over every n runs each
checkout runs first once, and an effect of running first or right after
another checkout does not land on one of them alone.  Each checkout gets
its own file, numbered in ``--root`` order (or one ``--out`` per
``--root``):

    python3 scripts/bench_record.py --root ../parent --root . --seconds 10
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify", "wp-decide", "construct")


def git(root: str, *args: str):
    done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of one ``perfbench/run.py`` run, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def medians(results: list) -> dict:
    return {name: {"median": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": spec["unit"]}
            for name, spec in results[0]["metrics"].items()}


def next_path(root: str, skip: int = 0) -> str:
    """The next free ``BENCH_<n>.json`` in ``root``, ``skip`` numbers on."""
    taken = [int(m.group(1)) for path in glob.glob(os.path.join(root, "BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path)))]
    return os.path.join(root, f"BENCH_{max(taken, default=0) + 1 + skip}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20,
                        help="--seconds of each perfbench run (default: 20)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="run seeds 1 to N (default: 3)")
    parser.add_argument("--root", action="append",
                        help="checkout to benchmark (default: this one); repeat it to "
                             "interleave several checkouts run by run")
    parser.add_argument("--out", action="append",
                        help="output file, once per --root (default: the next BENCH_<n>.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seeds < 1:
        parser.error("--seconds must be positive and --seeds at least 1")
    roots = [os.path.abspath(root) for root in args.root or [ROOT]]
    if args.out is not None and len(args.out) != len(roots):
        parser.error(f"give --out once per --root: {len(roots)} times, not {len(args.out)}")
    outs = args.out or [next_path(ROOT, skip) for skip in range(len(roots))]
    seeds = list(range(1, args.seeds + 1))

    records = [{
        "commit": git(root, "rev-parse", "HEAD"),
        # uncommitted changes to the measured code
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no",
                          "--", "src", "perfbench")),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": args.seconds,
        "seeds": seeds,
        "correct": True,
        "workloads": {},
    } for root in roots]
    turn = itertools.count()
    for workload in WORKLOADS:
        runs = [{0: [], 1: []} for _ in roots]
        for trace in (0, 1):
            for seed in seeds:
                start = next(turn) % len(roots)
                for i in [*range(start, len(roots)), *range(start)]:
                    runs[i][trace].append(bench(roots[i], workload, seed, args.seconds, trace))
        for root, record, got in zip(roots, records, runs):
            results = got[0] + got[1]
            record["correct"] &= all(r["correct"] for r in results)
            record["workloads"][workload] = {
                "correct": all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "end_to_end": medians(got[0]),
                "per_layer": medians(got[1]),
            }
            wall = record["workloads"][workload]["end_to_end"]["wall_s"]["median"]
            print(f"{workload}: median wall_s {wall:.4g} over seeds {seeds} in {root}",
                  file=sys.stderr)

    for record, out in zip(records, outs):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
