"""Digest the output of every benchmark job, one line per job.

Builds the perfbench workloads for each seed with ``perfbench/workloads.py``
of this repository, and runs every job in process through
``epicdemo.cli.main`` of the checkout at ``--root``, as
``perfbench/run.py`` does: a ``wp decide`` job that runs out of budget is
resumed once from its frontier, then run once more with the summed budget.
Each line holds the workload, the seed, the job id, the exit code and the
md5 of stdout, of stderr and of the bundle the job wrote (``-`` for none).
The work directory's path reads ``WORK`` in stdout and stderr, so output
that is the same in two checkouts, or under two ``PYTHONHASHSEED`` values,
gives the same lines, and one ``diff`` compares them:

    python3 scripts/output_digest.py --root ../parent --seeds 1 2 3 > parent.txt
    python3 scripts/output_digest.py --seeds 1 2 3 > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify", "wp-decide", "construct")


@functools.cache
def load_workloads():
    """``perfbench/workloads.py`` of this repository, which imports nothing
    of the package."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_job(main, argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI call; an exception that
    escapes the CLI stands in for the exit code by its type name."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = f"SystemExit({e.code})"
        except Exception as e:  # a crash is a digest line, not the end of the run
            code = type(e).__name__
    return code, out.getvalue(), err.getvalue()


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def job_lines(main, workload: str, seed: int, work: str):
    """The digest line of every job of one workload and seed, in job order,
    with the inputs written afresh under ``work``."""
    work_dir = os.path.join(work, f"{workload}-s{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)  # no frontier or bundle of an earlier run
    wl = load_workloads().build(workload, seed, work_dir)

    def line(jid, argv, out_path):
        code, out, err = run_job(main, argv)
        bundle = "-"
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                bundle = md5(fh.read())
        texts = (md5(text.replace(work, "WORK").encode()) for text in (out, err))
        return f"{workload} {seed} {jid} {code} {' '.join(texts)} {bundle}", out

    for job in wl.jobs:
        text, out = line(job.jid, job.argv, job.out)
        yield text
        if job.kind == "wp" and out.startswith("verdict budget_exceeded "):
            for suffix, kind in (("r", "resume"), ("f", "reference")):
                yield line(job.jid + suffix, job.info[kind], None)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT,
                        help="checkout whose src/epicdemo runs the jobs (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="workload seeds (default: 1 2 3)")
    parser.add_argument("--work", help="directory for the inputs and bundles "
                                       "(default: a temporary one, removed after)")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isfile(os.path.join(src, "epicdemo", "cli.py")):
        parser.error(f"no src/epicdemo in {args.root}")
    sys.path.insert(0, src)
    cli = importlib.import_module("epicdemo.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        parser.error(f"imported epicdemo from {cli.__file__}, not from {src}")
    with contextlib.ExitStack() as stack:
        if args.work is None:
            work = stack.enter_context(tempfile.TemporaryDirectory())
        else:
            work = os.path.abspath(args.work)
        for workload in WORKLOADS:
            for seed in args.seeds:
                for text in job_lines(cli.main, workload, seed, work):
                    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
