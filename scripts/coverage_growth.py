"""Coverage growth experiment.

For radii 1..N, report how much of the group ball a demonstration covers
when the word search is capped at ``stretch`` times the radius.  A clean
demonstration should reach zero missing keys once the cap is generous
enough; the table shows how fast that happens.

Usage:
    python3 scripts/coverage_growth.py --demo zk2 --max-radius 5
    python3 scripts/coverage_growth.py -f data/demo_workspace.epic --demo Zdemo
"""

import argparse
import sys
import time

from epicdemo import Workspace, load
from epicdemo.cli import _check_lengths, _exit_code, _resolve_demo


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--demo", default="z",
                        help="workspace demonstration or builtin name (z, free2, zk3)")
    parser.add_argument("--max-radius", type=int, default=6)
    parser.add_argument("--stretch", type=int, default=2,
                        help="search words up to stretch * radius letters")
    parser.add_argument("-f", "--file", dest="files", action="append", default=[],
                        metavar="PATH", help="workspace file; repeatable")
    return parser.parse_args(argv)


def grow(args) -> int:
    _check_lengths(args, "max_radius", "stretch")
    demo = _resolve_demo(load(args.files) if args.files else Workspace(), args.demo)
    print(f"demo {args.demo}: alphabet {' '.join(demo.language.alphabet)}")
    print(f"{'radius':>6} {'ball':>6} {'covered':>8} {'missing':>8} {'seconds':>8}")
    # identity violations only grow with length, so the last report holds them all
    report = demo.verify_coverage(0, 0)
    for radius in range(1, args.max_radius + 1):
        start = time.monotonic()
        report = demo.verify_coverage(radius, args.stretch * radius)
        elapsed = time.monotonic() - start
        covered, missing = len(report.covered), len(report.missing)
        print(f"{radius:>6} {covered + missing:>6} {covered:>8} {missing:>8} {elapsed:>8.2f}")
    print(f"identity violations up to length {report.search_len}: "
          f"{len(report.identity_violations)}")
    return 0 if report.clean else 1


def main(argv=None) -> int:
    return _exit_code(grow, parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
