"""Build and verify a Heisenberg demonstration bundle.

Constructs the integer Heisenberg group as 3x3 unitriangular matrices,
combines a central-powers demonstration with a quotient-plane one, and
writes the result as a workspace file.  The bundle is then reloaded from
disk and re-verified, so a zero exit status means the file round-trips.

Usage:
    python3 scripts/make_heisenberg_bundle.py --out heisenberg.epic
"""

import argparse
import sys

from epicdemo import (
    Demonstration,
    IntegerMatrixOracle,
    Letter,
    Workspace,
    extension,
    make_word,
    z_demo,
    zk_demo,
)
from epicdemo.cli import _check_lengths, _exit_code, _write_bundle


def heisenberg_oracle() -> IntegerMatrixOracle:
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    z = ((1, 0, 1), (0, 1, 0), (0, 0, 1))

    def inv(m):
        a, c = m[0][1], m[0][2]
        b = m[1][2]
        return ((1, -a, a * b - c), (0, 1, -b), (0, 0, 1))

    return IntegerMatrixOracle(3, {
        Letter("x"): x, Letter("x^-1"): inv(x),
        Letter("y"): y, Letter("y^-1"): inv(y),
        Letter("z"): z, Letter("z^-1"): inv(z),
    })


def in_center(key) -> bool:
    return key.data[0][1] == 0 and key.data[1][2] == 0


def build(ws: Workspace, args) -> Demonstration:
    """The demonstration over ws's group ``heis``, built as a construct verb builds."""
    oracle = ws.groups["heis"]
    center = Demonstration(oracle,
                           {Letter("z"): make_word("z"),
                            Letter("z^-1"): make_word("z^-1")},
                           z_demo("z").language)
    plane = zk_demo(2, names=("x", "y"))
    quotient = Demonstration(oracle, {x: (x,) for x in plane.language.alphabet},
                             plane.language)
    return extension(center, quotient, oracle, in_center)


def write_and_verify(args) -> int:
    _check_lengths(args, "max_len", "ball", "search_len")
    bundle = _write_bundle(Workspace(groups={"heis": heisenberg_oracle()}), args, build)
    reloaded = bundle.demonstrations[args.name]
    report = reloaded.verify_coverage(args.ball, args.search_len,
                                      max(args.max_len, args.search_len))
    shown = sum(len(w) <= args.max_len for w in report.identity_violations)
    print(f"reloaded: identity violations {shown}, "
          f"covered {len(report.covered)}, missing {len(report.missing)}")
    return 0 if report.clean and report.complete else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="heisenberg.epic")
    parser.add_argument("--max-len", type=int, default=8)
    parser.add_argument("--ball", type=int, default=3)
    parser.add_argument("--search-len", type=int, default=10)
    parser.set_defaults(name="heisdemo")  # the demonstration's name in the bundle
    return _exit_code(write_and_verify, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
