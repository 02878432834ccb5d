"""Dovetailing cost of word problem decisions.

Races the two certificate streams for the free abelian plane, presented
as two commuting generators, against a batch of input words.  The table
records which stream won and how many comparisons the race took, which
makes the asymmetry visible: membership certificates tend to be cheap,
non-membership certificates pay for the pairing enumeration.  The last
default word is the exception: its first membership certificate sits at
closure index 2927, about 8.6 million comparisons in.

Usage:
    python3 scripts/wp_race.py
    python3 scripts/wp_race.py --word "a b" --word "a a b a^-1 a^-1 b^-1"
"""

import argparse
import sys

from epicdemo import Presentation, parse_word, zk_demo
from epicdemo.cli import _decide, _exit_code, _wp_word

DEFAULT_WORDS = (
    "eps",
    "a b a^-1 b^-1",
    "b a b^-1 a^-1",
    "a a b a^-1 b^-1 a^-1",
    "a",
    "a b",
    "a b a^-1",
    "a a b b",
    "a a b a^-1 a^-1 b^-1",
)
PLANE = Presentation(("a", "b"), (parse_word("a b a^-1 b^-1"),))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--word", action="append", default=[],
                        help="space-separated letters, eps for the empty word; repeatable")
    parser.add_argument("--budget", type=int, default=10**7)
    return parser.parse_args(argv)


def race(args) -> int:
    demo = zk_demo(2)
    # every word is checked, as wp decide checks its one word, before the table starts
    pairs = [(text, _wp_word(PLANE, demo, text, args.budget))
             for text in args.word or DEFAULT_WORDS]
    print(f"{'word':<24} {'verdict':<16} {'comparisons':>11} {'replay':>7}")
    undecided = 0
    for text, word in pairs:
        verdict, replayed = _decide(word, demo, PLANE, args.budget)
        if replayed is None:
            print(f"{text:<24} {'budget exceeded':<16} {verdict.comparisons:>11} {'-':>7}")
        else:
            print(f"{text:<24} {verdict.kind:<16} {verdict.comparisons:>11} "
                  f"{'yes' if replayed else 'NO':>7}")
        undecided += not replayed
    return 1 if undecided else 0


def main(argv=None) -> int:
    return _exit_code(race, parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
