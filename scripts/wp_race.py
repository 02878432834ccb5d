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
from dataclasses import dataclass

from epicdemo import (
    Presentation,
    decide_word,
    demonstration_enumerator,
    normal_closure_enumerator,
    parse_word,
    replay,
    zk_demo,
)

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


@dataclass
class Config:
    words: tuple = DEFAULT_WORDS
    budget: int = 10**7


def parse_args(argv=None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--word", action="append", default=[],
                        help="space-separated letters, eps for the empty word; repeatable")
    parser.add_argument("--budget", type=int, default=Config.budget)
    args = parser.parse_args(argv)
    return Config(tuple(args.word) or DEFAULT_WORDS, args.budget)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    presentation = Presentation(("a", "b"), (parse_word("a b a^-1 b^-1"),))
    demo = zk_demo(2)

    def streams():
        return (demonstration_enumerator(demo),
                normal_closure_enumerator(presentation))

    print(f"{'word':<24} {'verdict':<16} {'comparisons':>11} {'replay':>7}")
    undecided = 0
    for text in cfg.words:
        word = parse_word(text)
        verdict = decide_word(word, *streams(), cfg.budget)
        if verdict.certificate is None:
            print(f"{text:<24} {'budget exceeded':<16} {verdict.comparisons:>11} {'-':>7}")
            undecided += 1
            continue
        ok = replay(word, *streams(), verdict.certificate)
        print(f"{text:<24} {verdict.kind:<16} {verdict.comparisons:>11} "
              f"{'yes' if ok else 'NO':>7}")
        if not ok:
            undecided += 1
    return 1 if undecided else 0


if __name__ == "__main__":
    sys.exit(main())
