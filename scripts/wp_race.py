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
PLANE = Presentation(("a", "b"), (parse_word("a b a^-1 b^-1"),))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--word", action="append", default=[],
                        help="space-separated letters, eps for the empty word; repeatable")
    parser.add_argument("--budget", type=int, default=10**7)
    return parser.parse_args(argv)


def usage_error(message: str):
    """One error line and exit 2, as the CLI's ``wp decide`` does."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def words(args) -> list:
    """The (text, word) pairs to race, each word over the plane's alphabet."""
    if args.budget < 1:
        usage_error(f"--budget must be positive, got {args.budget}")
    pairs = []
    for text in args.word or DEFAULT_WORDS:
        try:
            word = parse_word(text)
        except ValueError as e:
            usage_error(f"--word takes a word, got {text!r}: {e}")
        foreign = [x for x in word if x not in PLANE.alphabet]
        if foreign:
            usage_error(f"word letter {foreign[0].name!r} is outside the presentation alphabet")
        pairs.append((text, word))
    return pairs


def main(argv=None) -> int:
    args = parse_args(argv)
    pairs = words(args)
    demo = zk_demo(2)

    def streams():
        return (demonstration_enumerator(demo),
                normal_closure_enumerator(PLANE))

    print(f"{'word':<24} {'verdict':<16} {'comparisons':>11} {'replay':>7}")
    undecided = 0
    for text, word in pairs:
        verdict = decide_word(word, *streams(), args.budget)
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
