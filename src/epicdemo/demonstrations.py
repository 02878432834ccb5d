"""Demonstrations: languages that hit every non-identity element and never
the identity.

A demonstration bundles a group oracle, a regular language, and an
evaluation map sending each language letter to a word over the oracle
alphabet.  Verification is bounded: identity avoidance is checked on all
accepted words up to a length, coverage is checked against a ball of
group elements.  Coverage gaps are reported, not guessed about; whether a
gap is fatal depends on the caller (finite groups can be swept totally,
infinite ones cannot).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .automata import Letter, Nfa, Word, explore, finite_language, state_cap, walk
from .groups import (ElementKey, FreeAbelianOracle, FreeGroupOracle, GroupOracle,
                     generator_names, paired_letters)


def identity_eval_map(alphabet: Iterable[Letter]) -> dict[Letter, Word]:
    return {x: (x,) for x in alphabet}


def spell(eval_map: Mapping[Letter, Word], word: Word) -> Word:
    """The word's letters replaced by their images under ``eval_map``."""
    out: list[Letter] = []
    for x in word:
        try:
            out.extend(eval_map[x])
        except KeyError:
            raise ValueError(f"letter {x.name!r} has no evaluation") from None
    return tuple(out)


@dataclass
class Demonstration:
    """A language over letters that evaluate into a group oracle."""

    oracle: GroupOracle
    eval_map: dict[Letter, Word]
    language: Nfa

    def __post_init__(self):
        if set(self.language.alphabet) != self.eval_map.keys():
            raise ValueError(
                f"evaluation map covers {sorted(map(str, self.eval_map))} but the "
                f"language alphabet is {sorted(map(str, self.language.alphabet))}")
        for x, image in self.eval_map.items():
            for y in image:
                if y not in self.oracle.alphabet:
                    raise ValueError(
                        f"letter {x.name!r} evaluates through {y.name!r} "
                        f"which the oracle does not know")

    def oracle_word(self, word: Word) -> Word:
        return spell(self.eval_map, word)

    def evaluate(self, word: Word) -> ElementKey:
        return self.oracle.evaluate(self.oracle_word(word))

    def keyed_words(self, max_len: Optional[int] = None) -> Iterator[tuple[Word, ElementKey]]:
        """Accepted words in length-lex order with their keys, from one walk
        over (NFA subset, oracle state) pairs: an edge costs one memoized
        NFA step and, if the subset survives, one ``act`` per letter of its
        image."""
        oracle, images, live = self.oracle, self.eval_map, self.language.pruned_step(max_len)
        act = oracle.act

        def step(node, letter, n):
            subset = live(node[0], letter, n)
            if subset is not None:
                state = node[1]
                for y in images[letter]:
                    state = act(state, y)
                return subset, state

        root = (self.language.start_subset(), oracle.start())
        accepting = self.language.closure_accepting
        for w, (subset, state) in walk(self.language.alphabet, root, step, max_len):
            if not accepting.isdisjoint(subset):
                yield w, oracle.key(state)

    def verify_no_identity(self, max_len: int) -> list[Word]:
        """Accepted words up to ``max_len`` that evaluate to the identity."""
        return list(self.verify_coverage(0, 0, max_len).identity_violations)

    def verify_coverage(self, radius: int, search_len: int,
                        max_len: Optional[int] = None) -> "CoverageReport":
        """Compare accepted words against a ball of group elements.

        Every non-identity element within ``radius`` must be the value of
        some accepted word of length at most ``search_len`` to count as
        covered.  The first witness in enumeration order (length-lex) is
        recorded per element.  Accepted words up to ``max_len`` letters
        (default ``search_len``) that evaluate to the identity are
        reported as violations; one walk serves both bounds.
        """
        if max_len is None:
            max_len = search_len
        identity = self.oracle.identity_key
        targets = set(self.oracle.ball(radius).keys())  # the ones not yet hit
        targets.remove(identity)
        covered: dict[ElementKey, Word] = {}
        violations: list[Word] = []
        for w, key in self.keyed_words(max(search_len, max_len)):
            if key == identity:
                if len(w) <= max_len:
                    violations.append(w)
            elif key in targets and len(w) <= search_len:
                targets.remove(key)
                covered[key] = w
        return CoverageReport(
            radius=radius,
            search_len=search_len,
            covered=covered,
            missing=frozenset(targets),
            identity_violations=tuple(violations),
        )


@dataclass(frozen=True)
class CoverageReport:
    radius: int
    search_len: int
    covered: dict
    missing: frozenset
    identity_violations: tuple

    @property
    def clean(self) -> bool:
        """No accepted word evaluated to the identity."""
        return not self.identity_violations

    @property
    def complete(self) -> bool:
        """Every non-identity element of the ball was hit."""
        return not self.missing

    def sorted_missing(self) -> list:
        # one text per key, not two per comparison
        return sorted(self.missing, key=ElementKey._order)


# -- builtin demonstrations ---------------------------------------------


def z_demo(name: str = "a") -> Demonstration:
    """Positive powers and negative powers of one generator of Z."""
    return zk_demo(1, names=(name,))


def finite_demo(oracle: GroupOracle) -> Demonstration:
    """Length-one words over letters for every non-identity element."""
    for x in oracle.alphabet:
        if oracle.is_identity((x,)):
            raise ValueError(f"letter {x.name!r} evaluates to the identity")
    language = finite_language([(x,) for x in oracle.alphabet], oracle.alphabet)
    return Demonstration(oracle, identity_eval_map(oracle.alphabet), language)


def free_demo(rank: int) -> Demonstration:
    """All non-empty freely reduced words over a free group's alphabet."""
    oracle = FreeGroupOracle(rank)
    letters = oracle.alphabet

    def moves(p):  # never a letter right after its inverse
        return ((y, ("l", j)) for j, y in enumerate(letters) if p == "s" or p[1] ^ 1 != j)

    language = explore(letters, ["s"], moves, lambda p: p != "s")
    return Demonstration(oracle, identity_eval_map(letters), language)


def zk_demo(rank: int, names: Optional[Iterable[str]] = None) -> Demonstration:
    """Sign-consistent generator blocks in a fixed order, empty word removed.

    Every element (n_1, ..., n_k) has the witness g_1^{n_1} ... g_k^{n_k}
    written with the matching sign, whose length is the l1 norm.  The
    automaton has a start state ``s`` and a state ``(i, sign)`` per block:
    the letter g_i^sign enters ``(i, sign)`` from ``s``, from any earlier
    block and from ``(i, sign)`` itself.
    """
    # paired_letters lists g_1, g_1^-1, g_2, g_2^-1, ...
    blocks = {x: (k // 2, -1 if k % 2 else 1)
              for k, x in enumerate(paired_letters(generator_names(rank, names)))}

    def moves(p):
        return ((x, b) for x, b in blocks.items() if p == "s" or p == b or p[0] < b[0])

    language = explore(blocks, ["s"], moves, lambda p: p != "s")
    oracle = FreeAbelianOracle(rank, {x: tuple(sign if j == i else 0 for j in range(rank))
                                      for x, (i, sign) in blocks.items()})
    return Demonstration(oracle, identity_eval_map(oracle.alphabet), language)


_BUILTIN_RE = re.compile(r"(z)|(free|zk)(?:\((\d+)\)|(\d+))")


class UnknownBuiltinError(ValueError):
    """A name that ``builtin_demo`` does not read."""


def builtin_demo(kind: str) -> Demonstration:
    """Dispatch on a textual description: z, free(k) or zk(k).

    Case is ignored and the parentheses may be dropped (FREE2, ZK3).
    """
    m = _BUILTIN_RE.fullmatch(kind.strip().lower())
    if not m:
        raise UnknownBuiltinError(f"unknown builtin demonstration {kind!r}")
    if m.group(1):
        return _built("z", 1, state_cap())
    return _built(m.group(2), int(m.group(3) or m.group(4)), state_cap())


@functools.lru_cache(maxsize=16)
def _built(family: str, rank: int, cap: int) -> Demonstration:
    """The builtin demonstration of the family and rank, built once per
    state cap: the cap, which every automaton built reads, decides whether
    building it fails, and a failure is not kept."""
    if family == "z":
        return z_demo()
    return free_demo(rank) if family == "free" else zk_demo(rank)
