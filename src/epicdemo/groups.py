"""Group oracles: finite descriptions of groups that can evaluate words.

An oracle owns an ordered monoid generating alphabet and reads words over
it one letter at a time: ``start()`` is the state of the empty word,
``act(state, letter)`` reads a letter and ``key(state)`` is the canonical
key of the element reached; ``evaluate``, ``identity_key`` and ``ball``
are built on these three.  A key is a backend tag (including degree or
rank, so keys from different oracles never collide) and a tuple, spelled
as text only by ``ElementKey.render``.  Equality of keys is equality of
group elements; nothing else about the group is assumed.
"""

from __future__ import annotations

import functools
import operator
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, NamedTuple, Optional

from .automata import EPSILON, Letter, Word, check_alphabet, walk


def _text(data: tuple) -> str:
    """Integers joined by commas, names by spaces, matrix rows by
    semicolons, and (vertex, key) pairs by bars."""
    head = data[0] if data else ""
    if isinstance(head, str):  # a Letter is a str, so names join as they are
        return " ".join(data)
    if isinstance(head, int):
        return ",".join(map(str, data))
    if isinstance(head[0], str):
        return "|".join(f"{v}={k.backend}:{_text(k.data)}" for v, k in data)
    return ";".join(map(_text, data))


class ElementKey(NamedTuple):
    """A named tuple, so keys hash and compare equal as ``(backend, data)``
    in C; they order by the text ``render`` writes, as reports list them."""

    backend: str
    data: tuple

    def render(self) -> str:
        return f"{self.backend}[{_text(self.data)}]"

    def _order(self) -> tuple[str, str]:
        return self.backend, _text(self.data)

    # tuple's own comparisons would win over functools.total_ordering
    def __lt__(self, other: "ElementKey") -> bool:
        return self._order() < other._order()

    def __le__(self, other: "ElementKey") -> bool:
        return self._order() <= other._order()

    def __gt__(self, other: "ElementKey") -> bool:
        return self._order() > other._order()

    def __ge__(self, other: "ElementKey") -> bool:
        return self._order() >= other._order()

    def __repr__(self):
        return f"ElementKey({self.render()})"


# new_key((backend, data)) is ElementKey(backend, data) built in C, without
# the named tuple's Python-level __new__: every backend's key goes through it
new_key = functools.partial(tuple.__new__, ElementKey)


class _BallTree:
    """The shortlex spanning tree of a ball, one entry per element in the
    order ``ball`` lists them: the index of the element's parent and the
    letter that leads from the parent to it (-1 and None at the identity).
    ``ends[n]`` counts the elements within ``n`` letters.  The tree holds
    no reference to its oracle."""

    __slots__ = ("radius", "parents", "letters", "ends")

    def __init__(self, radius: int, parents: array, letters: list, witnesses: Iterable[Word]):
        self.radius, self.parents, self.letters = radius, parents, letters
        words = list(witnesses)  # in length order
        self.ends = [bisect_right(words, n, key=len) for n in range(len(words[-1]) + 1)]

    def covers(self, radius: int) -> bool:
        """The ball of ``radius`` is in the tree: no larger than the one
        searched, or that search ran out of elements before its radius
        (a finite group)."""
        return radius <= self.radius or len(self.ends) <= self.radius

    def replay(self, oracle: "GroupOracle", radius: int) -> dict[ElementKey, Word]:
        """The ball of ``radius``, each state one ``act`` from its parent's."""
        n = self.ends[min(radius, len(self.ends) - 1)]
        act, key = oracle.act, oracle.key
        states, words = [oracle.start()], [EPSILON]
        ball = {oracle.identity_key: EPSILON}
        for parent, letter in zip(islice(self.parents, 1, n), islice(self.letters, 1, n)):
            state = act(states[parent], letter)
            word = words[parent] + (letter,)
            states.append(state)
            words.append(word)
            ball[key(state)] = word
        return ball


class GroupOracle(ABC):
    """Evaluates words over a fixed generating alphabet to element keys."""

    alphabet: tuple[Letter, ...]

    @property
    @abstractmethod
    def backend(self) -> str:
        """Tag embedded in every key, unique per group description."""

    @abstractmethod
    def start(self) -> Any:
        """State of the empty word."""

    @abstractmethod
    def act(self, state: Any, letter: Letter) -> Any:
        """State after reading one more letter."""

    @abstractmethod
    def key(self, state: Any) -> ElementKey:
        """Canonical key of the element a state stands for."""

    def fold(self, word: Word) -> Any:
        """State reached by reading the word from ``start()``."""
        self._check_word(word)
        return functools.reduce(self.act, word, self.start())

    def evaluate(self, word: Word) -> ElementKey:
        """Canonical key of the element the word multiplies out to."""
        return self.key(self.fold(word))

    @functools.cached_property
    def identity_key(self) -> ElementKey:
        """Key of the empty word, built once per oracle."""
        return self.key(self.start())

    def is_identity(self, word: Word) -> bool:
        return self.evaluate(word) == self.identity_key

    def ball(self, radius: int) -> dict[ElementKey, Word]:
        """Shortest witness per element within ``radius`` letters.

        Breadth-first over elements; among witnesses of minimal length the
        length-lex least (alphabet declaration order) is kept.  The oracle
        keeps the shortlex spanning tree of the largest ball asked so far.
        A radius that tree covers replays it: one ``act`` per element.  A
        larger radius searches the Cayley graph, one ``act`` per edge: the
        walk carries the state of every word and prunes words whose key was
        seen before; the tree it finds is kept once the search returns.
        """
        if radius < 0:
            return {}
        tree = vars(self).get("_ball_tree")
        if tree is not None and tree.covers(radius):
            return tree.replay(self, radius)
        act, key = self.act, self.key
        # walk steps each child just before it yields the pair, so the ball
        # filled from earlier pairs is also the set of keys seen
        ball: dict[ElementKey, Word] = {}
        parents, letters = array("i", [-1]), [None]

        def step(node, letter, n):
            state = act(node[0], letter)
            k = key(state)
            if k not in ball:
                parents.append(node[2])
                letters.append(letter)
                return state, k, len(letters) - 1

        for w, node in walk(self.alphabet, (self.start(), self.identity_key, 0), step, radius):
            ball[node[1]] = w
        vars(self)["_ball_tree"] = _BallTree(radius, parents, letters, ball.values())
        return ball

    @functools.cached_property
    def _inverse_letters(self) -> dict:
        return {}

    def inverse_letter(self, letter: Letter) -> Letter:
        """First letter in declaration order inverting ``letter``.

        Raises ValueError when the alphabet is not inverse-closed at this
        letter.
        """
        cache = self._inverse_letters
        if letter in cache:
            return cache[letter]
        for y in self.alphabet:
            if self.is_identity((letter, y)) and self.is_identity((y, letter)):
                cache[letter] = y
                return y
        raise ValueError(f"alphabet has no inverse for letter {letter.name!r}")

    def inverse_word(self, word: Word) -> Word:
        return tuple(self.inverse_letter(x) for x in reversed(word))

    @functools.cached_property
    def _letters(self) -> frozenset:
        return frozenset(self.alphabet)

    def _check_word(self, word: Word):
        for x in word:
            if x not in self._letters:
                raise ValueError(f"letter {x.name!r} is not in the oracle alphabet")


# -- permutations --------------------------------------------------------


def perm_from_cycles(cycles: Iterable[Iterable[int]], degree: int) -> tuple[int, ...]:
    """Build an image tuple (0-based) from 1-based cycles."""
    images = list(range(degree))
    for cycle in cycles:
        pts = [p - 1 for p in cycle]
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError(f"cycle point out of range for degree {degree}: {cycle}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {cycle}")
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def cycles_from_perm(perm: tuple[int, ...]) -> list[list[int]]:
    """Disjoint cycles (1-based, fixed points omitted), smallest point first."""
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        p = perm[start]
        while p != start:
            cycle.append(p)
            seen.add(p)
            p = perm[p]
        cycles.append([q + 1 for q in cycle])
    return cycles


@dataclass(eq=True)
class PermutationOracle(GroupOracle):
    """Subgroup of the symmetric group given by generator images.

    Generators are image tuples (0-based).  Words compose left to right:
    the first letter acts first.
    """

    degree: int
    gens: dict[Letter, tuple[int, ...]]

    def __post_init__(self):
        self.alphabet = check_alphabet(self.gens.keys())
        if self.degree < 1:
            raise ValueError("degree must be positive")
        for x, images in self.gens.items():
            if sorted(images) != list(range(self.degree)):
                raise ValueError(f"generator {x.name!r} is not a permutation of degree {self.degree}")

    @functools.cached_property
    def backend(self) -> str:
        return f"perm{self.degree}"

    def start(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def act(self, state: tuple[int, ...], letter: Letter) -> tuple[int, ...]:
        return tuple(map(self.gens[letter].__getitem__, state))

    def key(self, state: tuple[int, ...]) -> ElementKey:
        # 1-based images, as cycles are written
        return new_key((self.backend, tuple(i + 1 for i in state)))


# -- free abelian --------------------------------------------------------


@dataclass(eq=True)
class FreeAbelianOracle(GroupOracle):
    """Z^rank with integer-vector generators."""

    rank: int
    gens: dict[Letter, tuple[int, ...]]

    def __post_init__(self):
        self.alphabet = check_alphabet(self.gens.keys())
        if self.rank < 1:
            raise ValueError("rank must be positive")
        for x, vec in self.gens.items():
            if len(vec) != self.rank:
                raise ValueError(f"generator {x.name!r} has length {len(vec)}, rank is {self.rank}")

    @functools.cached_property
    def backend(self) -> str:
        return f"zk{self.rank}"

    def start(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def act(self, state: tuple[int, ...], letter: Letter) -> tuple[int, ...]:
        return tuple(map(operator.add, state, self.gens[letter]))

    def key(self, state: tuple[int, ...]) -> ElementKey:
        return new_key((self.backend, state))


# -- free groups ---------------------------------------------------------

_GEN_NAMES = "abcdefghijklmnopqrstuvwxyz"
_INVERSE_SUFFIX = "^-1"
EPS_RESERVED = "'eps' is reserved and cannot be an alphabet letter"


def paired_letters(names: Iterable[str]) -> tuple[Letter, ...]:
    """Interleave each name with its formal inverse ``name^-1``.

    No name may be ``eps``, which spells the empty word.  Names must not
    end in the inverse marker themselves, so that adding or removing the
    marker, as ``formal_inverse`` and ``free_reduce`` do, pairs each
    letter with its inverse.
    """
    names = tuple(names)
    if "eps" in names:
        raise ValueError(EPS_RESERVED)
    out = []
    for n in names:
        if n.endswith(_INVERSE_SUFFIX):
            raise ValueError(f"generator name {n!r} must not carry an inverse marker")
        out.append(Letter(n))
        out.append(Letter(n + _INVERSE_SUFFIX))
    return check_alphabet(out)


def generator_names(rank: int, names: Optional[Iterable[str]] = None) -> tuple[str, ...]:
    """One name per generator: ``names`` as a tuple, or by default the
    first ``rank`` letters of the Latin alphabet."""
    if rank < 1:
        raise ValueError("rank must be positive")
    if names is None:
        if rank > len(_GEN_NAMES):
            raise ValueError(f"rank {rank} too large for default generator names")
        return tuple(_GEN_NAMES[:rank])
    names = tuple(names)
    if len(names) != rank:
        raise ValueError("need exactly one name per generator")
    return names


class _Inverses(dict):
    """Each letter's paired inverse ``Letter``, named once per letter:
    the inverse marker added, or removed when the letter carries it."""

    def __missing__(self, x: str) -> Letter:
        base = x.removesuffix(_INVERSE_SUFFIX)
        inverse = self[x] = Letter(x + _INVERSE_SUFFIX if base == x else base)
        return inverse


_INVERSE = _Inverses()


def formal_inverse(word: Word) -> Word:
    """Reversed word with every letter replaced by its paired inverse."""
    return tuple(map(_INVERSE.__getitem__, reversed(word)))


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    A letter cancels the last kept letter when it is that letter's formal
    inverse.  The result is the unique reduced form and does not depend on
    the cancellation order.  A letter with no formal inverse (the bare
    marker ``^-1``) raises ValueError, as in ``formal_inverse``.
    """
    stack: list[Letter] = []
    top = None  # the inverse of the last kept letter
    for x in word:
        if x == top:
            stack.pop()
            top = _INVERSE[stack[-1]] if stack else None
        else:
            stack.append(x)
            top = _INVERSE[x]
    return tuple(stack)


@dataclass(eq=True)
class FreeGroupOracle(GroupOracle):
    """Free group of the given rank; keys are freely reduced words.

    The alphabet interleaves generators with their inverses
    (a, a^-1, b, b^-1, ...).  Custom generator names may be supplied.
    """

    rank: int
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        self.names = generator_names(self.rank, self.names)
        self.alphabet = paired_letters(self.names)

    @functools.cached_property
    def backend(self) -> str:
        return f"free{self.rank}"

    def start(self) -> Word:
        return EPSILON

    def act(self, state: Word, letter: Letter) -> Word:
        if state and state[-1] == _INVERSE[letter]:
            return state[:-1]
        return state + (letter,)

    def key(self, state: Word) -> ElementKey:
        return new_key((self.backend, state))


# -- integer matrices ----------------------------------------------------

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def mat_det(m: Matrix) -> int:
    """Exact integer determinant by Bareiss's fraction-free elimination.

    Every entry left after an elimination step is a minor of the input
    (rows swapped on a zero pivot, which flips the sign), so dividing by
    the previous pivot is exact and no entry outgrows a minor: O(n^3)
    integer operations where cofactor expansion takes O(n!).
    """
    a = [list(row) for row in m]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * row_k[j]) // previous
        previous = pivot
    return sign * a[-1][-1]


def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


@dataclass(eq=True)
class IntegerMatrixOracle(GroupOracle):
    """Matrix group over the integers; exact arithmetic, no floats.

    Every generator must have determinant +1 or -1 so that inverses stay
    integral.
    """

    dim: int
    gens: dict[Letter, Matrix]

    def __post_init__(self):
        self.alphabet = check_alphabet(self.gens.keys())
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for x, m in self.gens.items():
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError(f"generator {x.name!r} is not {self.dim}x{self.dim}")
            if not all(isinstance(e, int) for row in m for e in row):
                raise ValueError(f"generator {x.name!r} has non-integer entries")
            det = mat_det(m)
            if det not in (1, -1):
                raise ValueError(f"generator {x.name!r} has determinant {det}, need +-1")

    @functools.cached_property
    def backend(self) -> str:
        return f"mat{self.dim}"

    def start(self) -> Matrix:
        return identity_matrix(self.dim)

    def act(self, state: Matrix, letter: Letter) -> Matrix:
        return mat_mul(state, self.gens[letter])

    def key(self, state: Matrix) -> ElementKey:
        return new_key((self.backend, state))
