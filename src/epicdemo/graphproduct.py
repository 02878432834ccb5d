"""Graph products of groups and their normal forms.

A graph product is built from a finite simple graph whose vertices carry
groups: elements of groups at adjacent vertices commute, nothing else is
imposed.  A word is reduced when it is a sequence of syllables, each a
locally non-trivial word over one vertex alphabet, and no two syllables
of the same vertex can be brought together by swapping neighbouring
syllables of adjacent vertices (shuffles).  By Green's normal form
theorem (E. R. Green, *Graph products of groups*, PhD thesis, Leeds 1990;
Hermiller and Meier, J. Algebra 171, 1995) reduced words of one element
differ only by shuffles, so the ordering whose vertex type string is
ShortLex-least (vertex declaration order) determines the element.

The oracle state is that normal form, extended one letter at a time: a
letter of vertex v merges into the last v syllable when every syllable
after it is adjacent to v (and the syllable is dropped when it becomes
trivial), and otherwise starts a new syllable at its ShortLex place among
the trailing syllables adjacent to v.  The result is again reduced, so
no rewriting cascades.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping

from .automata import Letter, Word
from .groups import ElementKey, GroupOracle, new_key

_syllable_key = itemgetter(0)  # a syllable's (vertex, local key) pair


@dataclass(frozen=True)
class VertexGraph:
    """Finite simple graph with ordered vertices."""

    vertices: tuple[str, ...]
    edges: frozenset

    @classmethod
    def make(cls, vertices, edges) -> "VertexGraph":
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex names must be distinct")
        rank = {v: i for i, v in enumerate(vertices)}
        normalized = set()
        for (u, v) in edges:
            if u not in rank or v not in rank:
                raise ValueError(f"edge endpoint not a vertex: {(u, v)!r}")
            if u == v:
                raise ValueError(f"self-loop at {u!r} not allowed")
            normalized.add((u, v) if rank[u] < rank[v] else (v, u))
        return cls(vertices, frozenset(normalized))

    def adjacent(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


class GraphProductOracle(GroupOracle):
    """Oracle for a graph product of oracle-backed vertex groups.

    Vertex alphabets must be pairwise disjoint by display string; the
    product alphabet lists them in vertex declaration order.
    """

    def __init__(self, graph: VertexGraph, vertex_oracles: Mapping[str, GroupOracle]):
        self.graph = graph
        self.vertex_oracles = dict(vertex_oracles)
        missing = [v for v in graph.vertices if v not in self.vertex_oracles]
        if missing:
            raise ValueError(f"no oracle for vertices: {missing}")
        extra = [v for v in self.vertex_oracles if v not in graph.vertices]
        if extra:
            raise ValueError(f"oracles for unknown vertices: {extra}")
        self._letter_vertex: dict[Letter, str] = {}
        for v in graph.vertices:
            for x in self.vertex_oracles[v].alphabet:
                if x in self._letter_vertex:
                    raise ValueError(f"letter {x.name!r} appears in two vertex alphabets")
                self._letter_vertex[x] = v
        self.alphabet = tuple(self._letter_vertex)
        self._rank = {v: i for i, v in enumerate(graph.vertices)}
        self._neighbours = {v: {u for u in graph.vertices if graph.adjacent(u, v)}
                            for v in graph.vertices}

    def __eq__(self, other):
        return (isinstance(other, GraphProductOracle)
                and self.graph == other.graph
                and self.vertex_oracles == other.vertex_oracles)

    @cached_property
    def backend(self) -> str:
        edges = sorted(self.graph.edges)
        parts = [f"{v}:{self.vertex_oracles[v].backend}" for v in self.graph.vertices]
        return "gp(" + ",".join(parts) + ";" + ",".join(f"{u}-{v}" for u, v in edges) + ")"

    # the state is the normal form: ((vertex, local key), local word, local
    # state) syllables in ShortLex-least vertex order, so that a key is the
    # syllables' first entries

    def start(self) -> tuple:
        return ()

    def act(self, state: tuple, letter: Letter) -> tuple:
        v = self._letter_vertex[letter]
        local = self.vertex_oracles[v]
        neighbours = self._neighbours[v]
        i = len(state)
        while i and state[i - 1][0][0] in neighbours:
            i -= 1
        if i and state[i - 1][0][0] == v:
            i -= 1
            _, sub, s = state[i]
            rest = state[i + 1:]
        else:
            sub, s = (), local.start()
            while i < len(state) and self._rank[state[i][0][0]] < self._rank[v]:
                i += 1
            rest = state[i:]
        s = local.act(s, letter)
        k = local.key(s)
        if k == local.identity_key:
            return state[:i] + rest
        return state[:i] + (((v, k), sub + (letter,), s),) + rest

    def key(self, state: tuple) -> ElementKey:
        return new_key((self.backend, tuple(map(_syllable_key, state))))

    def prune(self, word: Word) -> tuple[Word, tuple[str, ...]]:
        """Normal form of the word, spelled as its syllables' local words
        in order, and its type string."""
        state = self.fold(word)
        return tuple(x for _, sub, _ in state for x in sub), tuple(v for (v, _), _, _ in state)
