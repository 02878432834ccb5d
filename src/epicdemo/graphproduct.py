"""Graph products of groups and their pruned normal forms.

A graph product is built from a finite simple graph whose vertices carry
groups: elements of groups at adjacent vertices commute, nothing else is
imposed.  A word over the disjoint union of the vertex alphabets splits
into maximal single-vertex runs (local strings).  Two rewriting moves
preserve the element: swapping neighbouring local strings whose vertices
are adjacent in the graph (a shuffle), and merging two same-vertex local
strings once shuffles make them neighbours (an amalgamation, deleting the
merged string when it is locally trivial).  A word is pruned when no move
applies; among the shuffle-equivalent orderings of a pruned word the one
whose vertex type string is ShortLex-least (vertex declaration order) is
the canonical representative, and that representative determines the
group element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .automata import EPSILON, Letter, Word
from .groups import ElementKey, GroupOracle


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

    def rank(self, v: str) -> int:
        return self.vertices.index(v)


@dataclass(frozen=True)
class LocalDecomposition:
    """A word split into maximal single-vertex runs."""

    parts: tuple  # ((vertex, word), ...)

    @property
    def type_string(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.parts)

    @property
    def global_length(self) -> int:
        return len(self.parts)

    def word(self) -> Word:
        out: Word = EPSILON
        for _, sub in self.parts:
            out = out + sub
        return out


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
        self._letter_vertex: dict[str, str] = {}
        alphabet: list[Letter] = []
        for v in graph.vertices:
            for x in self.vertex_oracles[v].alphabet:
                if x.name in self._letter_vertex:
                    raise ValueError(f"letter {x.name!r} appears in two vertex alphabets")
                self._letter_vertex[x.name] = v
                alphabet.append(x)
        self.alphabet = tuple(alphabet)

    def __eq__(self, other):
        return (isinstance(other, GraphProductOracle)
                and self.graph == other.graph
                and self.vertex_oracles == other.vertex_oracles)

    @property
    def backend(self) -> str:
        edges = sorted(self.graph.edges)
        parts = [f"{v}:{self.vertex_oracles[v].backend}" for v in self.graph.vertices]
        return "gp(" + ",".join(parts) + ";" + ",".join(f"{u}-{v}" for u, v in edges) + ")"

    def vertex_of(self, letter: Letter) -> str:
        try:
            return self._letter_vertex[letter.name]
        except KeyError:
            raise ValueError(f"letter {letter.name!r} is not in any vertex alphabet") from None

    def decompose(self, word: Word) -> LocalDecomposition:
        """Split into maximal runs of same-vertex letters."""
        parts: list[tuple[str, Word]] = []
        for x in word:
            v = self.vertex_of(x)
            if parts and parts[-1][0] == v:
                parts[-1] = (v, parts[-1][1] + (x,))
            else:
                parts.append((v, (x,)))
        return LocalDecomposition(tuple(parts))

    def _locally_trivial(self, vertex: str, sub: Word) -> bool:
        return self.vertex_oracles[vertex].is_identity(sub)

    def _normalize(self, parts: list) -> list:
        # merge neighbouring same-vertex runs, drop locally trivial ones,
        # repeat until stable
        changed = True
        while changed:
            changed = False
            merged: list = []
            for (v, sub) in parts:
                if merged and merged[-1][0] == v:
                    merged[-1] = (v, merged[-1][1] + sub)
                    changed = True
                else:
                    merged.append((v, sub))
            parts = [(v, sub) for (v, sub) in merged if not self._locally_trivial(v, sub)]
            if len(parts) != len(merged):
                changed = True
        return parts

    def _find_amalgamation(self, parts: list):
        # least (i, j) with equal vertices and every run strictly between
        # adjacent to that vertex, so shuffles can bring them together
        for i in range(len(parts)):
            v = parts[i][0]
            for j in range(i + 1, len(parts)):
                if parts[j][0] == v:
                    return (i, j)
                if not self.graph.adjacent(parts[j][0], v):
                    break
        return None

    def prune(self, word: Word) -> tuple[Word, tuple[str, ...]]:
        """Fully rewritten word and its type string.

        Amalgamates until no shuffle sequence can merge two local strings,
        then orders the surviving runs so the type string is ShortLex-least
        among shuffle-equivalent orderings.  The result evaluates to the
        same group element as the input.
        """
        parts = self._normalize(list(self.decompose(word).parts))
        while True:
            hit = self._find_amalgamation(parts)
            if hit is None:
                break
            i, j = hit
            v = parts[i][0]
            merged = (v, parts[i][1] + parts[j][1])
            parts = parts[:i] + parts[i + 1:j] + [merged] + parts[j + 1:]
            parts = self._normalize(parts)
        parts = self._shortlex_order(parts)
        decomp = LocalDecomposition(tuple(parts))
        return decomp.word(), decomp.type_string

    def _shortlex_order(self, parts: list) -> list:
        """Least type string over all orderings reachable by shuffles.

        Positions i < j are order-constrained when their vertices are equal
        or non-adjacent; any linear extension of that partial order is
        shuffle-reachable.  Greedily emitting the least available vertex
        yields the lexicographically least type string.
        """
        n = len(parts)
        rank = self.graph.rank
        succs: list[list[int]] = [[] for _ in range(n)]
        pred_count = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                vi, vj = parts[i][0], parts[j][0]
                if vi == vj or not self.graph.adjacent(vi, vj):
                    succs[i].append(j)
                    pred_count[j] += 1
        available = [i for i in range(n) if pred_count[i] == 0]
        out: list = []
        while available:
            best = min(available, key=lambda i: (rank(parts[i][0]), i))
            available.remove(best)
            out.append(parts[best])
            for j in succs[best]:
                pred_count[j] -= 1
                if pred_count[j] == 0:
                    available.append(j)
        return out

    # the state is the word read so far; its key is read off the pruned word

    def start(self) -> Word:
        return EPSILON

    def act(self, state: Word, letter: Letter) -> Word:
        return state + (letter,)

    def key(self, state: Word) -> ElementKey:
        pruned, _ = self.prune(state)
        return ElementKey(self.backend, tuple((v, self.vertex_oracles[v].evaluate(sub))
                                              for v, sub in self.decompose(pruned).parts))
