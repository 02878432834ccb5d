"""Nondeterministic finite automata over letter alphabets.

Letters are strings: a ``Letter`` equals, hashes and sorts as its display
string, so two automata agree on a letter exactly when they spell it the
same way, and sets and maps of letters work on the names directly.  Words
are tuples of letters and the empty tuple is the empty word.  Epsilon
transitions are stored explicitly (label ``None``) and never eliminated:
products keep them, and decision procedures step state subsets through
each state's epsilon closure instead.

Alphabets are ordered: declaration order fixes the lexicographic order
of :func:`walk`, the one length-lex word walk (``Nfa.words``, group
balls and coverage all call it), and every operation that merges two
alphabets keeps the left operand's order and appends unseen letters.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional

from .errors import AutomatonSizeError

State = Hashable

MAX_STATES_ENV = "EPIC_MAX_STATES"
DEFAULT_MAX_STATES = 10**6

_INF = float("inf")


def state_cap() -> int:
    raw = os.environ.get(MAX_STATES_ENV)
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_STATES_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{MAX_STATES_ENV} must be positive, got {cap}")
    return cap


class Letter(str):
    """A single symbol: a non-empty string without whitespace."""

    __slots__ = ()

    def __new__(cls, name: str):
        if name.split() != [name]:
            raise ValueError(f"letter name must be non-empty without whitespace: {name!r}")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return str(self)

    def __repr__(self):
        return f"Letter({str(self)!r})"


Word = tuple[Letter, ...]
EPSILON: Word = ()


def make_word(*names: str) -> Word:
    return tuple(Letter(n) for n in names)


def format_word(word: Word) -> str:
    """Render a word as space-separated letter names, ``eps`` for the empty word."""
    if not word:
        return "eps"
    return " ".join(word)


def parse_word(text: str) -> Word:
    """Inverse of format_word.  ``eps`` alone denotes the empty word."""
    parts = text.split()
    if not parts or parts == ["eps"]:
        return EPSILON
    if "eps" in parts:
        raise ValueError("'eps' is reserved for the empty word and cannot mix with letters")
    return tuple(Letter(n) for n in parts)


def check_alphabet(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out = tuple(letters)
    seen = set()
    for x in out:
        if not isinstance(x, Letter):
            raise TypeError(f"alphabet entries must be Letter, got {x!r}")
        if x in seen:
            raise ValueError(f"duplicate letter {x.name!r} in alphabet")
        seen.add(x)
    return out


def _check_labels(labels: Iterable, alphabet: tuple[Letter, ...]) -> None:
    """``Nfa(...)``'s error for the first label that is not a Letter of ``alphabet``."""
    for x in labels:
        if not isinstance(x, Letter) or x not in alphabet:
            raise ValueError(f"transition label {x!r} not in the alphabet")


def merge_alphabets(*alphabets: Iterable[Letter]) -> tuple[Letter, ...]:
    """Order-preserving union: left operand first, then unseen letters."""
    return tuple(dict.fromkeys(x for alphabet in alphabets for x in alphabet))


def reachable(starts: Iterable[State],
              successors: Callable[[State], Iterable[State]]) -> set:
    """Every node reachable from ``starts`` (included) along ``successors``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for q in successors(stack.pop()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def explore(alphabet: Iterable[Letter], initials: Iterable[State], moves: Callable,
            accepts: Callable) -> Nfa:
    """The automaton of the states reachable from ``initials`` (included),
    with every edge ``(label, q)`` that ``moves(p)`` yields from its states
    (a letter of ``alphabet``, which is not checked, or None for epsilon),
    and the states that ``accepts`` picks."""
    transitions = set()

    def successors(p):
        for label, q in moves(p):
            transitions.add((p, label, q))
            yield q

    initials = frozenset(initials)
    states = reachable(initials, successors)
    return Nfa._built(tuple(alphabet), frozenset(states), frozenset(transitions), initials,
                      frozenset(filter(accepts, states)))


def walk(alphabet: tuple[Letter, ...], root, step: Callable,
         max_len: Optional[int] = None) -> Iterator[tuple[Word, object]]:
    """``(word, node)`` pairs in length-lex order from ``(EPSILON, root)``,
    lazily, up to ``max_len`` letters (without end when None).

    ``step(node, letter, n)`` is the node of the prefix extended by the
    letter to length ``n``, or None to drop it and all its extensions;
    steps run in length-lex order, each just before its pair is yielded.
    """
    if max_len is not None and max_len < 0:
        return
    yield EPSILON, root
    frontier = [(EPSILON, root)]
    n = 0
    while frontier and n != max_len:
        n += 1
        last = n == max_len  # words of the last length are not extended
        nxt = []
        for word, node in frontier:
            for x in alphabet:
                child = step(node, x, n)
                if child is not None:
                    pair = (word + (x,), child)
                    if not last:
                        nxt.append(pair)
                    yield pair
        frontier = nxt


@dataclass(frozen=True)
class Nfa:
    """A finite automaton with epsilon transitions.

    ``transitions`` holds triples ``(source, label, target)`` where the
    label is a Letter or ``None`` for epsilon.  ``initials`` must be
    non-empty.  State identifiers are opaque hashables; constructions in
    this module tag states with tuples to keep them distinct.

    ``Nfa(...)`` checks every part, each transition too.  The builders here
    use ``Nfa._built`` (cap and alphabet) and check their callers' letters.
    """

    alphabet: tuple[Letter, ...]
    states: frozenset
    transitions: frozenset
    initials: frozenset
    accepting: frozenset

    def __post_init__(self):
        self._check_shape()
        if not self.initials <= self.states or not self.accepting <= self.states:
            raise ValueError("initial and accepting states must be drawn from the state set")
        letters = set(self.alphabet)
        for (p, label, q) in self.transitions:
            if p not in self.states or q not in self.states:
                raise ValueError(f"transition endpoint not a state: {(p, label, q)!r}")
            if label is not None and (not isinstance(label, Letter) or label not in letters):
                raise ValueError(f"transition label {label!r} not in the alphabet")

    @classmethod
    def _built(cls, *parts) -> Nfa:
        nfa = object.__new__(cls)
        vars(nfa).update(zip(cls.__dataclass_fields__, parts))
        nfa._check_shape()
        return nfa

    def _check_shape(self):
        object.__setattr__(self, "alphabet", check_alphabet(self.alphabet))
        cap = state_cap()
        if len(self.states) > cap:
            raise AutomatonSizeError(
                f"automaton has {len(self.states)} states, cap is {cap} "
                f"(set {MAX_STATES_ENV} to raise it)")
        if not self.initials:
            raise ValueError("automaton needs at least one initial state")

    # -- cached structure ------------------------------------------------

    @cached_property
    def _edges(self) -> dict:
        """The out-edge index ``{state: {label: [targets]}}`` with an entry
        for every state; epsilon edges are under the label ``None``."""
        out: dict = {s: {} for s in self.states}
        for (p, label, q) in self.transitions:
            out[p].setdefault(label, []).append(q)
        return out

    def eps_closure(self, states: Iterable[State]) -> frozenset:
        """All states reachable from ``states`` by epsilon edges alone.
        Until the out-edge index is built, one pass over the transitions
        collects the epsilon edges, and the index stays unbuilt."""
        edges = vars(self).get("_edges")
        if edges is not None:
            return frozenset(reachable(states, lambda p: edges[p].get(None, ())))
        eps: dict = {}
        for (p, label, q) in self.transitions:
            if label is None:
                eps.setdefault(p, []).append(q)
        return frozenset(reachable(states, lambda p: eps.get(p, ())))

    @cached_property
    def _letters_to_accept(self) -> dict:
        """Minimum number of letters needed to reach acceptance, per state."""
        back_eps: dict = {}
        back_letter: dict = {}
        for (p, label, q) in self.transitions:
            if label is None:
                back_eps.setdefault(q, []).append(p)
            else:
                back_letter.setdefault(q, []).append(p)
        dist = {s: 0 for s in self.accepting}
        dq = deque(self.accepting)
        while dq:
            q = dq.popleft()
            d = dist[q]
            for p in back_eps.get(q, ()):
                if p not in dist or dist[p] > d:
                    dist[p] = d
                    dq.appendleft(p)
            for p in back_letter.get(q, ()):
                if p not in dist or dist[p] > d + 1:
                    dist[p] = d + 1
                    dq.append(p)
        return dist

    # -- decision procedures --------------------------------------------

    def start_subset(self) -> frozenset:
        return self.eps_closure(self.initials)

    @cached_property
    def _closed_memo(self) -> dict:
        return {}

    def _closed(self, state: State) -> dict:
        """``{letter: targets}`` of the letter edges leaving the state's
        epsilon closure, memoized per state."""
        out = self._edges[state]
        if None in out:
            merged: dict = {}
            for c in self.eps_closure((state,)):
                for label, targets in self._edges[c].items():
                    if label is not None:
                        merged.setdefault(label, set()).update(targets)
            out = merged
        self._closed_memo[state] = out
        return out

    @cached_property
    def closure_accepting(self) -> frozenset:
        """The states whose epsilon closure holds an accepting state."""
        return frozenset(s for s, d in self._letters_to_accept.items() if not d)

    def step(self, subset: frozenset, letter: Letter) -> frozenset:
        """The states the letter reaches from the epsilon closures of
        ``subset``; the result is not itself closed, so acceptance is
        tested against ``closure_accepting``."""
        moved: set = set()
        memo = self._closed_memo
        for p in subset:
            out = memo.get(p)
            if out is None:
                out = self._closed(p)
            moved.update(out.get(letter, ()))
        return frozenset(moved)

    def accepts(self, word: Word) -> bool:
        """Membership test; letters outside the alphabet never match."""
        subset = self.start_subset()
        if not word:  # a closed subset: no distance table to build
            return not self.accepting.isdisjoint(subset)
        for x in word:
            subset = self.step(subset, x)
            if not subset:
                return False
        return not self.closure_accepting.isdisjoint(subset)

    def is_empty(self) -> bool:
        """True when no word at all is accepted: no initial state is
        within any number of letters of acceptance."""
        return self.initials.isdisjoint(self._letters_to_accept)

    @cached_property
    def _step_memo(self) -> dict:
        return {}

    def pruned_step(self, max_len: Optional[int] = None) -> Callable:
        """A ``walk`` step over state subsets that drops a subset unable to
        accept within the remaining length (within as many letters as there
        are states when ``max_len`` is None).  Each (subset, letter) pair a
        walk visits is stepped once per automaton: the memo keeps the next
        subset and the fewest letters it needs to accept."""
        memo, dist = self._step_memo, self._letters_to_accept

        def step(subset: frozenset, letter: Letter, n: int) -> Optional[frozenset]:
            hit = memo.get((subset, letter))
            if hit is None:
                moved = self.step(subset, letter)
                hit = memo[subset, letter] = moved, min((dist.get(s, _INF) for s in moved),
                                                         default=_INF)
            if hit[1] <= (len(self.states) if max_len is None else max_len - n):
                return hit[0]

        return step

    def words(self, max_len: Optional[int] = None) -> Iterator[Word]:
        """Accepted words in length-lex order (alphabet declaration order),
        lazily, all of them when ``max_len`` is None; only prefixes that can
        still accept are extended, so a finite language's walk ends."""
        nodes = walk(self.alphabet, self.start_subset(), self.pruned_step(max_len), max_len)
        accepting = self.closure_accepting
        return (w for w, subset in nodes if not accepting.isdisjoint(subset))

    def enumerate_words(self, max_len: int) -> list[Word]:
        """Accepted words of length at most ``max_len`` in length-lex order."""
        return list(self.words(max_len))


# -- constructions ------------------------------------------------------


def glue(alphabet: Iterable[Letter], parts: Mapping[str, Nfa], bridges: Iterable,
         initials: Iterable[str], accepting: Iterable[str]) -> Nfa:
    """Disjoint copies of automata joined by epsilon edges.

    State ``s`` of ``parts[t]`` becomes ``(t, s)``, with its transitions;
    each bridge ``(t, u)`` adds an epsilon edge from every accepting state
    of copy ``t`` to every initial state of copy ``u``.  The initial states
    of the copies named in ``initials`` are initial, and the accepting
    states of the copies named in ``accepting`` accept.
    """
    alphabet = tuple(alphabet)
    _check_labels(merge_alphabets(*(a.alphabet for a in parts.values())), alphabet)
    states, transitions = set(), set()
    for t, a in parts.items():
        for s in a.states:
            states.add((t, s))
        for (p, label, q) in a.transitions:
            transitions.add(((t, p), label, (t, q)))
    for t, u in bridges:
        entry = parts[u].initials
        for f in parts[t].accepting:
            for i in entry:
                transitions.add(((t, f), None, (u, i)))
    return Nfa._built(alphabet, frozenset(states), frozenset(transitions),
                      frozenset((t, s) for t in initials for s in parts[t].initials),
                      frozenset((t, s) for t in accepting for s in parts[t].accepting))


def union(a: Nfa, b: Nfa) -> Nfa:
    """Automaton accepting the union of the two languages."""
    return glue(merge_alphabets(a.alphabet, b.alphabet), {"u0": a, "u1": b}, (),
                ("u0", "u1"), ("u0", "u1"))


def concat(a: Nfa, b: Nfa) -> Nfa:
    """Automaton accepting every word of ``a`` followed by a word of ``b``."""
    return glue(merge_alphabets(a.alphabet, b.alphabet), {"c0": a, "c1": b},
                [("c0", "c1")], ("c0",), ("c1",))


def _product(alphabet: tuple[Letter, ...], lefts: Iterable[State], moves: Callable,
             right: Nfa, left_accepting) -> Nfa:
    """The reachable pairs ``(p, q)`` of a left-hand search and ``right``.

    ``moves(p)`` maps a letter to the ``(label, p2)`` edges of ``p`` taken
    together with every edge of ``right`` on that letter, each an edge to
    ``p2`` labelled ``label`` in the product; under None it lists the
    epsilon moves of the left, taken alone.  An epsilon edge of ``right``
    moves ``q`` alone, as an epsilon edge of the product.  The product
    walks the edges of ``right`` at ``q`` and looks up the left's moves by
    their letter.  A pair accepts when ``p`` is in ``left_accepting`` and
    ``q`` accepts.
    """
    edges = right._edges

    def pair_moves(pair):
        p, q = pair
        by_letter = moves(p)
        for x, targets in edges[q].items():
            if x is None:
                for q2 in targets:
                    yield None, (p, q2)
            else:
                for label, p2 in by_letter.get(x, ()):
                    for q2 in targets:
                        yield label, (p2, q2)
        for label, p2 in by_letter.get(None, ()):
            yield label, (p2, q)

    return explore(alphabet, [(p, q) for p in lefts for q in right.initials], pair_moves,
                   lambda s: s[0] in left_accepting and s[1] in right.accepting)


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton for the intersection, restricted to reachable
    pairs; an epsilon edge of either side moves that side alone."""

    def moves(p):
        return {x: [(x, p2) for p2 in targets] for x, targets in a._edges[p].items()}

    return _product(merge_alphabets(a.alphabet, b.alphabet), a.initials, moves, b,
                    a.accepting)


def image_hom(a: Nfa, phi: Mapping[Letter, Word], allow_erasing: bool = False,
              target_alphabet: Optional[Iterable[Letter]] = None) -> Nfa:
    """Apply a letter-to-word substitution to the language.

    Every transition on ``x`` is replaced by a path spelling ``phi[x]``.
    Erasing images (empty words) become epsilon edges and must be enabled
    explicitly with ``allow_erasing``.
    """
    for x in a.alphabet:
        if x not in phi:
            raise ValueError(f"substitution is missing letter {x.name!r}")
        if not phi[x] and not allow_erasing:
            raise ValueError(f"substitution erases {x.name!r} but allow_erasing is False")
    if target_alphabet is not None:
        alphabet = check_alphabet(target_alphabet)
        for x in a.alphabet:
            for y in phi[x]:
                if not isinstance(y, Letter) or y not in alphabet:
                    raise ValueError(f"image of {x.name!r} uses {str(y)!r} outside the target alphabet")
    else:
        alphabet = merge_alphabets(*(phi[x] for x in a.alphabet))
    states = set(("h", s) for s in a.states)
    transitions = set()
    for (p, label, q) in a.transitions:
        # a chain of fresh states spelling the image: an epsilon edge or an
        # erased image is a chain of length 0, one epsilon edge
        image = EPSILON if label is None else phi[label]
        prev = ("h", p)
        for k in range(len(image) - 1):
            mid = ("hp", p, label.name, q, k)
            states.add(mid)
            transitions.add((prev, image[k], mid))
            prev = mid
        transitions.add((prev, image[-1] if image else None, ("h", q)))
    return Nfa._built(alphabet, frozenset(states), frozenset(transitions),
                      frozenset(("h", s) for s in a.initials),
                      frozenset(("h", s) for s in a.accepting))


def inverse_letter_hom(a: Nfa, hom: Mapping[Letter, Letter],
                       domain: Iterable[Letter]) -> Nfa:
    """Pull the language back along a letter-to-letter map.

    The result accepts a word over ``domain`` exactly when its image
    letter by letter is accepted by ``a``.  Transitions are relabelled in
    place; epsilon edges are kept.
    """
    alphabet = check_alphabet(domain)
    preimages: dict = {}
    for d in alphabet:
        if d not in hom:
            raise ValueError(f"letter map is missing domain letter {d.name!r}")
        x = hom[d]
        if x not in a.alphabet:
            raise ValueError(f"letter map sends {d.name!r} to {x.name!r} outside the automaton alphabet")
        preimages.setdefault(x, []).append(d)
    transitions = set()
    for (p, label, q) in a.transitions:
        if label is None:
            transitions.add((p, None, q))
        else:
            for d in preimages.get(label, ()):
                transitions.add((p, d, q))
    return Nfa._built(alphabet, a.states, frozenset(transitions), a.initials, a.accepting)


def _all_words_except(word: Word, alphabet: tuple[Letter, ...]) -> Nfa:
    """Total DFA over ``alphabet`` rejecting exactly ``word``: state ``i``
    has read the first ``i`` letters of ``word``, ``div`` anything else."""
    n = len(word)

    def moves(i):
        for x in alphabet:
            yield x, i + 1 if i != "div" and i < n and x == word[i] else "div"

    return explore(alphabet, [0], moves, lambda i: i != n)


def subtract_word(a: Nfa, word: Word) -> Nfa:
    """Automaton for the language of ``a`` with one word removed."""
    alphabet = merge_alphabets(a.alphabet, check_alphabet(dict.fromkeys(word)))
    return intersect(a, _all_words_except(word, alphabet))


def finite_language(words: Iterable[Word], alphabet: Optional[Iterable[Letter]] = None) -> Nfa:
    """Automaton accepting exactly the given finite set of words: their
    prefix tree, each state the prefix read so far."""
    words = dict.fromkeys(tuple(w) for w in words)
    alphabet = check_alphabet(merge_alphabets(*words) if alphabet is None else alphabet)
    _check_labels(merge_alphabets(*words), alphabet)
    children: dict = {}
    for w in words:
        for k, x in enumerate(w):
            children.setdefault(w[:k], set()).add((x, w[:k + 1]))
    return explore(alphabet, [EPSILON], lambda p: children.get(p, ()), words.__contains__)

