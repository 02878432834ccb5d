"""Semi-decision machinery for the word problem.

A presentation yields an enumerator of its word problem (reduced spellings
of normal-closure elements); a demonstration language yields an enumerator
of witnesses for non-triviality.  Dovetailing the two streams decides
membership in the word problem one free-group comparison at a time, with a
serializable frontier so interrupted runs resume where they left off.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .automata import EPSILON, Letter, Nfa, Word, format_word, walk
from .demonstrations import spell
from .errors import InputContradictionError
from .groups import _INVERSE, GroupOracle, formal_inverse, free_reduce, paired_letters

IN_WP = "in_wp"
NOT_IN_WP = "not_in_wp"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Presentation:
    """A finite presentation over positive generator names.

    Relators are stored freely reduced; relators that reduce to the empty
    word are dropped since they add nothing to the normal closure.
    """

    names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise ValueError("presentation needs at least one generator")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator name")
        object.__setattr__(self, "names", names)
        allowed = paired_letters(names)
        reduced = []
        for r in self.relators:
            for x in r:
                if x not in allowed:
                    raise ValueError(f"letter {x.name!r} is outside the alphabet")
            r = free_reduce(tuple(r))
            if r:
                reduced.append(r)
        object.__setattr__(self, "relators", tuple(reduced))

    @cached_property
    def alphabet(self) -> tuple[Letter, ...]:
        return paired_letters(self.names)


# -- enumerators ---------------------------------------------------------


class Enumerator:
    """Deterministic indexed stream of words.

    The i-th emission is a function of i alone, so independently built
    copies agree index by index; certificates that cite indices stay
    replayable.  The stream's end is the only finiteness signal: ``get``
    reports ``None`` past the last word of a stream that ends.

    ``reduced`` reduces each word once for the stream's lifetime and
    files it in ``at``, a map from reduced word to its ascending indices,
    in index order; a word already reduced is kept, not copied.

    A pull that raises breaks the stream.  A generator that has raised
    ends at every later pull, an end the stream never reached, so past
    the words pulled before, ``get`` on a broken stream raises instead,
    and ``broken`` tells whoever keeps the stream to build a new one.
    """

    def __init__(self, words: Iterable[Word]):
        self._iter = iter(words)
        self._cache: list[Word] = []
        self._reduced: list[Word] = []
        self.at: dict[Word, list[int]] = {}
        self.broken = False

    def get(self, i: int) -> Optional[Word]:
        if i < 0:
            raise IndexError(i)
        cache = self._cache
        while len(cache) <= i:  # one pull per missing index
            if self.broken:
                raise RuntimeError(f"stream broke pulling word {len(cache)}")
            try:
                w = next(self._iter, None)
            except BaseException:
                self.broken = True
                raise
            if w is None:
                return None
            cache.append(w)
        return cache[i]

    def reduced(self, i: int) -> Optional[Word]:
        """Word i freely reduced, words 0..i all filed; None past the end."""
        done = self._reduced
        while len(done) <= i:
            w = self.get(len(done))
            if w is None:
                return None
            r = free_reduce(w)
            done.append(w if len(r) == len(w) else r)
            self.at.setdefault(done[-1], []).append(len(done) - 1)
        return done[i]

    def existing(self, n: int) -> int:
        """How many of the words 0..n-1 exist, each reduced and filed."""
        return n if n == 0 or self.reduced(n - 1) is not None else len(self._reduced)


def normal_closure_enumerator(p: Presentation) -> Enumerator:
    """Reduced spellings of normal-closure elements, dovetailed by size.

    Products prod u_i r_i^(+-1) u_i^-1 are visited by increasing total
    size m + sum |u_i| + sum |r_i|, then by factor count, then factorwise
    by (relator index, sign, conjugator) with conjugators in length-lex
    order.  Every element of the closure appears at some index; duplicate
    spellings are permitted.  The empty product puts the empty word at
    index 0.
    """
    if not p.relators:
        return Enumerator([EPSILON])
    alphabet = p.alphabet
    relators = p.relators
    inverses = tuple(formal_inverse(r) for r in relators)
    heads = tuple(1 + len(r) for r in relators)  # a conjugate costs its head plus |u|
    min_cost = min(heads)
    # conjugates[n][ri][0 or 1]: the words u r u^-1 or u r^-1 u^-1 for
    # the relator r at index ri and every reduced u of length n, length-lex
    conjugates: list[list[tuple[list[Word], list[Word]]]] = []
    level: list[Word] = [EPSILON]  # the reduced words of the last length built

    def conjugates_of(n: int) -> list[tuple[list[Word], list[Word]]]:
        nonlocal level
        while len(conjugates) <= n:
            if conjugates:
                level = [u + (x,) for u in level for x in alphabet
                         if not u or u[-1] != _INVERSE[x]]
            sides = [(u, formal_inverse(u)) for u in level]  # one inverse per conjugator
            conjugates.append([tuple([u + s + v for u, v in sides]
                                     for s in pair) for pair in zip(relators, inverses)])
        return conjugates[n]

    def stream() -> Iterator[Word]:
        yield EPSILON
        for total in count(min_cost):
            for m in range(1, total // min_cost + 1):
                for factors in _factor_sequences(heads, min_cost, conjugates_of, total, m):
                    yield free_reduce(sum(factors, EPSILON))

    return Enumerator(stream())


def _factor_sequences(heads: tuple, min_cost: int, table: Callable, total: int,
                      m: int) -> Iterator[tuple]:
    """The ``m``-tuples of conjugates ``table(u_len)[ri][sign]`` of total
    size ``total``, a conjugate of relator ``ri`` costing ``heads[ri] +
    u_len`` and every factor at least ``min_cost``, in dovetailing order."""
    if m == 0:
        if total == 0:
            yield ()
        return
    tail_min = (m - 1) * min_cost
    for ri, head in enumerate(heads):
        room = total - head - tail_min
        if room < 0:
            continue
        for sign in (0, 1):
            for u_len in range(room + 1):
                for w in table(u_len)[ri][sign]:
                    for rest in _factor_sequences(heads, min_cost, table,
                                                  total - head - u_len, m - 1):
                        yield (w,) + rest


def language_enumerator(a: Nfa) -> Enumerator:
    """Accepted words in length-lex order.

    The stream ends exactly when the language is finite, since the walk
    extends only prefixes that can still accept; that end is the only
    finiteness signal.
    """
    return Enumerator(a.words())


def demonstration_enumerator(demo) -> Enumerator:
    """Oracle-alphabet spellings of a demonstration language.

    Emission order follows the language words length-lex; each is pushed
    through the demonstration's evaluation map before comparison in the
    free group.  The stream ends when the language is finite.  It holds
    the evaluation map and the language, not the demonstration, so a
    demonstration can keep its own stream without a reference cycle.
    """
    return Enumerator(map(partial(spell, demo.eval_map), demo.language.words()))


def coword_demo_from_wp(oracle: GroupOracle) -> Enumerator:
    """All non-identity words over the oracle alphabet, length-lex.

    Filtration against a terminating identity test: every word is
    generated and the identity words are dropped, leaving a stream whose
    evaluation image is exactly the non-identity elements.  When every
    generator is the identity (an empty alphabet included) the group is
    trivial and the stream is empty.
    """
    identity = oracle.identity_key
    if all(oracle.is_identity((x,)) for x in oracle.alphabet):
        return Enumerator(())
    nodes = walk(oracle.alphabet, oracle.start(), lambda state, x, n: oracle.act(state, x))
    return Enumerator(w for w, state in nodes if oracle.key(state) != identity)


# -- the decision loop ---------------------------------------------------


@dataclass
class Frontier:
    """Checkpoint between comparisons; JSON round-trips for resumption."""

    word: str
    iteration: int = 0
    cursor: int = 0
    pending: list = field(default_factory=list)
    comparisons: int = 0

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Frontier":
        """Parse a checkpoint; ValueError unless it is one to_json could write."""
        raw = json.loads(text)
        keys = ("word", "iteration", "cursor", "pending", "comparisons")
        if not isinstance(raw, dict):
            raise ValueError("frontier must be a JSON object")
        missing = [k for k in keys if k not in raw]
        if missing:
            raise ValueError(f"frontier is missing {', '.join(missing)}")
        word, i, cursor, pending, comparisons = (raw[k] for k in keys)
        if not isinstance(word, str):
            raise ValueError("frontier word must be a string")
        if not all(type(v) is int for v in (i, cursor, comparisons)):
            raise ValueError("frontier iteration, cursor and comparisons must be integers")
        if i < 0 or not 0 <= cursor <= 2 * i + 1 or comparisons < 0:
            raise ValueError(f"frontier out of range: iteration {i}, cursor {cursor}, "
                             f"comparisons {comparisons}")
        if not isinstance(pending, list) or not all(_is_certificate(c, i) for c in pending):
            raise ValueError("frontier pending must be a list of certificates")
        return Frontier(word, i, cursor, pending, comparisons)


# the fields of each certificate kind, with their JSON types
_CERTIFICATE_FIELDS = {
    IN_WP: {"index": int, "closure_word": str},
    NOT_IN_WP: {"language_index": int, "closure_index": int,
                "language_word": str, "closure_word": str},
}


def _is_certificate(c, iteration: int) -> bool:
    """True for a certificate decide_word can pend in the given iteration:
    a known kind, exactly its fields with their JSON types, and stream
    indices no later than the iteration."""
    if not isinstance(c, dict) or c.get("kind") not in (IN_WP, NOT_IN_WP):
        return False
    fields = _CERTIFICATE_FIELDS[c["kind"]]
    return c.keys() == {"kind", *fields} and all(
        type(c[k]) is t and (t is str or 0 <= c[k] <= iteration) for k, t in fields.items())


@dataclass(frozen=True)
class WpVerdict:
    """Outcome of a decision run.

    ``stalled`` marks budget verdicts where no comparison is left to
    make, since both streams ended or the closure stream ended with no
    word, so no amount of extra budget can settle the word.
    """

    kind: str
    certificate: Optional[dict]
    frontier: Optional[Frontier]
    comparisons: int
    stalled: bool = False


def decide_word(
    word: Word,
    language: Enumerator,
    closure: Enumerator,
    budget: int,
    frontier: Optional[Frontier] = None,
) -> WpVerdict:
    """Dovetail a demonstration stream against a word-problem stream.

    Iteration i scans 2i + 2 positions in three segments, where j indexes
    the language stream and k the closure stream:

    1. position 0 compares the i-th closure word with the reduced input;
    2. positions 1..i compare the pairs (j, i) for j < i;
    3. positions i+1..2i+1 compare the pairs (i, k) for k <= i.

    A pair (j, k) hits when language_j . word^-1 and closure_k reduce to
    the same word.  Positions whose stream word does not exist are skipped
    without a comparison.  A hit does not cut the iteration short; if both
    directions hit within one iteration the inputs contradict each other
    and the run raises InputContradictionError instead of picking a side.

    Each stream reduces and files its own words once (``Enumerator.at``).
    Within a segment one side is fixed, so its hits are the other side's
    indices filed under a key joined at the seam: segment 2 looks
    closure_i . word up among the language words, segment 3 language_i .
    word^-1 among the closure words.  Finite streams end after a prefix,
    so the number of comparisons is arithmetic.  A segment with no hit
    that fits the budget only adds its count; any other takes a bisect,
    plus one certificate per hit.  An iteration thus costs O(1) lookups
    however many comparisons it counts.

    The budget counts comparisons.  When it runs out the verdict carries
    a frontier; passing that frontier back in resumes mid-iteration.
    Certificates cite stream indices and words, so they can be replayed
    against freshly built enumerators.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    target = free_reduce(tuple(word))
    target_text = format_word(target)
    if frontier is None:
        frontier = Frontier(word=target_text)
    elif frontier.word != target_text:
        raise ValueError(
            f"frontier was recorded for {frontier.word!r}, not {target_text!r}")
    inverse_target = formal_inverse(target)

    i = frontier.iteration
    cursor = frontier.cursor
    pending = [dict(c) for c in frontier.pending]
    total = frontier.comparisons
    limit = total + budget  # the total at which this call's budget runs out

    def checkpoint() -> Frontier:
        return Frontier(word=target_text, iteration=i, cursor=cursor,
                        pending=[dict(c) for c in pending], comparisons=total)

    # a stream's words sit at 0..n-1, so the counts say which indices exist
    closure_count, language_count = closure.existing(i), language.existing(i)

    def scan(first: int, existing: int, hits: list, certify) -> bool:
        """Compare positions first .. first+existing-1 from the cursor on,
        pending a certificate for each hit; True when the budget cuts."""
        nonlocal total, cursor
        lo = max(cursor - first, 0)
        todo = existing - lo
        if todo <= 0:
            return False
        done = min(todo, limit - total)
        for at in hits[bisect_left(hits, lo):bisect_left(hits, lo + done)]:
            pending.append(certify(at))
        total += done
        if todo > done:
            cursor = first + lo + done
            return True
        return False

    while True:
        gw = closure.reduced(i)
        if gw is not None:
            closure_count = i + 1
            hits = language.at.get(_join(gw, target), ())
            if cursor or gw == target or (hits and hits[0] < language_count) \
                    or limit - total <= language_count:
                cut = scan(0, 1, [0] if gw == target else [],
                           lambda _: {"kind": IN_WP, "index": i,
                                      "closure_word": format_word(closure.get(i))})
                cut = cut or scan(1, language_count, hits,
                                  lambda j: {"kind": NOT_IN_WP,
                                             "language_index": j, "closure_index": i,
                                             "language_word": format_word(language.get(j)),
                                             "closure_word": format_word(closure.get(i))})
                if cut:
                    return WpVerdict(BUDGET_EXCEEDED, None, checkpoint(), total)
            else:  # segments 1 and 2 whole, without a hit
                total += 1 + language_count
        fw = language.reduced(i)
        if fw is not None:
            language_count = i + 1
            hits = closure.at.get(_join(fw, inverse_target), ())
            if cursor or (hits and hits[0] < closure_count) or limit - total < closure_count:
                if scan(i + 1, closure_count, hits,
                        lambda k: {"kind": NOT_IN_WP,
                                   "language_index": i, "closure_index": k,
                                   "language_word": format_word(language.get(i)),
                                   "closure_word": format_word(closure.get(k))}):
                    return WpVerdict(BUDGET_EXCEEDED, None, checkpoint(), total)
            else:  # segment 3 whole, without a hit
                total += closure_count
        if pending:
            hits_in = [c for c in pending if c["kind"] == IN_WP]
            hits_out = [c for c in pending if c["kind"] == NOT_IN_WP]
            if hits_in and hits_out:
                raise InputContradictionError(
                    "streams certify both membership and non-membership for "
                    f"{target_text!r}: {hits_in[0]} versus {hits_out[0]}; "
                    "the language stream meets the word problem, so the "
                    "inputs do not describe the same group")
            winner = pending[0]
            return WpVerdict(winner["kind"], winner, None, total)
        # no comparison is left to make once both streams have ended, or the
        # closure stream has ended with no word
        stalled = gw is None and (fw is None or closure_count == 0)
        i += 1
        cursor = 0
        if stalled:
            return WpVerdict(BUDGET_EXCEEDED, None, checkpoint(), total, stalled=True)


def _join(r: Word, t: Word) -> Word:
    """free_reduce(r + t) for reduced r and t: they cancel only at the seam."""
    k, n = 0, min(len(r), len(t))
    while k < n and r[-1 - k] == _INVERSE[t[k]]:
        k += 1
    return r[:len(r) - k] + t[k:]


def replay(word: Word, language: Enumerator, closure: Enumerator,
           certificate: Mapping) -> bool:
    """Recheck a decide_word certificate against fresh streams."""
    target = free_reduce(tuple(word))
    kind = certificate["kind"]
    if kind == IN_WP:
        gw = closure.get(int(certificate["index"]))
        if gw is None or format_word(gw) != certificate["closure_word"]:
            return False
        return free_reduce(gw) == target
    if kind == NOT_IN_WP:
        fw = language.get(int(certificate["language_index"]))
        gw = closure.get(int(certificate["closure_index"]))
        if fw is None or gw is None:
            return False
        if format_word(fw) != certificate["language_word"]:
            return False
        if format_word(gw) != certificate["closure_word"]:
            return False
        return free_reduce(fw + formal_inverse(target)) == free_reduce(gw)
    raise ValueError(f"certificate kind {kind!r} is not replayable")
