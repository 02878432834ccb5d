import gc
import itertools
import json
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from epicdemo import groups, wordproblem
from epicdemo.automata import EPSILON, Letter, Nfa, finite_language, make_word
from epicdemo.demonstrations import builtin_demo, z_demo, zk_demo
from epicdemo.errors import InputContradictionError
from epicdemo.groups import FreeAbelianOracle, PermutationOracle
from epicdemo.wordproblem import (
    BUDGET_EXCEEDED,
    IN_WP,
    NOT_IN_WP,
    Enumerator,
    Frontier,
    Presentation,
    _join,
    coword_demo_from_wp,
    decide_word,
    demonstration_enumerator,
    formal_inverse,
    free_reduce,
    language_enumerator,
    normal_closure_enumerator,
    replay,
)

from oracles import PairwiseContradiction, _inverse_name, _reduce_names, ascii_evaluate, \
    pairwise_decide_word, spelled_closure_enumerator, words_upto
from test_groups import oracles, s3_oracle


FRESH = itertools.count()
PAIRED = st.sampled_from([Letter(n) for n in ("a", "a^-1", "b", "b^-1")])


def slow_reduce(word):
    """Rescan from the left after every single cancellation."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i].name, word[i + 1].name
            if a == b + "^-1" or b == a + "^-1":
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


class TestFreeReduce:
    def test_inverse_pair_cancels(self):
        assert free_reduce(make_word("a", "a^-1")) == EPSILON

    def test_inner_cancellation_cascades(self):
        assert free_reduce(make_word("a", "b", "b^-1", "a")) == make_word("a", "a")

    @given(st.lists(PAIRED, max_size=10))
    def test_strategies_agree(self, letters):
        word = tuple(letters)
        assert free_reduce(word) == slow_reduce(word)

    @given(st.lists(PAIRED, max_size=10))
    def test_idempotent_and_no_longer(self, letters):
        word = tuple(letters)
        reduced = free_reduce(word)
        assert free_reduce(reduced) == reduced
        assert len(reduced) <= len(word)

    @given(st.lists(PAIRED, max_size=8))
    def test_formal_inverse_cancels(self, letters):
        word = tuple(letters)
        assert free_reduce(word + formal_inverse(word)) == EPSILON

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.lists(st.tuples(st.integers(0, k - 1), st.booleans()), max_size=12)))
    def test_matches_name_reference_on_fresh_letters(self, draws):
        """Letters named afresh for each example miss the inverse table on
        the first call and hit it on the second; both calls must agree with
        the reduction of the names, and inverses must be letters."""
        base = f"fresh{next(FRESH)}"
        word = tuple(Letter(f"{base}_{i}" + ("^-1" if inverted else "")) for i, inverted in draws)
        assert not any(x in groups._INVERSE for x in word)
        names = tuple(x.name for x in word)
        for _ in range(2):
            assert free_reduce(word) == _reduce_names(names)
            inverse = formal_inverse(word)
            assert inverse == tuple(map(_inverse_name, reversed(names)))
            assert all(type(x) is Letter for x in inverse)
        assert all(x in groups._INVERSE for x in word)

    @given(st.lists(PAIRED, max_size=8), st.lists(PAIRED, max_size=8))
    def test_seam_join_of_reduced_words(self, left, right):
        r, t = free_reduce(tuple(left)), free_reduce(tuple(right))
        assert _join(r, t) == free_reduce(r + t)
        assert _join(r, formal_inverse(r)) == EPSILON

    def test_bare_marker_has_no_inverse(self):
        # the letter "^-1" would pair with the empty name, which is no letter
        for f in (formal_inverse, free_reduce):
            with pytest.raises(ValueError, match="non-empty"):
                f(make_word("^-1"))

    def test_alphabet_guard(self):
        with pytest.raises(ValueError, match="'b' is outside the alphabet"):
            Presentation(("a",), (make_word("a", "b"),))


class TestPresentation:
    def test_alphabet_interleaves_inverses(self):
        p = Presentation(("a", "b"), ())
        assert [x.name for x in p.alphabet] == ["a", "a^-1", "b", "b^-1"]

    def test_relators_stored_reduced(self):
        p = Presentation(("a",), (make_word("a", "a", "a^-1"),))
        assert p.relators == (make_word("a"),)

    def test_trivial_relators_dropped(self):
        p = Presentation(("a",), (make_word("a", "a^-1"),))
        assert p.relators == ()

    def test_foreign_relator_letter_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (make_word("b"),))

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a", "a"), ())

    def test_inverse_marked_generator_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a^-1",), ())


class TestEnumerator:
    def test_get_and_next_agree(self):
        e = Enumerator([make_word("a"), make_word("b")])
        assert e.get(1) == make_word("b")
        assert e.get(0) == make_word("a")
        assert e.get(2) is None

    def test_finite_exhaustion_returns_none(self):
        e = Enumerator(iter([]))
        assert e.get(0) is None
        assert e.get(7) is None

    def test_mixed_pulls_agree_with_list(self):
        words = [make_word(*w.split()) for w in ("a", "b", "a b", "b a", "a a b", "b^-1")]
        words.append(EPSILON)
        e = Enumerator(iter(words))
        # one-index pulls, a forward jump, pulls past the end, earlier reads
        order = [0, 1, 2, 5, 3, 6, 7, 6, 9, 0, 4, 8, 6]
        assert [e.get(i) for i in order] == \
            [words[i] if i < len(words) else None for i in order]

    def test_raising_pull_breaks_the_stream(self):
        """A generator that raised would report an end at the next pull; a
        broken stream raises there instead and keeps the words it had."""
        def interrupted():
            yield make_word("a")
            raise KeyboardInterrupt

        e = Enumerator(interrupted())
        assert e.get(0) == make_word("a") and not e.broken
        with pytest.raises(KeyboardInterrupt):
            e.get(1)
        assert e.broken
        with pytest.raises(RuntimeError, match="broke pulling word 1"):
            e.get(1)
        assert e.get(0) == make_word("a")

    def test_streams_kept_on_their_sources_make_no_cycle(self):
        """A presentation and a demonstration may keep their own streams:
        neither stream refers back, so dropping the source frees both."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            for make, build in ((commutator_presentation, normal_closure_enumerator),
                                (lambda: zk_demo(2), demonstration_enumerator)):
                source = make()
                vars(source)["stream"] = build(source)
                assert vars(source)["stream"].get(20) is not None
                gone = weakref.ref(source)
                del source
                assert gone() is None
        finally:
            if collecting:
                gc.enable()


class TestStreamsReduceOnce:
    """Each stream reduces a word once for its lifetime, so a decide_word
    call reduces its own target and only the stream words no earlier call
    on the same streams reached."""

    @staticmethod
    def streams():
        # the closure words are listed up front, so only the streams reduce them
        return (demonstration_enumerator(zk_demo(2)),
                Enumerator(closure_prefix(commutator_presentation(), 1200)))

    @staticmethod
    def counted(monkeypatch) -> list:
        reduced = []
        real = wordproblem.free_reduce

        def counting(word):
            reduced.append(word)
            return real(word)

        monkeypatch.setattr(wordproblem, "free_reduce", counting)
        return reduced

    @staticmethod
    def pulled(language, closure) -> int:
        return len(language._cache) + len(closure._cache)

    def test_fresh_streams_reduce_each_word_once(self, monkeypatch):
        language, closure = self.streams()
        reduced = self.counted(monkeypatch)
        verdict = decide_word(make_word(*"a b a^-1 b^-1 a b a^-1 b^-1".split()),
                              language, closure, 10**6)
        assert (verdict.kind, verdict.certificate["index"]) == (IN_WP, 971)
        assert len(reduced) == 1 + self.pulled(language, closure)

    def test_later_calls_reduce_their_target_and_new_words(self, monkeypatch):
        language, closure = self.streams()
        word = make_word("a", "b")
        first = decide_word(word, language, closure, 10**6)
        reduced = self.counted(monkeypatch)
        assert decide_word(word, language, closure, 10**6) == first
        assert reduced == [word]
        # a deeper word, in budget cuts resumed on the same streams
        deep = make_word(*"a b a^-1 b^-1 a b a^-1 b^-1".split())
        before, calls, frontier = self.pulled(language, closure), 0, None
        reduced.clear()
        while True:
            verdict = decide_word(deep, language, closure, 50_000, frontier)
            calls += 1
            if verdict.kind != BUDGET_EXCEEDED:
                break
            frontier = verdict.frontier
        assert verdict.kind == IN_WP and calls > 1
        assert len(reduced) == calls + self.pulled(language, closure) - before


def commutator_presentation():
    return Presentation(("a", "b"), (make_word("a", "b", "a^-1", "b^-1"),))


def closure_prefix(p, n):
    """The first n words of the closure stream, fewer if it ends."""
    e = normal_closure_enumerator(p)
    return list(itertools.takewhile(lambda w: w is not None, map(e.get, range(n))))


class TestNormalClosure:
    def test_empty_word_first(self):
        e = normal_closure_enumerator(commutator_presentation())
        assert e.get(0) == EPSILON

    def test_relator_appears_early(self):
        e = normal_closure_enumerator(commutator_presentation())
        relator = make_word("a", "b", "a^-1", "b^-1")
        hits = [i for i in range(10_000) if e.get(i) == relator]
        assert hits and hits[0] <= 10_000
        # regression pin: the first nonempty product is the bare relator
        assert hits[0] == 1

    def test_trivial_group_emits_generator(self):
        e = normal_closure_enumerator(Presentation(("a",), (make_word("a"),)))
        assert make_word("a") in [e.get(i) for i in range(100)]

    def test_no_relators_enumerates_only_identity(self):
        e = normal_closure_enumerator(Presentation(("a",), ()))
        assert e.get(0) == EPSILON
        assert e.get(1) is None
        assert e.get(50) is None

    def test_emissions_are_reduced(self):
        e = normal_closure_enumerator(commutator_presentation())
        for i in range(200):
            w = e.get(i)
            assert free_reduce(w) == w

    @pytest.mark.parametrize("relators", [
        [("a", "b", "a^-1", "b^-1")],
        [("a", "a"), ("b", "b"), ("a", "b", "a", "b", "a", "b")],
    ], ids=["plane", "s3"])
    def test_matches_spelled_reference(self, relators):
        p = Presentation(("a", "b"), tuple(make_word(*r) for r in relators))
        assert closure_prefix(p, 20_000) == list(
            itertools.islice(spelled_closure_enumerator(p), 20_000))

    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.lists(PAIRED, min_size=1, max_size=4), min_size=1, max_size=2))
    def test_drawn_presentations_match_spelled_reference(self, relators):
        p = Presentation(("a", "b"), tuple(tuple(r) for r in relators))
        assert closure_prefix(p, 20_000) == list(
            itertools.islice(spelled_closure_enumerator(p), 20_000))

    def test_abelianization_vanishes(self):
        # every closure element of <a,b | [a,b]> has zero exponent sums
        e = normal_closure_enumerator(commutator_presentation())
        for i in range(300):
            w = e.get(i)
            for base in ("a", "b"):
                total = sum(+1 if x.name == base else -1
                            for x in w if x.name in (base, base + "^-1"))
                assert total == 0


class TestLanguageEnumerator:
    def test_z_demo_prefix(self):
        e = language_enumerator(z_demo().language)
        assert [e.get(i) for i in range(4)] == [
            make_word("a"), make_word("a^-1"),
            make_word("a", "a"), make_word("a^-1", "a^-1")]
        # the stream goes on: the 1000th word is a^500 or a^-500
        assert len(e.get(999)) == 500

    def test_prefix_matches_bounded_enumeration(self):
        lang = zk_demo(2).language
        e = language_enumerator(lang)
        first = [e.get(i) for i in range(100)]
        bounded = lang.enumerate_words(60)
        assert bounded[:100] == first

    def test_empty_language_is_finite_empty(self):
        a = Letter("a")
        lang = Nfa((a,), frozenset({0, 1}), frozenset({(0, a, 0)}),
                   frozenset({0}), frozenset({1}))
        e = language_enumerator(lang)
        assert e.get(0) is None
        assert e.get(5) is None

    def test_finite_language_stream_ends(self):
        words = [make_word("a"), make_word("b", "a")]
        e = language_enumerator(finite_language(words))
        assert [e.get(i) for i in range(3)] == [
            make_word("a"), make_word("b", "a"), None]

    def test_epsilon_loop_is_not_a_pump(self):
        a = Letter("a")
        lang = Nfa((a,), frozenset({0, 1}),
                   frozenset({(0, None, 0), (0, a, 1)}),
                   frozenset({0}), frozenset({1}))
        e = language_enumerator(lang)
        assert [e.get(i) for i in range(2)] == [make_word("a"), None]
        assert e.get(10) is None


class TestCowordStream:
    def test_z_prefix_skips_cancelling_words(self):
        e = coword_demo_from_wp(FreeAbelianOracle(1, {Letter("a"): (1,),
                                                      Letter("a^-1"): (-1,)}))
        assert [e.get(i) for i in range(4)] == [
            make_word("a"), make_word("a^-1"),
            make_word("a", "a"), make_word("a^-1", "a^-1")]

    def test_s3_starts_with_nonidentity_letters(self):
        oracle = s3_oracle()
        e = coword_demo_from_wp(oracle)
        first = [e.get(i) for i in range(len(oracle.alphabet))]
        assert first == [(x,) for x in oracle.alphabet]

    def test_trivial_group_stream_is_finite_and_empty(self):
        e = coword_demo_from_wp(PermutationOracle(1, {}))
        assert e.get(0) is None
        assert e.get(3) is None

    @pytest.mark.parametrize("oracle", [
        FreeAbelianOracle(1, {Letter("z"): (0,)}),
        PermutationOracle(2, {Letter("e"): (0, 1)}),
    ], ids=["zero-vector", "identity-permutation"])
    def test_generators_all_identity_give_empty_stream(self, oracle):
        # every word spells the identity, so the stream is empty
        e = coword_demo_from_wp(oracle)
        assert e.get(0) is None

    def test_prefix_covers_small_ball(self):
        oracle = FreeAbelianOracle(2, {Letter("a"): (1, 0), Letter("a^-1"): (-1, 0),
                                       Letter("b"): (0, 1), Letter("b^-1"): (0, -1)})
        e = coword_demo_from_wp(oracle)
        seen = {oracle.evaluate(e.get(i)) for i in range(500)}
        wanted = set(oracle.ball(3)) - {oracle.identity_key}
        assert wanted <= seen

    @settings(deadline=None, max_examples=100)
    @given(oracles())
    def test_matches_wordwise_reference(self, o):
        # every word up to a length at which the sweep stays small
        length = max(n for n in range(5) if len(o.alphabet) ** n <= 300)
        identity = ascii_evaluate(o, ())
        expected = [w for w in words_upto(o.alphabet, length) if ascii_evaluate(o, w) != identity]
        e = coword_demo_from_wp(o)
        assert [e.get(i) for i in range(len(expected))] == expected

    def test_first_ten_thousand_avoid_identity(self):
        oracle = FreeAbelianOracle(1, {Letter("a"): (1,), Letter("a^-1"): (-1,)})
        e = coword_demo_from_wp(oracle)
        for i in range(10_000):
            assert not oracle.is_identity(e.get(i))


def zk2_streams():
    demo = zk_demo(2)
    return demonstration_enumerator(demo), normal_closure_enumerator(commutator_presentation())


class TestDecideWord:
    def test_relator_is_in_wp(self):
        language, closure = zk2_streams()
        verdict = decide_word(make_word("a", "b", "a^-1", "b^-1"),
                              language, closure, 1_000_000)
        assert verdict.kind == IN_WP
        assert replay(make_word("a", "b", "a^-1", "b^-1"),
                      *zk2_streams()[::1], verdict.certificate)

    def test_ab_is_not_in_wp(self):
        language, closure = zk2_streams()
        verdict = decide_word(make_word("a", "b"), language, closure, 1_000_000)
        assert verdict.kind == NOT_IN_WP
        cert = verdict.certificate
        # pin the least certificate: "a b" itself sits at language index 5
        assert (cert["language_index"], cert["closure_index"]) == (5, 0)
        assert cert["language_word"] == "a b"
        fresh_language, fresh_closure = zk2_streams()
        assert replay(make_word("a", "b"), fresh_language, fresh_closure, cert)

    def test_empty_word_immediate(self):
        language, closure = zk2_streams()
        verdict = decide_word(EPSILON, language, closure, 10)
        assert verdict.kind == IN_WP
        assert verdict.certificate["index"] == 0
        # iteration 0 still finishes its pair comparison before returning
        assert verdict.comparisons == 2

    def test_budget_one_resumes_to_same_answer(self):
        reference = decide_word(make_word("a", "b"), *zk2_streams(), budget=1_000_000)
        language, closure = zk2_streams()
        frontier = None
        for _ in range(10_000):
            verdict = decide_word(make_word("a", "b"), language, closure, 1,
                                  frontier=frontier)
            if verdict.kind != BUDGET_EXCEEDED:
                break
            frontier = verdict.frontier
        assert verdict.kind == reference.kind == NOT_IN_WP
        assert verdict.certificate == reference.certificate
        assert verdict.comparisons == reference.comparisons

    def test_frontier_json_round_trip(self):
        language, closure = zk2_streams()
        verdict = decide_word(make_word("a", "b"), language, closure, 7)
        assert verdict.kind == BUDGET_EXCEEDED
        revived = Frontier.from_json(verdict.frontier.to_json())
        assert revived == verdict.frontier
        resumed = decide_word(make_word("a", "b"), language, closure,
                              1_000_000, frontier=revived)
        assert resumed.kind == NOT_IN_WP

    def test_frontier_for_other_word_rejected(self):
        language, closure = zk2_streams()
        verdict = decide_word(make_word("a", "b"), language, closure, 3)
        with pytest.raises(ValueError, match="recorded for"):
            decide_word(make_word("b", "a"), language, closure, 3,
                        frontier=verdict.frontier)

    def test_contradictory_streams_diagnosed(self):
        commutator = make_word("a", "b", "a^-1", "b^-1")
        # a "language" stream that contains a word-problem word
        lying = Enumerator([make_word("a"), commutator])
        closure = normal_closure_enumerator(commutator_presentation())
        with pytest.raises(InputContradictionError):
            decide_word(commutator, lying, closure, 1_000_000)

    def test_both_streams_exhausted_stalls(self):
        language = language_enumerator(finite_language([], alphabet=(Letter("a"),)))
        closure = normal_closure_enumerator(Presentation(("a",), ()))
        verdict = decide_word(make_word("a"), language, closure, 1_000_000)
        assert verdict.kind == BUDGET_EXCEEDED
        assert verdict.stalled
        assert verdict.comparisons == 1  # reduce(eps) against "a" was the only test

    def test_empty_closure_stream_stalls(self):
        # an endless language stream has no closure word to be compared with
        for frontier in (None, Frontier(word="a", iteration=3)):
            verdict = decide_word(make_word("a"), demonstration_enumerator(zk_demo(2)),
                                  Enumerator([]), 1_000_000, frontier)
            assert (verdict.kind, verdict.stalled, verdict.comparisons) == (
                BUDGET_EXCEEDED, True, 0)
            assert verdict.frontier.iteration == (frontier.iteration if frontier else 0) + 1

    def test_free_group_membership_without_language(self):
        # no relators: closure is just eps, so reduced-trivial words resolve
        language = language_enumerator(finite_language([], alphabet=(Letter("a"),)))
        closure = normal_closure_enumerator(Presentation(("a",), ()))
        verdict = decide_word(make_word("a", "a^-1"), language, closure, 100)
        assert verdict.kind == IN_WP

    def test_tampered_certificate_fails_replay(self):
        language, closure = zk2_streams()
        verdict = decide_word(make_word("a", "b"), language, closure, 1_000_000)
        bad = dict(verdict.certificate)
        bad["language_index"] = bad["language_index"] + 1
        fresh_language, fresh_closure = zk2_streams()
        assert not replay(make_word("a", "b"), fresh_language, fresh_closure, bad)


LETTER_NAMES = ("a", "a^-1", "b", "b^-1")
DEMOS = {"ZK2": zk_demo(2), "FREE2": builtin_demo("free(2)")}


def words(min_size, max_size):
    return st.lists(st.sampled_from(LETTER_NAMES), min_size=min_size,
                    max_size=max_size).map(lambda names: make_word(*names))


@st.composite
def decide_cases(draw):
    """A presentation over a b, a language and a word, plus a budget: a
    small one cuts inside segments, a large one lets whole segments pass
    uncut."""
    relators = draw(st.lists(words(1, 4), max_size=2))
    source = draw(st.sampled_from(["ZK2", "FREE2", "list"]))
    listed = None
    if source == "list":
        listed = draw(st.lists(words(0, 3), max_size=4))
        if relators and draw(st.booleans()):
            listed.insert(draw(st.integers(0, len(listed))), draw(st.sampled_from(relators)))
    pool = words(0, 4) | st.sampled_from(relators) if relators else words(0, 4)
    budgets = st.integers(1, 20) | st.integers(100, 600)
    return relators, source, listed, draw(pool), draw(budgets)


class TestIndexedScanMatchesPairwise:
    @settings(deadline=None, max_examples=150)
    @given(decide_cases())
    def test_every_budget_cut_agrees(self, case):
        relators, source, listed, word, budget = case
        presentation = Presentation(("a", "b"), tuple(relators))

        def streams():
            if listed is None:
                language = demonstration_enumerator(DEMOS[source])
            else:
                language = Enumerator(listed)
            return language, normal_closure_enumerator(presentation)

        # the reference keeps its streams; every resumed run starts fresh ones
        reference_streams = streams()
        frontier = reference_frontier = None
        for _ in range(1000):
            if frontier is not None and frontier.iteration >= 25:
                return
            try:
                got = decide_word(word, *streams(), budget, frontier)
            except InputContradictionError as e:
                with pytest.raises(PairwiseContradiction) as expected:
                    pairwise_decide_word(word, *reference_streams, budget, reference_frontier)
                first_in, first_out = expected.value.args
                assert f"{first_in} versus {first_out}" in str(e)
                return
            kind, certificate, reference_frontier, comparisons, stalled = \
                pairwise_decide_word(word, *reference_streams, budget, reference_frontier)
            text = got.frontier and got.frontier.to_json()
            expected_text = reference_frontier and json.dumps(reference_frontier, sort_keys=True)
            assert (got.kind, got.certificate, got.comparisons, got.stalled, text) == (
                kind, certificate, comparisons, stalled, expected_text)
            if got.kind != BUDGET_EXCEEDED or got.stalled:
                return
            frontier, reference_frontier = Frontier.from_json(text), json.loads(text)
        pytest.fail("resumed runs made no progress")


@st.composite
def shared_call_sequences(draw):
    """A presentation over a b, a language, a few words and a sequence of
    decide calls on them in drawn order: each call has a small budget and
    may resume from the frontier the last call on its word wrote.  The
    words run from short ones to conjugates of relators, which sit deeper
    in the closure stream."""
    relators = draw(st.lists(words(1, 4), max_size=2))
    source = draw(st.sampled_from(["ZK2", "FREE2", "list"]))
    listed = None
    if source == "list":
        listed = draw(st.lists(words(0, 3), max_size=4))
        if relators and draw(st.booleans()):
            listed.insert(draw(st.integers(0, len(listed))), draw(st.sampled_from(relators)))
    pool = words(0, 5)
    if relators:
        conjugates = st.tuples(words(0, 2), st.sampled_from(relators)).map(
            lambda ur: ur[0] + ur[1] + formal_inverse(ur[0]))
        pool = pool | st.sampled_from(relators) | conjugates
    texts = draw(st.lists(pool, min_size=1, max_size=4))
    calls = draw(st.lists(st.tuples(st.integers(0, len(texts) - 1),
                                    st.integers(1, 30) | st.integers(100, 400),
                                    st.booleans()), min_size=1, max_size=10))
    # a finite closure stream of unreduced words, empty or not, or the
    # presentation's own
    closure = draw(st.none() | st.lists(words(0, 4), max_size=6))
    return relators, source, listed, closure, texts, calls


class TestSharedStreams:
    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(shared_call_sequences())
    def test_calls_on_one_pair_of_streams_agree_with_fresh_ones(self, case):
        """One pair of streams serves every call, as the CLI serves every
        ``wp decide`` on one presentation and demonstration; each call gives
        what it gives on fresh streams and what the pairwise scan gives."""
        relators, source, listed, closure, texts, calls = case
        presentation = Presentation(("a", "b"), tuple(relators))

        def streams():
            if listed is None:
                language = demonstration_enumerator(DEMOS[source])
            else:
                language = Enumerator(listed)
            if closure is None:
                return language, normal_closure_enumerator(presentation)
            return language, Enumerator(closure)

        def outcome(verdict):
            frontier = verdict.frontier and verdict.frontier.to_json()
            return (verdict.kind, verdict.certificate, verdict.comparisons, verdict.stalled,
                    frontier)

        shared = streams()
        written = {}  # word index -> the frontier JSON the last call on it wrote
        for at, budget, resume in calls:
            word = texts[at]
            text = written.get(at) if resume else None
            frontier = text and Frontier.from_json(text)  # decide_word does not change it
            try:
                got = decide_word(word, *shared, budget, frontier)
            except InputContradictionError as e:
                with pytest.raises(InputContradictionError, match=re.escape(str(e))):
                    decide_word(word, *streams(), budget, frontier)
                with pytest.raises(PairwiseContradiction):
                    pairwise_decide_word(word, *streams(), budget, text and json.loads(text))
                continue
            kind, certificate, reference, comparisons, stalled = pairwise_decide_word(
                word, *streams(), budget, text and json.loads(text))
            expected = (kind, certificate, comparisons, stalled,
                        reference and json.dumps(reference, sort_keys=True))
            assert outcome(got) == outcome(decide_word(word, *streams(), budget, frontier)) \
                == expected
            if got.frontier is not None:
                written[at] = got.frontier.to_json()


class TestDeepCertificate:
    def test_index_2927_membership(self):
        # pinned from the pairwise scan, which needed minutes to get here
        word = make_word("a", "a", "b", "a^-1", "a^-1", "b^-1")
        verdict = decide_word(word, *zk2_streams(), 10**7)
        assert verdict.kind == IN_WP
        assert verdict.certificate["index"] == 2927
        assert verdict.comparisons == 8_576_112


class TestDemonstrationEnumerator:
    def test_translates_through_eval_map(self):
        oracle = PermutationOracle(3, {Letter("t"): (1, 0, 2)})
        from epicdemo.demonstrations import Demonstration
        lang = finite_language([make_word("u")])
        demo = Demonstration(oracle, {Letter("u"): (Letter("t"),)}, lang)
        e = demonstration_enumerator(demo)
        assert e.get(0) == (Letter("t"),)
        assert e.get(1) is None
        assert e.get(4) is None
