import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from epicdemo.automata import EPSILON, Letter, Nfa, finite_language, make_word
from epicdemo.demonstrations import (
    Demonstration,
    builtin_demo,
    finite_demo,
    free_demo,
    identity_eval_map,
    z_demo,
    zk_demo,
)
from epicdemo.groups import PermutationOracle, perm_from_cycles

from oracles import blockwise_zk_demo, unmemoized_pruned_step, wordwise_coverage
from test_groups import oracles, s3_oracle


@st.composite
def demos(draw, oracle=None, names="pqr"):
    """A drawn oracle of any backend (or the given one), an NFA of one to
    four states with epsilon edges over one to three letters (the first of
    ``names``), and an evaluation map whose images have zero to two letters."""
    if oracle is None:
        oracle = draw(oracles())
    letters = [Letter(n) for n in names[:draw(st.integers(min_value=1, max_value=3))]]
    states = list(range(draw(st.integers(min_value=1, max_value=4))))
    transitions = draw(st.lists(st.tuples(st.sampled_from(states),
                                          st.sampled_from(letters + [None]),
                                          st.sampled_from(states)),
                                min_size=len(states), max_size=16))
    initials = draw(st.lists(st.sampled_from(states), min_size=1, max_size=len(states)))
    accepting = draw(st.lists(st.sampled_from(states), min_size=1, max_size=len(states)))
    language = Nfa(tuple(letters), frozenset(states), frozenset(transitions),
                   frozenset(initials), frozenset(accepting))
    images = st.lists(st.sampled_from(oracle.alphabet), max_size=2).map(tuple)
    return Demonstration(oracle, {x: draw(images) for x in letters}, language)


class TestZDemo:
    def test_enumeration_prefix(self):
        d = z_demo()
        assert d.language.enumerate_words(2) == [
            make_word("a"), make_word("a^-1"),
            make_word("a", "a"), make_word("a^-1", "a^-1")]

    def test_never_hits_identity(self):
        assert z_demo().verify_no_identity(12) == []

    def test_total_coverage_at_matching_bounds(self):
        report = z_demo().verify_coverage(12, 12)
        assert report.complete and report.clean
        assert len(report.covered) == 24

    def test_witnesses_are_shortest(self):
        report = z_demo().verify_coverage(5, 5)
        for key, witness in report.covered.items():
            value = key.data[0]
            assert len(witness) == abs(value)


class TestFiniteDemo:
    def test_s3_total_coverage(self):
        d = finite_demo(s3_oracle())
        report = d.verify_coverage(1, 1)
        assert report.complete and report.clean
        assert len(report.covered) == 5

    def test_identity_letter_rejected(self):
        bad = PermutationOracle(3, {
            Letter("t"): perm_from_cycles([[1, 2]], 3),
            Letter("e"): perm_from_cycles([], 3),
        })
        with pytest.raises(ValueError):
            finite_demo(bad)


class TestFreeDemo:
    def test_accepts_only_reduced_words(self):
        d = free_demo(2)
        assert d.language.accepts(make_word("a", "b", "a^-1"))
        assert not d.language.accepts(make_word("a", "a^-1"))
        assert not d.language.accepts(EPSILON)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_accepts_exactly_nonempty_reduced_words(self, rank):
        d = free_demo(rank)
        letters, inverse = d.language.alphabet, d.oracle.inverse_letter
        want = [w for n in range(1, 6) for w in itertools.product(letters, repeat=n)
                if all(y != inverse(x) for x, y in zip(w, w[1:]))]
        assert d.language.enumerate_words(5) == want

    def test_clean_and_complete(self):
        d = free_demo(2)
        assert d.verify_no_identity(6) == []
        report = d.verify_coverage(4, 4)
        assert report.complete and report.clean


class TestZkDemo:
    def test_block_witness(self):
        d = zk_demo(2)
        report = d.verify_coverage(4, 4)
        assert report.complete and report.clean
        key = d.oracle.evaluate(make_word("a", "b^-1"))
        assert report.covered[key] == make_word("a", "b^-1")

    def test_epsilon_removed(self):
        d = zk_demo(2)
        assert not d.language.accepts(EPSILON)
        assert d.verify_no_identity(8) == []

    def test_alphabet_order(self):
        d = zk_demo(3)
        assert [x.name for x in d.language.alphabet] == [
            "a", "a^-1", "b", "b^-1", "c", "c^-1"]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("names", [None, "custom"])
    def test_matches_blockwise_reference(self, rank, names):
        if names:
            names = [f"g{i}" for i in reversed(range(rank))]
        got, want = zk_demo(rank, names), blockwise_zk_demo(rank, names)
        assert got.oracle.alphabet == want.oracle.alphabet
        assert got.language.alphabet == want.language.alphabet
        assert got.eval_map == want.eval_map
        assert got.oracle == want.oracle
        # the bounded prefix first: a wrong automaton may accept far more
        assert list(itertools.islice(got.language.words(), 5000)) == list(
            itertools.islice(want.language.words(), 5000))
        assert list(got.language.words(7)) == list(want.language.words(7))
        assert [got.evaluate(w) for w in got.language.words(4)] == [
            want.evaluate(w) for w in want.language.words(4)]

    def test_one_start_state_and_two_per_generator(self):
        language = zk_demo(3).language
        assert language.initials == {"s"}
        assert len(language.states) == 7

    @pytest.mark.parametrize("names, match", [
        (("a", "a"), "duplicate letter 'a'"), (("a^-1", "b"), "inverse marker")])
    def test_names_must_pair_into_distinct_letters(self, names, match):
        with pytest.raises(ValueError, match=match):
            zk_demo(2, names=names)


class TestEvalMapIndirection:
    def test_letters_can_evaluate_through_words(self):
        # one language letter worth two steps of the oracle generator
        g = Letter("g")
        base = z_demo()
        lang = Nfa((g,), frozenset({0, 1}),
                   frozenset({(0, g, 1), (1, g, 1)}),
                   frozenset({0}), frozenset({1}))
        d = Demonstration(base.oracle, {g: make_word("a", "a")}, lang)
        report = d.verify_coverage(4, 4)
        covered_values = {k.data[0] for k in report.covered}
        assert covered_values == {2, 4}
        missing_values = {k.data[0] for k in report.missing}
        assert missing_values == {-4, -3, -2, -1, 1, 3}

    def test_alphabet_mismatch_rejected(self):
        base = z_demo()
        lang = finite_language([make_word("q")])
        with pytest.raises(ValueError):
            Demonstration(base.oracle, identity_eval_map(base.language.alphabet), lang)

    def test_unknown_oracle_letter_rejected(self):
        base = z_demo()
        g = Letter("g")
        lang = finite_language([(g,)])
        with pytest.raises(ValueError):
            Demonstration(base.oracle, {g: make_word("nope")}, lang)


class TestKeyedWords:
    @settings(deadline=None, max_examples=200)
    @given(demos(), st.lists(st.one_of(st.integers(min_value=0, max_value=5),
                                       st.tuples(st.integers(min_value=0, max_value=40))),
                             min_size=1, max_size=6))
    def test_memoized_walks_match_unmemoized_reference(self, demo, calls):
        """Walks of bounds drawn in turn, an integer n for ``words(n)`` and
        ``keyed_words(n)`` and a 1-tuple (k,) for the first k of ``words()``,
        on one automaton, so each reads the steps the earlier ones kept."""
        def walks():
            out = []
            for call in calls:
                if isinstance(call, tuple):
                    out.append(list(itertools.islice(demo.language.words(), call[0])))
                else:
                    out += [list(demo.language.words(call)), list(demo.keyed_words(call))]
            return out

        with mock.patch.object(Nfa, "pruned_step", unmemoized_pruned_step):
            want = walks()
        assert walks() == want


class TestCoverageReport:
    def test_partition_of_ball(self):
        d = zk_demo(2)
        report = d.verify_coverage(3, 2)
        ball = set(d.oracle.ball(3)) - {d.oracle.identity_key}
        assert set(report.covered) | set(report.missing) == ball
        assert not set(report.covered) & set(report.missing)

    @settings(deadline=None, max_examples=200)
    @given(demos(), st.sampled_from(range(4)), st.sampled_from(range(5)),
           st.sampled_from([None, 0, 1, 2, 3, 4]))
    def test_matches_wordwise_reference(self, demo, radius, search_len, max_len):
        report = demo.verify_coverage(radius, search_len, max_len)
        covered, missing, violations = wordwise_coverage(demo, radius, search_len, max_len)
        assert [(k.render(), w) for k, w in report.covered.items()] == covered
        assert {k.render() for k in report.missing} == missing
        assert list(report.identity_violations) == violations

    def test_sorted_views_are_deterministic(self):
        report = z_demo().verify_coverage(3, 3)
        assert [k for k in report.sorted_missing()] == sorted(report.missing)


class TestBuiltinDispatch:
    @pytest.mark.parametrize("spec,alphabet_size", [
        ("z", 2), ("free(2)", 4), ("zk(2)", 4), ("ZK(3)", 6),
        ("Z", 2), ("FREE2", 4), ("Free2", 4), ("ZK3", 6), (" zk3 ", 6)])
    def test_parses_kinds(self, spec, alphabet_size):
        d = builtin_demo(spec)
        assert len(d.language.alphabet) == alphabet_size

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            builtin_demo("zq(2)")

    @pytest.mark.parametrize("spec", ["free(2", "zk3)", "free", "zz", "finite2", "finite"])
    def test_malformed_names_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_demo(spec)
