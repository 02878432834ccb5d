import inspect
import textwrap
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from epicdemo import automata
from epicdemo.automata import (
    EPSILON,
    Letter,
    Nfa,
    check_alphabet,
    concat,
    explore,
    finite_language,
    glue,
    image_hom,
    intersect,
    inverse_letter_hom,
    make_word,
    merge_alphabets,
    subtract_word,
    union,
    walk,
)
from epicdemo.errors import AutomatonSizeError
from epicdemo.workspace import render_automaton

from oracles import (
    bf_accepts,
    bf_language,
    normalize_no_accepting_initial,
    chained_finite_language,
    closure_step_accepts,
    closure_subsets,
    keyed_render_automaton,
    pairwise_intersect,
    pairwise_product,
    probing_intersect,
    pumpable_cycle,
    searched_is_empty,
    set_explore,
    set_glue,
    set_image_hom,
    set_inverse_letter_hom,
    tagged_concat,
    tagged_union,
    triplewise_nfa_check,
    words_upto,
)

A, B, C = Letter("a"), Letter("b"), Letter("c")


def plus_language(letter, other_letters=()):
    """letter+ over an alphabet that may carry extra unused letters."""
    alphabet = merge_alphabets([letter], other_letters)
    return Nfa(
        alphabet=alphabet,
        states=frozenset({0, 1}),
        transitions=frozenset({(0, letter, 1), (1, letter, 1)}),
        initials=frozenset({0}),
        accepting=frozenset({1}),
    )


@st.composite
def nfas(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    states = list(range(n))
    labels = [A, B, None]
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states)),
        max_size=12))
    initials = draw(st.lists(st.sampled_from(states), min_size=1, max_size=n))
    accepting = draw(st.lists(st.sampled_from(states), max_size=n))
    return Nfa(
        alphabet=(A, B),
        states=frozenset(states),
        transitions=frozenset(transitions),
        initials=frozenset(initials),
        accepting=frozenset(accepting),
    )


@st.composite
def epsilon_cycle_nfas(draw):
    """Up to six states with random edges plus one closed cycle of epsilon
    edges, so closures overlap and loop."""
    n = draw(st.integers(min_value=1, max_value=6))
    states = list(range(n))
    transitions = set(draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from([A, B, None]),
                  st.sampled_from(states)),
        max_size=16)))
    cycle = draw(st.lists(st.sampled_from(states), min_size=1, max_size=n, unique=True))
    transitions.update((p, None, q) for p, q in zip(cycle, cycle[1:] + cycle[:1]))
    initials = draw(st.lists(st.sampled_from(states), min_size=1, max_size=n))
    accepting = draw(st.lists(st.sampled_from(states), max_size=n))
    return Nfa((A, B), frozenset(states), frozenset(transitions),
               frozenset(initials), frozenset(accepting))


@st.composite
def island_nfas(draw):
    """An automaton with an epsilon cycle, plus an accepting state that
    no edge enters, though edges may leave it."""
    a = draw(epsilon_cycle_nfas())
    exits = draw(st.lists(st.tuples(st.sampled_from([A, B, None]),
                                    st.sampled_from(sorted(a.states))), max_size=2))
    return Nfa(a.alphabet, a.states | {"island"},
               a.transitions | {("island", x, q) for x, q in exits}, a.initials,
               a.accepting | {"island"})


@st.composite
def mixed_alphabet_nfas(draw):
    """Up to five states over one to three of a, b, c, with epsilon edges,
    so two of them share some letters and not others."""
    alphabet = tuple(draw(st.lists(st.sampled_from([A, B, C]), min_size=1, max_size=3,
                                   unique=True)))
    states = list(range(draw(st.integers(min_value=1, max_value=5))))
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(alphabet + (None,)),
                  st.sampled_from(states)),
        max_size=14))
    initials = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3))
    accepting = draw(st.lists(st.sampled_from(states), max_size=3))
    return Nfa(alphabet, frozenset(states), frozenset(transitions),
               frozenset(initials), frozenset(accepting))


@st.composite
def nfa_parts(draw):
    """Automaton parts over the alphabet (a, b) that may break a rule: an
    endpoint or accepting state 9 outside the states, the foreign letter c,
    a plain string 'b' spelling a letter, or no initial state."""
    states = list(range(draw(st.integers(min_value=1, max_value=4))))
    ends = states + [9]
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(ends), st.sampled_from([A, B, None, C, "b"]),
                  st.sampled_from(ends)),
        max_size=8))
    initials = draw(st.lists(st.sampled_from(states), max_size=2,
                             min_size=draw(st.sampled_from([0, 1, 1, 1]))))
    accepting = draw(st.lists(st.sampled_from(ends), max_size=2))
    return ((A, B), frozenset(states), frozenset(transitions),
            frozenset(initials), frozenset(accepting))


class TestLetters:
    def test_interned_by_display_string(self):
        assert Letter("a") == Letter("a")
        assert Letter("a") != Letter("b")
        assert len({Letter("x"), Letter("x")}) == 1

    @pytest.mark.parametrize("bad", ["", "a b", "a\t", " "])
    def test_rejects_whitespace_names(self, bad):
        with pytest.raises(ValueError):
            Letter(bad)

    def test_duplicate_letter_in_alphabet_rejected(self):
        with pytest.raises(ValueError):
            finite_language([], alphabet=(A, Letter("a")))

    def test_letter_is_its_name(self):
        x = Letter("a^-1")
        assert isinstance(x, str) and x == "a^-1" and hash(x) == hash("a^-1")
        assert {"a^-1": 1}[x] == 1 and x in {"a^-1"}
        assert type(x.name) is str and x.name == "a^-1"
        assert repr(x) == "Letter('a^-1')" and str(x) == f"{x}" == "a^-1"
        assert not hasattr(x, "__dict__")

    def test_sorts_as_its_name(self):
        names = ["b", "a^-1", "#pad", "(u|a|v)", "a", "B", "a1"]
        assert [x.name for x in sorted(map(Letter, names))] == sorted(names)

    def test_plain_strings_are_not_letters(self):
        with pytest.raises(TypeError):
            check_alphabet(["a"])
        with pytest.raises(ValueError, match="not in the alphabet"):
            Nfa((A,), frozenset({0, 1}), frozenset({(0, "a", 1)}),
                frozenset({0}), frozenset({1}))


class TestMembership:
    @settings(deadline=None, max_examples=300)
    @given(nfa_parts())
    def test_malformed_parts_match_triplewise_reference(self, parts):
        expected = triplewise_nfa_check(*parts)
        try:
            Nfa(*parts)
        except ValueError as e:
            assert str(e) == expected
        else:
            assert expected is None

    def test_initials_required(self):
        with pytest.raises(ValueError):
            Nfa((A,), frozenset({0}), frozenset(), frozenset(), frozenset({0}))

    def test_epsilon_cycle_terminates(self):
        a = Nfa((A,), frozenset({0, 1}),
                frozenset({(0, None, 1), (1, None, 0), (0, A, 0)}),
                frozenset({0}), frozenset({1}))
        assert a.accepts(make_word("a"))
        assert a.accepts(EPSILON)

    def test_letter_outside_alphabet_never_matches(self):
        a = plus_language(A)
        assert not a.accepts(make_word("z"))
        assert not a.accepts(make_word("a", "z"))

    @settings(deadline=None)
    @given(nfas(), st.lists(st.sampled_from([A, B]), max_size=5))
    def test_matches_path_search(self, a, word):
        assert a.accepts(tuple(word)) == bf_accepts(a, word)

    @settings(deadline=None, max_examples=200)
    @given(epsilon_cycle_nfas())
    def test_stepping_matches_closed_subsets(self, a):
        # each step closes the states it reads, not the subset it returns;
        # acceptance and the word walk must not tell the two apart
        accepted = [w for w in words_upto((A, B), 5) if closure_step_accepts(a, w)]
        assert [w for w in words_upto((A, B), 5) if a.accepts(w)] == accepted
        assert list(a.words(5)) == accepted

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.one_of(epsilon_cycle_nfas(), island_nfas()))
    def test_stepping_reads_the_index_alone(self, a):
        """The start subset holds the ids of the closed subset of a full
        scan, before and after a step; on a built automaton the empty-word
        test, the emptiness test and the word walk read its index alone,
        and leave its fields unwritten."""
        fresh = Nfa(a.alphabet, a.states, a.transitions, a.initials, a.accepting)
        names = fresh._index.states
        (closed,) = closure_subsets(a, EPSILON)
        assert {names[i] for i in fresh.start_subset()} == closed
        fresh.step(fresh.start_subset(), A)
        assert {names[i] for i in fresh.start_subset()} == closed
        built = glue(a.alphabet, {"t": a}, (), ("t",), ("t",))
        assert built.accepts(EPSILON) == closure_step_accepts(a, EPSILON)
        assert built.is_empty() == searched_is_empty(a)
        assert list(built.words(3)) == [w for w in words_upto((A, B), 3)
                                        if closure_step_accepts(a, w)]
        assert not {"states", "transitions", "initials", "accepting"} & vars(built).keys()

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(range(4)), st.sampled_from([A, B]),
                              st.sampled_from(range(4))), max_size=10),
           st.lists(st.sampled_from(range(4)), min_size=1, max_size=4),
           st.lists(st.sampled_from(range(4)), max_size=4))
    def test_epsilon_free_steps_memoize_the_index_maps(self, edges, initials, accepting):
        """Without epsilon edges a stepped state's memo entry is its own
        out-edge map in the index, not a copy, and no map from state
        objects to ids is kept."""
        name = "s{}".format
        a = Nfa((A, B), frozenset(map(name, range(4))),
                frozenset((name(p), x, name(q)) for p, x, q in edges),
                frozenset(map(name, initials)), frozenset(map(name, accepting)))
        list(a.words(4))
        index = a._index
        stepped = [i for i, out in enumerate(a._closed_memo) if out is not None]
        assert set(stepped) >= a.start_subset()
        assert all(a._closed_memo[i] is index.edges[i] for i in stepped)
        assert not any(isinstance(v, dict) and not v.keys().isdisjoint(index.states)
                       for v in vars(a).values())


class TestEnumerate:
    def test_a_plus_prefix(self):
        a = plus_language(A, [B])
        assert a.enumerate_words(3) == [make_word("a"), make_word("a", "a"),
                                        make_word("a", "a", "a")]

    def test_order_is_length_lex_by_declaration(self):
        # a(b|c)* with order a < b < c
        lang = concat(finite_language([make_word("a")], (A, B, C)),
                      Nfa((A, B, C), frozenset({0}),
                          frozenset({(0, B, 0), (0, C, 0)}),
                          frozenset({0}), frozenset({0})))
        got = lang.enumerate_words(2)
        assert got == [make_word("a"), make_word("a", "b"), make_word("a", "c")]

    @settings(deadline=None)
    @given(nfas())
    def test_agrees_with_exhaustive_sweep(self, a):
        expected = bf_language(a, 4)
        assert a.enumerate_words(4) == expected
        assert list(islice(a.words(), len(expected))) == expected
        if not pumpable_cycle(a):
            assert list(a.words()) == bf_language(a, len(a.states))

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(nfas(), epsilon_cycle_nfas(), mixed_alphabet_nfas()))
    def test_walk_ends_exactly_when_language_is_finite(self, a):
        # without a pumpable cycle every accepted word is shorter than
        # len(a.states), and the unbounded walk ends after listing them;
        # with one, the walk reaches a word of at least that length
        if pumpable_cycle(a):
            assert any(len(w) >= len(a.states) for w in a.words())
        else:
            assert list(a.words()) == bf_language(a, len(a.states))

    def test_walk_prunes_extensions_and_respects_bounds(self):
        # each node is its word; prefixes ending in "b b" are dropped
        def step(node, x, n):
            assert len(node) + 1 == n
            word = node + (x,)
            return None if word[-2:] == (B, B) else word

        expected = [w for w in words_upto((A, B), 4) if (B, B) not in zip(w, w[1:])]
        pairs = list(walk((A, B), EPSILON, step, 4))
        assert [w for w, _ in pairs] == expected
        assert all(w == node for w, node in pairs)
        assert list(islice(walk((A, B), EPSILON, step), len(expected))) == pairs
        assert list(walk((A, B), "root", step, 0)) == [(EPSILON, "root")]
        assert list(walk((A, B), "root", step, -1)) == []

    @settings(deadline=None)
    @given(nfas())
    def test_deterministic(self, a):
        assert a.enumerate_words(4) == a.enumerate_words(4)


@st.composite
def successor_tables(draw):
    """Up to six integer states, each with up to four ``(label, target)``
    edges over a, b and epsilon, initial states and accepting states."""
    states = st.integers(min_value=0, max_value=draw(st.integers(min_value=0, max_value=5)))
    edges = st.lists(st.tuples(st.sampled_from([A, B, None]), states), max_size=4)
    return (draw(st.dictionaries(states, edges)), draw(st.frozensets(states, min_size=1)),
            draw(st.frozensets(states)))


class TestExplore:
    @settings(deadline=None)
    @given(successor_tables())
    def test_matches_brute_force_closure(self, case):
        table, initials, accepting = case
        got = explore((A, B), initials, lambda p: table.get(p, []), accepting.__contains__)
        reached = set(initials)
        while True:  # add every target of an edge leaving the set, until none is new
            grown = reached | {q for p in reached for _, q in table.get(p, [])}
            if grown == reached:
                break
            reached = grown
        assert got.alphabet == (A, B)
        assert got.initials == initials and got.states == reached
        assert got.transitions == {(p, label, q) for p in reached
                                   for label, q in table.get(p, [])}
        assert got.accepting == reached & accepting


class TestIsEmpty:
    def test_no_accepting_state(self):
        a = Nfa((A,), frozenset({0}), frozenset({(0, A, 0)}), frozenset({0}), frozenset())
        assert a.is_empty()

    def test_unreachable_accepting_state(self):
        a = Nfa((A,), frozenset({0, 1}), frozenset(), frozenset({0}), frozenset({1}))
        assert a.is_empty()

    @settings(deadline=None)
    @given(nfas())
    def test_agrees_with_short_word_sweep(self, a):
        # a non-empty language over <=4 states contains a word of length <= 4
        assert a.is_empty() == (bf_language(a, len(a.states)) == [])

    @settings(deadline=None, max_examples=300)
    @given(island_nfas())
    def test_agrees_with_forward_search(self, a):
        assert a.is_empty() == searched_is_empty(a)


@st.composite
def word_lists(draw):
    """Up to six words of up to three letters over a and b, so that
    duplicates, shared prefixes and the empty word are common, and either
    no alphabet or an explicit one holding their letters and maybe c."""
    words = draw(st.lists(st.lists(st.sampled_from([A, B]), max_size=3).map(tuple),
                          max_size=6))
    if draw(st.booleans()):
        return words, None
    letters = {x for w in words for x in w} | set(draw(st.lists(st.sampled_from([A, B, C]))))
    return words, tuple(draw(st.permutations(sorted(letters))))


class TestFiniteLanguage:
    @settings(deadline=None, max_examples=300)
    @given(word_lists(), st.lists(st.lists(st.sampled_from([A, B, C]), max_size=4).map(tuple),
                                  max_size=6))
    def test_matches_chained_reference(self, case, probes):
        words, alphabet = case
        got, want = finite_language(words, alphabet), chained_finite_language(words, alphabet)
        n = max(map(len, words), default=0) + 1
        assert got.alphabet == want.alphabet
        assert got.enumerate_words(n) == want.enumerate_words(n)
        for w in probes + words:
            assert got.accepts(w) == want.accepts(w)


class TestCallerLetters:
    """A builder checks the letters its caller gives once each, with the
    exception and message ``Nfa(...)`` gives for a transition on them."""

    def test_word_letter_outside_the_given_alphabet(self):
        with pytest.raises(ValueError, match=r"^transition label Letter\('b'\) not in the alphabet$"):
            finite_language([make_word("b")], (A,))

    def test_glued_part_letter_outside_the_alphabet(self):
        parts = {"x": finite_language([(A,)]), "y": finite_language([(B,)])}
        with pytest.raises(ValueError, match=r"^transition label Letter\('b'\) not in the alphabet$"):
            glue((A,), parts, [], ["x"], ["y"])

    def test_plain_string_word_letter(self):
        with pytest.raises(TypeError, match="^alphabet entries must be Letter, got 'a'$"):
            finite_language([("a",)])
        with pytest.raises(ValueError, match="^transition label 'a' not in the alphabet$"):
            finite_language([("a",)], (A,))

    def test_plain_string_image_letter(self):
        x = Letter("x")
        with pytest.raises(TypeError, match="^alphabet entries must be Letter, got 'b'$"):
            image_hom(plus_language(x), {x: ("b",)})
        for target in [(B,), (C,)]:
            with pytest.raises(ValueError, match="^image of 'x' uses 'b' outside the target"):
                image_hom(plus_language(x), {x: ("b",)}, target_alphabet=target)


def mutant(function, old, new):
    """``function`` compiled again in its module with the one ``old`` in
    its source read as ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace: dict = {}
    exec(source.replace(old, new), vars(inspect.getmodule(function)), namespace)
    return namespace[function.__name__]


class TestBuilderFaults:
    """``Nfa._built`` does not check edges, and the conftest fixture
    ``builder_faults`` flags a builder whose index misplaces one."""

    def test_glue_edge_to_an_undeclared_state(self, builder_faults, monkeypatch):
        monkeypatch.setattr(automata, "glue", mutant(glue, "entry = ends[u][0]",
                                                     "entry = [len(states)]"))
        with pytest.raises(AssertionError, match=r"target id 4 of .* out of range"):
            concat(plus_language(A), plus_language(B))
        assert len(builder_faults) == 1 and "(('c0', 1), None)" in builder_faults[0]
        builder_faults.clear()

    def test_explore_label_outside_the_alphabet(self, builder_faults):
        with pytest.raises(AssertionError, match=r"transition label Letter\('b'\) not in"):
            explore((A,), [0], lambda p: [(A, 1), (B, 1)] if p == 0 else [], lambda p: p == 1)
        assert builder_faults == ["transition label Letter('b') not in the alphabet"]
        builder_faults.clear()


class TestIndexedBuilders:
    """Each builder hands over an integer edge index; the automaton it
    makes has the fields of the set-based builder it replaced, equals and
    hashes like ``Nfa(...)`` of them, and renders, without writing its
    transitions out, as the keyed reference renders it."""

    @staticmethod
    def agree(got, want):
        text = render_automaton("x", got)
        assert "transitions" not in vars(got)
        fields = (got.alphabet, got.states, got.transitions, got.initials, got.accepting)
        assert fields == (want.alphabet, want.states, want.transitions, want.initials,
                          want.accepting)
        remade = Nfa(*fields)
        assert got == remade and hash(got) == hash(remade)
        assert text == keyed_render_automaton("x", remade)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(nfas())
    def test_explore(self, a):
        def moves(p):  # every edge twice: explore keeps one
            return [(label, q) for (s, label, q) in sorted(a.transitions, key=repr) * 2
                    if s == p]

        starts = sorted(a.initials) * 2
        self.agree(explore(a.alphabet, starts, moves, a.accepting.__contains__),
                   set_explore(a.alphabet, starts, moves, a.accepting.__contains__))

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(mixed_alphabet_nfas(), mixed_alphabet_nfas(), st.data())
    def test_glue(self, a, b, data):
        parts = {"p0": a, "p1": b, "p2": concat(a, b)}  # a built part too
        names = st.sampled_from(sorted(parts))
        bridges = data.draw(st.lists(st.tuples(names, names), max_size=4))
        initials = data.draw(st.lists(names, min_size=1, max_size=3))
        accepting = data.draw(st.lists(names, max_size=3))
        alphabet = merge_alphabets(a.alphabet, b.alphabet)
        self.agree(glue(alphabet, parts, bridges, initials, accepting),
                   set_glue(alphabet, parts, bridges, initials, accepting))

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(nfas(), st.data())
    def test_image_hom(self, a, data):
        words = st.lists(st.sampled_from([A, B, C]), max_size=3).map(tuple)
        phi = {A: data.draw(words), B: data.draw(words)}
        self.agree(image_hom(a, phi, allow_erasing=True, target_alphabet=(A, B, C)),
                   set_image_hom(a, phi, (A, B, C)))

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(nfas(), st.lists(st.sampled_from([A, B]), min_size=3, max_size=3))
    def test_inverse_letter_hom(self, a, images):
        hom = dict(zip((A, B, C), images))
        self.agree(inverse_letter_hom(a, hom, (A, B, C)),
                   set_inverse_letter_hom(a, hom, (A, B, C)))


class TestBooleanOps:
    @settings(deadline=None)
    @given(nfas(), nfas())
    def test_union_membership(self, a, b):
        u = union(a, b)
        for w in words_upto((A, B), 4):
            assert u.accepts(w) == (bf_accepts(a, w) or bf_accepts(b, w))

    @settings(deadline=None)
    @given(nfas(), nfas())
    def test_intersect_membership(self, a, b):
        u = intersect(a, b)
        for w in words_upto((A, B), 4):
            assert u.accepts(w) == (bf_accepts(a, w) and bf_accepts(b, w))

    @settings(deadline=None)
    @given(nfas(), nfas())
    def test_concat_membership(self, a, b):
        u = concat(a, b)
        for w in words_upto((A, B), 4):
            expected = any(bf_accepts(a, w[:i]) and bf_accepts(b, w[i:])
                           for i in range(len(w) + 1))
            assert u.accepts(w) == expected

    @settings(deadline=None, max_examples=200)
    @given(mixed_alphabet_nfas(), mixed_alphabet_nfas())
    def test_union_and_concat_match_tagged_copies(self, a, b):
        for got, want in ((union(a, b), tagged_union(a, b)),
                          (concat(a, b), tagged_concat(a, b))):
            assert (got.states, got.transitions, got.initials, got.accepting) == want
            assert got.alphabet == merge_alphabets(a.alphabet, b.alphabet)

    def test_union_merges_alphabets_left_first(self):
        u = union(plus_language(A), plus_language(C, [B]))
        assert u.alphabet == (A, C, B)

    def test_concat_with_epsilon_language_is_identity(self):
        eps_only = finite_language([EPSILON], alphabet=(A,))
        a = plus_language(A)
        u = concat(a, eps_only)
        assert u.enumerate_words(4) == a.enumerate_words(4)

    @settings(deadline=None, max_examples=300)
    @given(mixed_alphabet_nfas(), mixed_alphabet_nfas())
    def test_intersect_matches_pairwise_reference(self, a, b):
        product = intersect(a, b)
        assert (product.states, product.transitions, product.initials,
                product.accepting) == pairwise_product(a, b)
        assert product.alphabet == merge_alphabets(a.alphabet, b.alphabet)

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.one_of(mixed_alphabet_nfas(), epsilon_cycle_nfas(), island_nfas()),
           st.one_of(mixed_alphabet_nfas(), epsilon_cycle_nfas(), island_nfas()))
    def test_intersect_equals_letter_probing_product(self, a, b):
        assert intersect(a, b) == probing_intersect(a, b)

    @settings(deadline=None, max_examples=100)
    @given(mixed_alphabet_nfas(), mixed_alphabet_nfas())
    def test_intersect_language_matches_epsilon_free_product(self, a, b):
        alphabet = merge_alphabets(a.alphabet, b.alphabet)
        states, transitions, initials, accepting = pairwise_intersect(a, b)
        reference = Nfa(alphabet, frozenset(states), frozenset(transitions),
                        frozenset(initials), frozenset(accepting))
        assert bf_language(intersect(a, b), 5) == bf_language(reference, 5)

    def test_intersect_disjoint_languages_empty(self):
        assert intersect(plus_language(A, [B]), plus_language(B, [A])).is_empty()


class TestHomomorphisms:
    def test_image_hom_spells_image_words(self):
        x = Letter("x")
        lang = plus_language(x)
        out = image_hom(lang, {x: make_word("a", "b")})
        assert out.enumerate_words(4) == [make_word("a", "b"),
                                          make_word("a", "b", "a", "b")]

    def test_erasing_requires_flag(self):
        x = Letter("x")
        lang = plus_language(x)
        with pytest.raises(ValueError):
            image_hom(lang, {x: EPSILON})
        out = image_hom(lang, {x: EPSILON}, allow_erasing=True, target_alphabet=(A,))
        assert out.accepts(EPSILON)
        assert not out.accepts(make_word("a"))

    def test_erase_padding_example(self):
        # strip '#' from {x#, #x#} leaving {x}
        x, pad = Letter("x"), Letter("#pad")
        lang = finite_language([(x, pad), (pad, x, pad)])
        out = image_hom(lang, {x: (x,), pad: EPSILON}, allow_erasing=True,
                        target_alphabet=(x,))
        assert out.enumerate_words(3) == [(x,)]

    @settings(deadline=None)
    @given(nfas())
    def test_image_hom_membership(self, a):
        phi = {A: make_word("b", "a"), B: make_word("b")}
        out = image_hom(a, phi)

        def apply(w):
            img = EPSILON
            for x in w:
                img = img + phi[x]
            return img

        expected = {apply(w) for w in bf_language(a, 4)}
        for w in words_upto((B, A), 6):
            if out.accepts(w):
                # every accepted word of the image automaton is an image
                if len(w) <= 6:
                    assert w in expected or any(
                        apply(u) == w for u in words_upto((A, B), 6))
        for w in expected:
            if len(w) <= 6:
                assert out.accepts(w)

    def test_inverse_letter_hom_relabels(self):
        d0, d1 = Letter("d0"), Letter("d1")
        lang = plus_language(A, [B])
        out = inverse_letter_hom(lang, {d0: A, d1: A}, (d0, d1))
        assert out.accepts((d0,))
        assert out.accepts((d1, d0))
        assert not out.accepts(EPSILON)

    @settings(deadline=None)
    @given(nfas())
    def test_inverse_hom_membership(self, a):
        d0, d1, d2 = Letter("d0"), Letter("d1"), Letter("d2")
        hom = {d0: A, d1: B, d2: A}
        out = inverse_letter_hom(a, hom, (d0, d1, d2))
        for w in words_upto((d0, d1, d2), 4):
            image = tuple(hom[d] for d in w)
            assert out.accepts(w) == bf_accepts(a, image)

    @settings(deadline=None)
    @given(nfas())
    def test_pullback_then_pushforward_contained(self, a):
        d0, d1 = Letter("d0"), Letter("d1")
        hom = {d0: A, d1: B}
        pulled = inverse_letter_hom(a, hom, (d0, d1))
        pushed = image_hom(pulled, {d0: (A,), d1: (B,)}, target_alphabet=(A, B))
        for w in words_upto((A, B), 5):
            if pushed.accepts(w):
                assert bf_accepts(a, w)


class TestSubtractWord:
    def test_removes_single_word(self):
        out = subtract_word(plus_language(A), make_word("a"))
        assert out.enumerate_words(3) == [make_word("a", "a"), make_word("a", "a", "a")]

    def test_subtracting_epsilon(self):
        lang = finite_language([EPSILON, (A,)])
        out = subtract_word(lang, EPSILON)
        assert out.enumerate_words(2) == [(A,)]

    def test_word_not_in_language_is_noop(self):
        a = plus_language(A)
        out = subtract_word(a, make_word("a", "a", "a", "a", "a", "a", "b"))
        assert out.enumerate_words(4) == a.enumerate_words(4)

    @settings(deadline=None)
    @given(nfas(), st.lists(st.sampled_from([A, B]), max_size=3))
    def test_membership(self, a, w):
        w = tuple(w)
        out = subtract_word(a, w)
        for v in words_upto((A, B), 4):
            assert out.accepts(v) == (bf_accepts(a, v) and v != w)


class TestNormalize:
    def test_rejects_epsilon_language(self):
        with pytest.raises(ValueError):
            normalize_no_accepting_initial(finite_language([EPSILON, (A,)]))

    def test_epsilon_loop_removed(self):
        a = Nfa((A,), frozenset({0, 1}),
                frozenset({(0, None, 0), (0, A, 1), (1, A, 1)}),
                frozenset({0}), frozenset({1}))
        out = normalize_no_accepting_initial(a)
        assert (0, None, 0) not in out.transitions
        assert out.enumerate_words(4) == a.enumerate_words(4)

    @settings(deadline=None)
    @given(nfas())
    def test_language_preserved_and_epsilon_rejected_structurally(self, a):
        if a.accepts(EPSILON):
            with pytest.raises(ValueError):
                normalize_no_accepting_initial(a)
            return
        out = normalize_no_accepting_initial(a)
        assert out.enumerate_words(5) == a.enumerate_words(5)
        assert not out.start_subset() & out._index.accepting
        assert not out.initials & out.accepting


class TestStateCap:
    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("EPIC_MAX_STATES", "3")
        with pytest.raises(AutomatonSizeError):
            finite_language([make_word("a", "a", "a", "a")])

    @pytest.mark.parametrize("build, states", [
        (concat, 4),
        (lambda a, b: image_hom(a, {A: make_word("a", "b", "a")}), 6),
        (lambda a, b: intersect(a, a), 2),
    ], ids=["glue", "image_hom", "intersect"])
    def test_built_automata_respect_the_cap(self, monkeypatch, build, states):
        a, b = plus_language(A), plus_language(B)
        assert len(build(a, b).states) == states
        monkeypatch.setenv("EPIC_MAX_STATES", str(states - 1))
        with pytest.raises(AutomatonSizeError,
                           match=f"^automaton has {states} states, cap is {states - 1} "):
            build(a, b)

    def test_bad_cap_value(self, monkeypatch):
        monkeypatch.setenv("EPIC_MAX_STATES", "zero")
        with pytest.raises(ValueError):
            finite_language([(A,)])
