import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import assume, given, settings, strategies as st

from epicdemo.automata import EPSILON, Letter, Nfa, finite_language, intersect, \
    inverse_letter_hom, make_word, subtract_word, union
from epicdemo.constructions import (
    CosetTable,
    _cover,
    SyncTripleAutomaton,
    admissible_automaton,
    autostackable_projection,
    change_generators,
    cross_section_to_demo,
    extension,
    fi_overgroup,
    fi_subgroup,
    graph_product,
    split_triple,
)
from epicdemo.demonstrations import Demonstration, finite_demo, free_demo, identity_eval_map, \
    z_demo, zk_demo
from epicdemo.graphproduct import VertexGraph
from epicdemo.groups import (
    FreeAbelianOracle,
    FreeGroupOracle,
    IntegerMatrixOracle,
    PermutationOracle,
)

from oracles import adjacency_admissible_automaton, ascii_evaluate, bf_language, \
    bf_pruned_types, epsilon_free_nfa, fi_walks_and_language, intersected_fi_language, \
    looped_graph_product_language, make_triple, pad_triple_word, probing_fi_language, \
    tagged_concat, tagged_union
from test_demonstrations import demos
from test_groups import heisenberg_oracle, s3_oracle, c2_oracle


# -- change of generators ------------------------------------------------


class TestChangeGenerators:
    def test_relabel_z(self):
        d = z_demo()
        b, binv = Letter("b"), Letter("b^-1")
        target = {b: make_word("a"), binv: make_word("a^-1")}
        phi = {Letter("a"): (b,), Letter("a^-1"): (binv,)}
        out = change_generators(d, target, phi)
        assert out.verify_no_identity(10) == []
        report = out.verify_coverage(10, 10)
        assert report.complete and report.clean

    def test_s3_over_two_generators(self):
        d = finite_demo(s3_oracle())
        t, r = Letter("(12)"), Letter("(123)")
        target = {t: (t,), r: (r,)}
        # search words over the two chosen generators for each old letter
        search = PermutationOracle(3, {t: d.oracle.gens[t], r: d.oracle.gens[r]})
        witnesses = {key: word for key, word in search.ball(6).items()}
        phi = {x: witnesses[d.evaluate((x,))] for x in d.language.alphabet}
        out = change_generators(d, target, phi)
        assert out.verify_no_identity(6) == []
        report = out.verify_coverage(1, 6)
        assert report.complete and report.clean
        # image containment: everything the new demo hits, the old one hit
        old_keys = {d.evaluate(w) for w in d.language.enumerate_words(1)}
        new_keys = {out.evaluate(w) for w in out.language.enumerate_words(6)}
        assert new_keys <= old_keys

    def test_empty_image_rejected(self):
        d = z_demo()
        b, binv = Letter("b"), Letter("b^-1")
        target = {b: make_word("a"), binv: make_word("a^-1")}
        with pytest.raises(ValueError):
            change_generators(d, target, {Letter("a"): EPSILON, Letter("a^-1"): (binv,)})

    def test_wrong_element_rejected(self):
        d = z_demo()
        b, binv = Letter("b"), Letter("b^-1")
        target = {b: make_word("a"), binv: make_word("a^-1")}
        phi = {Letter("a"): (b, b), Letter("a^-1"): (binv,)}
        with pytest.raises(ValueError):
            change_generators(d, target, phi)

    def test_image_letter_without_evaluation_rejected(self):
        d = z_demo()
        b, binv = Letter("b"), Letter("b^-1")
        target = {b: make_word("a"), binv: make_word("a^-1")}
        phi = {Letter("a"): (b, Letter("c")), Letter("a^-1"): (binv,)}
        with pytest.raises(ValueError, match="'c' has no evaluation"):
            change_generators(d, target, phi)

    def test_image_for_unused_letter_rejected(self):
        d = z_demo()
        b, binv = Letter("b"), Letter("b^-1")
        target = {b: make_word("a"), binv: make_word("a^-1")}
        phi = {Letter("a"): (b,), Letter("a^-1"): (binv,), Letter("q"): (b,)}
        with pytest.raises(ValueError) as caught:
            change_generators(d, target, phi)
        assert str(caught.value) == "image given for 'q', which the demonstration does not use"


# -- extensions ----------------------------------------------------------


def central_demo(oracle):
    """Powers of the central generator of the Heisenberg group."""
    lang = z_demo("z").language
    return Demonstration(oracle, {Letter("z"): make_word("z"),
                                  Letter("z^-1"): make_word("z^-1")}, lang)


def quotient_demo(oracle):
    """Sign-consistent x then y blocks, one representative per Z^2 coset."""
    lang = zk_demo(2, names=("x", "y")).language
    return Demonstration(oracle, {x: (x,) for x in lang.alphabet}, lang)


def in_center(key):
    return key.data[0][1] == 0 and key.data[1][2] == 0


class TestExtension:
    def test_heisenberg(self):
        oracle = heisenberg_oracle()
        out = extension(central_demo(oracle), quotient_demo(oracle), oracle, in_center)
        assert out.verify_no_identity(6) == []
        report = out.verify_coverage(2, 8)
        assert report.complete and report.clean

    def test_quotient_word_inside_subgroup_rejected(self):
        oracle = heisenberg_oracle()
        commutator = make_word("x", "y", "x^-1", "y^-1")
        bad_q = Demonstration(
            oracle, {x: (x,) for x in set(commutator)},
            finite_language([commutator], tuple(dict.fromkeys(commutator))))
        with pytest.raises(ValueError, match="into the subgroup"):
            extension(central_demo(oracle), bad_q, oracle, in_center, check_len=4)

    @settings(deadline=None, max_examples=150)
    @given(demos(), st.sampled_from(range(5)), st.data())
    def test_quotient_check_matches_wordwise_reference(self, demo, check_len, data):
        # the empty word always fails the check, so the quotient demo drops
        # it; the subgroup test accepts the identity and drawn words' values
        o = demo.oracle
        demo_q = Demonstration(o, demo.eval_map, subtract_word(demo.language, EPSILON))
        words = st.lists(st.sampled_from(o.alphabet), max_size=3).map(tuple)
        normal = {ascii_evaluate(o, w) for w in data.draw(st.lists(words, max_size=3)) + [()]}
        demo_n = Demonstration(o, {Letter("n"): EPSILON}, finite_language([make_word("n")]))
        bad = [w for w in bf_language(demo_q.language, check_len)
               if ascii_evaluate(o, sum((demo_q.eval_map[x] for x in w), ())) in normal]

        def in_normal(key):
            return key.render() in normal

        if not bad:
            extension(demo_n, demo_q, o, in_normal, check_len)
            return
        with pytest.raises(ValueError) as caught:
            extension(demo_n, demo_q, o, in_normal, check_len)
        assert str(caught.value) == ("quotient demo word evaluates into the subgroup: "
                                     + " ".join(x.name for x in bad[0]))

    def test_letter_clash_rejected(self):
        # the clashing quotient's words are central, which is found first
        oracle = heisenberg_oracle()
        lang = z_demo("z").language
        clashing = Demonstration(oracle, {Letter("z"): make_word("z"),
                                          Letter("z^-1"): make_word("z^-1")}, lang)
        with pytest.raises(ValueError, match="into the subgroup: z$"):
            extension(central_demo(oracle), clashing, oracle, in_center)

    def test_letter_clash_outside_subgroup_rejected(self):
        oracle = heisenberg_oracle()
        lang = z_demo("z").language
        clashing = Demonstration(oracle, {Letter("z"): make_word("x"),
                                          Letter("z^-1"): make_word("x^-1")}, lang)
        with pytest.raises(ValueError) as caught:
            extension(central_demo(oracle), clashing, oracle, in_center)
        assert str(caught.value) == "language letter 'z' used by 'subgroup' and 'cosets'"

    def test_subgroup_demo_accepting_empty_word_rejected(self):
        plane = zk_demo(2, names=("a", "b")).oracle
        a, ainv = Letter("a"), Letter("a^-1")
        powers_or_empty = Nfa((a, ainv), frozenset({0, 1, 2}),
                              frozenset({(0, a, 1), (1, a, 1), (0, ainv, 2), (2, ainv, 2)}),
                              frozenset({0}), frozenset({0, 1, 2}))
        demo_n = Demonstration(plane, identity_eval_map((a, ainv)), powers_or_empty)
        demo_q = Demonstration(plane, identity_eval_map(make_word("b", "b^-1")),
                               z_demo("b").language)
        with pytest.raises(ValueError) as caught:
            extension(demo_n, demo_q, plane, lambda key: key.data[1] == 0)
        assert str(caught.value) == "the subgroup demonstration accepts the empty word"

    def test_inverted_predicate_caught(self):
        oracle = heisenberg_oracle()
        with pytest.raises(ValueError, match="identity"):
            extension(central_demo(oracle), quotient_demo(oracle), oracle,
                      lambda key: not in_center(key))


# -- finite index overgroups --------------------------------------------


def dinf_oracle():
    """Infinite dihedral group as 2x2 integer matrices."""
    return IntegerMatrixOracle(2, {
        Letter("a"): ((1, 1), (0, 1)),
        Letter("a^-1"): ((1, -1), (0, 1)),
        Letter("s"): ((-1, 0), (0, 1)),
    })


def translations_demo(oracle):
    lang = z_demo().language
    return Demonstration(oracle, {Letter("a"): make_word("a"),
                                  Letter("a^-1"): make_word("a^-1")}, lang)


class TestFiOvergroup:
    def test_infinite_dihedral(self):
        oracle = dinf_oracle()
        out = fi_overgroup(translations_demo(oracle), oracle,
                           {Letter("s"): make_word("s")})
        assert out.verify_no_identity(10) == []
        report = out.verify_coverage(4, 10)
        assert report.complete and report.clean

    def test_identity_transversal_rejected(self):
        oracle = dinf_oracle()
        with pytest.raises(ValueError, match="into the subgroup: t$"):
            fi_overgroup(translations_demo(oracle), oracle,
                         {Letter("t"): make_word("a", "a^-1")})

    def test_subgroup_transversal_rejected(self):
        oracle = dinf_oracle()

        def is_translation(key):
            return key.data[0][0] == 1

        with pytest.raises(ValueError, match="into the subgroup"):
            fi_overgroup(translations_demo(oracle), oracle,
                         {Letter("t"): make_word("a")}, in_subgroup=is_translation)

    def test_inverted_subgroup_predicate_rejected(self):
        oracle = dinf_oracle()

        def not_translation(key):
            return key.data[0][0] == -1

        with pytest.raises(ValueError,
                           match="^in_subgroup rejects the identity, predicate looks inverted$"):
            fi_overgroup(translations_demo(oracle), oracle,
                         {Letter("t"): make_word("a")}, in_subgroup=not_translation)

    def test_letter_clash_rejected(self):
        oracle = dinf_oracle()
        with pytest.raises(ValueError,
                           match="^language letter 'a' used by 'subgroup' and 'cosets'$"):
            fi_overgroup(translations_demo(oracle), oracle,
                         {Letter("a"): make_word("s")})

    def test_subgroup_demo_accepting_empty_word_rejected(self):
        oracle = dinf_oracle()
        demo = translations_demo(oracle)
        with_empty = Demonstration(oracle, demo.eval_map,
                                   Nfa(demo.language.alphabet, demo.language.states,
                                       demo.language.transitions, demo.language.initials,
                                       demo.language.states))
        assert with_empty.language.accepts(EPSILON)
        with pytest.raises(ValueError, match="^the subgroup demonstration accepts the empty word"):
            fi_overgroup(with_empty, oracle, {Letter("s"): make_word("s")})


def _as_nfa(alphabet, parts):
    states, transitions, initials, accepting = parts
    return Nfa(alphabet, frozenset(states), frozenset(transitions), frozenset(initials),
               frozenset(accepting))


@st.composite
def covers(draw):
    """A subgroup demo without the empty word and a coset demo over other
    letters, on one drawn oracle."""
    sub = draw(demos())
    reps = draw(demos(oracle=sub.oracle, names="uvw"))
    return Demonstration(sub.oracle, sub.eval_map, subtract_word(sub.language, EPSILON)), reps


@settings(deadline=None, max_examples=200)
@given(covers())
def test_cover_language_matches_tagged_reference(pair):
    sub, reps = pair
    out = _cover(sub, reps, lambda key: False, 4)
    lang, t = sub.language, reps.language
    alphabet = out.language.alphabet
    reference = _as_nfa(alphabet, tagged_union(
        lang, _as_nfa(alphabet, tagged_union(t, _as_nfa(alphabet, tagged_concat(lang, t))))))
    assert bf_language(out.language, 4) == bf_language(reference, 4, alphabet)
    assert len(out.language.states) == len(lang.states) + len(t.states)
    assert out.eval_map == {**sub.eval_map, **reps.eval_map}


# -- finite index subgroups ---------------------------------------------


def even_table():
    a, ainv = Letter("a"), Letter("a^-1")
    return CosetTable(
        oracle=z_demo().oracle,
        cosets=("H", "C"),
        transversal={"H": EPSILON, "C": (a,)},
        action={("H", a): "C", ("C", a): "H", ("H", ainv): "C", ("C", ainv): "H"},
    )


def a3_table():
    odd = [Letter("(12)"), Letter("(13)"), Letter("(23)")]
    even = [Letter("(123)"), Letter("(132)")]
    action = {}
    for x in odd:
        action[("H", x)] = "C"
        action[("C", x)] = "H"
    for x in even:
        action[("H", x)] = "H"
        action[("C", x)] = "C"
    return CosetTable(s3_oracle(), ("H", "C"), {"H": EPSILON, "C": (Letter("(12)"),)}, action)


class TestFiSubgroup:
    def test_even_integers(self):
        out = fi_subgroup(z_demo(), even_table())
        assert out.verify_no_identity(6) == []
        report = out.verify_coverage(6, 6)
        covered = {k.data[0] for k in report.covered}
        assert covered == {-6, -4, -2, 2, 4, 6}
        assert report.clean

    def test_even_integers_rewrite_matches_spelling(self):
        demo = z_demo()
        out = fi_subgroup(demo, even_table())
        for w in out.language.enumerate_words(6):
            spelled = tuple(Letter(split_triple(x)[1]) for x in w)
            assert out.evaluate(w) == demo.oracle.evaluate(spelled)

    def test_alternating_subgroup_of_s3(self):
        demo = finite_demo(s3_oracle())
        out = fi_subgroup(demo, a3_table())
        assert out.verify_no_identity(4) == []
        report = out.verify_coverage(1, 2)
        rotations = {demo.oracle.evaluate(make_word("(123)")),
                     demo.oracle.evaluate(make_word("(132)"))}
        assert set(report.covered) == rotations
        assert set(report.missing) == {demo.oracle.evaluate((x,)) for x in
                                       (Letter("(12)"), Letter("(13)"), Letter("(23)"))}

    def test_index_one_degenerate(self):
        demo = z_demo()
        a, ainv = Letter("a"), Letter("a^-1")
        table = CosetTable(demo.oracle, ("H",), {"H": EPSILON},
                           {("H", a): "H", ("H", ainv): "H"})
        out = fi_subgroup(demo, table)
        report = out.verify_coverage(4, 4)
        base = demo.verify_coverage(4, 4)
        assert set(report.covered) == set(base.covered)

    def test_in_subgroup_predicate_validates_table(self):
        def even(key):
            return key.data[0] % 2 == 0

        out = fi_subgroup(z_demo(), even_table(), in_subgroup=even)
        assert out.verify_no_identity(4) == []

        # consistent 4-cycle that subdivides each genuine coset of 2Z in two
        a, ainv = Letter("a"), Letter("a^-1")
        names = ("H", "C1", "C2", "C3")
        action = {}
        for i, c in enumerate(names):
            action[(c, a)] = names[(i + 1) % 4]
            action[(c, ainv)] = names[(i - 1) % 4]
        bad = CosetTable(z_demo().oracle, names, {c: (a,) * i for i, c in enumerate(names)},
                         action)
        with pytest.raises(ValueError, match="share a coset"):
            fi_subgroup(z_demo(), bad, in_subgroup=even)

    def test_table_of_another_group_rejected(self):
        """Same letters, other group: the table's cosets are not Z's."""
        a, ainv = Letter("a"), Letter("a^-1")
        table = even_table()
        table.oracle = FreeAbelianOracle(1, {a: (2,), ainv: (-2,)})
        with pytest.raises(ValueError, match="the coset table and the demonstration have "
                                             "different groups"):
            fi_subgroup(z_demo(), table)

    def test_partial_action_rejected(self):
        a, ainv = Letter("a"), Letter("a^-1")
        table = CosetTable(z_demo().oracle, ("H", "C"), {"H": EPSILON, "C": (a,)},
                           {("H", a): "C", ("C", a): "H"})
        with pytest.raises(ValueError, match="undefined"):
            fi_subgroup(z_demo(), table)

    def test_nontrivial_home_transversal_rejected(self):
        a, ainv = Letter("a"), Letter("a^-1")
        table = CosetTable(z_demo().oracle, ("H", "C"), {"H": (a,), "C": (a,)},
                           even_table().action)
        with pytest.raises(ValueError, match="must be empty"):
            fi_subgroup(z_demo(), table)

    def test_unreachable_coset_rejected(self):
        a, ainv = Letter("a"), Letter("a^-1")
        table = CosetTable(z_demo().oracle, ("H", "X"), {"H": EPSILON, "X": (a,)},
                           {("H", a): "H", ("H", ainv): "H",
                            ("X", a): "X", ("X", ainv): "X"})
        with pytest.raises(ValueError, match="unreachable"):
            fi_subgroup(z_demo(), table)

    def test_non_inverse_closed_alphabet_rejected(self):
        mono = FreeAbelianOracle(1, {Letter("a"): (1,)})
        lang = Nfa((Letter("a"),), frozenset({0, 1}),
                   frozenset({(0, Letter("a"), 1), (1, Letter("a"), 1)}),
                   frozenset({0}), frozenset({1}))
        demo = Demonstration(mono, {Letter("a"): (Letter("a"),)}, lang)
        table = CosetTable(mono, ("H",), {"H": EPSILON}, {("H", Letter("a")): "H"})
        with pytest.raises(ValueError, match="no inverse"):
            fi_subgroup(demo, table)


@st.composite
def fi_cases(draw, least=1):
    """A demonstration over free(2) whose language has one to five states,
    epsilon edges and up to three initial states, with a transitive action
    of free(2) on ``least`` to three cosets, transversal words breadth
    first."""
    oracle = FreeGroupOracle(2)
    letters = list(oracle.alphabet)
    states = list(range(draw(st.integers(1, 5))))
    transitions = draw(st.lists(st.tuples(st.sampled_from(states),
                                          st.sampled_from(letters + [None]),
                                          st.sampled_from(states)), max_size=20))
    initials = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3))
    accepting = draw(st.lists(st.sampled_from(states), max_size=3))
    language = Nfa(oracle.alphabet, frozenset(states), frozenset(transitions),
                   frozenset(initials), frozenset(accepting))
    cosets = ("H", "C", "D")[:draw(st.integers(least, 3))]
    action = {}
    for x, x_inv in zip(letters[::2], letters[1::2]):
        image = draw(st.permutations(cosets))
        for c, d in zip(cosets, image):
            action[c, x], action[d, x_inv] = d, c
    transversal = {"H": EPSILON}
    queue = ["H"]
    for c in queue:  # grows while it is read
        for x in letters:
            d = action[c, x]
            if d not in transversal:
                transversal[d] = transversal[c] + (x,)
                queue.append(d)
    assume(len(transversal) == len(cosets))
    return (Demonstration(oracle, identity_eval_map(oracle.alphabet), language),
            CosetTable(oracle, cosets, transversal, action))


def nfa_parts(nfa):
    return nfa.alphabet, nfa.states, nfa.transitions, nfa.initials, nfa.accepting


class TestFiSubgroupProduct:
    @settings(deadline=None, max_examples=300)
    @given(fi_cases())
    def test_matches_intersected_reference(self, case):
        demo, table = case
        assert nfa_parts(fi_subgroup(demo, table).language) == \
            nfa_parts(intersected_fi_language(demo, table))

    @pytest.mark.parametrize("demo, table", [
        (z_demo(), even_table()), (finite_demo(s3_oracle()), a3_table())],
        ids=["even-integers", "alternating"])
    def test_fixed_tables_match_intersected_reference(self, demo, table):
        assert nfa_parts(fi_subgroup(demo, table).language) == \
            nfa_parts(intersected_fi_language(demo, table))

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(fi_cases(least=2))
    def test_equals_letter_probing_product(self, case):
        """Index 2 and 3: each walk edge read by its generator gives the
        automaton that probing the language with every walk edge gave."""
        demo, table = case
        assert fi_subgroup(demo, table).language == probing_fi_language(demo, table)

    @pytest.mark.parametrize("demo, table", [
        (z_demo(), even_table()), (finite_demo(s3_oracle()), a3_table())],
        ids=["even-integers", "alternating"])
    def test_fixed_tables_equal_letter_probing_product(self, demo, table):
        assert fi_subgroup(demo, table).language == probing_fi_language(demo, table)

    def test_epsilon_edges_kept_on_path_product(self):
        # Z on a path of six vertices and its index-2 subgroup of even
        # exponent sum: the graph-product language is full of epsilon bridges,
        # which the product keeps, so it has more states than the product
        # with epsilon edges removed first but fewer transitions
        names = "abcdef"
        graph = VertexGraph.make(names, list(zip(names, names[1:])))
        demo = graph_product(graph, {v: z_demo(v) for v in names})
        letters = demo.oracle.alphabet
        table = CosetTable(demo.oracle, ("H", "C"), {"H": EPSILON, "C": letters[:1]},
                           {(c, x): d for c, d in (("H", "C"), ("C", "H")) for x in letters})
        out = fi_subgroup(demo, table).language
        walks, spelled = fi_walks_and_language(demo, table)
        eps_free = intersect(walks, epsilon_free_nfa(spelled))
        assert (len(out.states), len(out.transitions)) == (513, 2008)
        assert out == probing_fi_language(demo, table)
        assert (len(eps_free.states), len(eps_free.transitions)) == (349, 3012)
        words = out.enumerate_words(6)
        assert words == intersected_fi_language(demo, table).enumerate_words(6)
        assert words == eps_free.enumerate_words(6)


# -- admissible type automata -------------------------------------------


class TestAdmissibleAutomaton:
    def test_single_vertex(self):
        g = VertexGraph.make(("u",), [])
        adm = admissible_automaton(g)
        assert adm.enumerate_words(3) == [make_word("u")]

    def test_two_vertices_no_edge_alternate(self):
        g = VertexGraph.make(("u", "v"), [])
        adm = admissible_automaton(g)
        assert adm.enumerate_words(3) == [
            make_word("u"), make_word("v"),
            make_word("u", "v"), make_word("v", "u"),
            make_word("u", "v", "u"), make_word("v", "u", "v")]

    def test_two_vertices_with_edge(self):
        g = VertexGraph.make(("u", "v"), [("u", "v")])
        adm = admissible_automaton(g)
        assert adm.enumerate_words(3) == [
            make_word("u"), make_word("v"), make_word("u", "v")]

    def test_structure_for_gluing(self):
        g = VertexGraph.make(("u", "v", "w"), [("u", "v")])
        adm = admissible_automaton(g)
        assert len(adm.initials) == 1
        assert not adm.initials & adm.accepting
        assert adm.accepting == adm.states - adm.initials
        assert all(label is not None for (_, label, _) in adm.transitions)

    @pytest.mark.parametrize("vertices,edges", [
        (("u", "v", "w"), [("u", "v"), ("v", "w")]),
        (("u", "v", "w"), [("u", "v"), ("v", "w"), ("u", "w")]),
        (("p", "q", "r", "s"), [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")]),
    ])
    def test_matches_brute_force(self, vertices, edges):
        g = VertexGraph.make(vertices, edges)
        adm = admissible_automaton(g)
        got = {tuple(x.name for x in w) for w in adm.enumerate_words(6)}
        expected = bf_pruned_types(vertices, g.adjacent, 6)
        assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_adjacency_reference_on_every_graph(self, n):
        """Every graph on n ordered vertices, so every vertex order too."""
        vertices = "uvwxy"[:n]
        pairs = list(itertools.combinations(vertices, 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = VertexGraph.make(vertices, itertools.compress(pairs, chosen))
            assert admissible_automaton(g) == adjacency_admissible_automaton(g)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(6, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))))
    def test_equals_adjacency_reference_on_random_graphs(self, case):
        n, chosen = case
        vertices = [f"v{i}" for i in range(n)]
        g = VertexGraph.make(vertices, itertools.compress(
            itertools.combinations(vertices, 2), chosen))
        assert admissible_automaton(g) == adjacency_admissible_automaton(g)


# -- graph products ------------------------------------------------------


def c2_demo(name):
    return finite_demo(c2_oracle(name))


class TestGraphProduct:
    def test_square_group_words(self):
        g = VertexGraph.make(("u", "v"), [("u", "v")])
        out = graph_product(g, {"u": c2_demo("a"), "v": c2_demo("b")})
        assert out.language.enumerate_words(4) == [
            make_word("a"), make_word("b"), make_word("a", "b")]
        report = out.verify_coverage(2, 2)
        assert report.complete and report.clean
        assert len(report.covered) == 3

    def test_free_product_of_involutions(self):
        g = VertexGraph.make(("u", "v"), [])
        out = graph_product(g, {"u": c2_demo("a"), "v": c2_demo("b")})
        assert out.verify_no_identity(5) == []
        report = out.verify_coverage(4, 8)
        assert report.complete and report.clean

    def test_lamplighter_free_abelian_plane(self):
        g = VertexGraph.make(("u", "v"), [("u", "v")])
        out = graph_product(g, {"u": z_demo("a"), "v": z_demo("b")})
        assert out.verify_no_identity(5) == []
        report = out.verify_coverage(3, 6)
        assert report.complete and report.clean
        assert out.language.accepts(make_word("a", "b"))
        assert not out.language.accepts(make_word("b", "a"))

    def test_accepted_words_have_admissible_types(self):
        g = VertexGraph.make(("u", "v", "w"), [("u", "v")])
        out = graph_product(g, {"u": c2_demo("a"), "v": c2_demo("b"), "w": z_demo("c")})
        adm = admissible_automaton(g)
        vertex_of = {x: v for v, local in out.oracle.vertex_oracles.items()
                     for x in local.alphabet}
        for word in out.language.enumerate_words(5):
            pruned, types = out.oracle.prune(out.oracle_word(word))
            assert adm.accepts(tuple(Letter(t) for t in types))
            for vertex, sub in itertools.groupby(out.oracle_word(word), vertex_of.__getitem__):
                assert not out.oracle.vertex_oracles[vertex].is_identity(tuple(sub))

    LOCALS = (lambda v: z_demo(f"{v}1"), lambda v: zk_demo(2, names=(f"{v}1", f"{v}2")),
              lambda v: c2_demo(f"{v}1"))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_looped_reference(self, n):
        """Every graph on n vertices, locals of three builtin kinds in turn;
        the glued start state is the reference's fresh initial state."""
        vertices = tuple("uvwx"[:n])
        pairs = list(itertools.combinations(vertices, 2))

        def name(s):
            return ("glue-init",) if s == ("start", ()) else s

        for k in range(2 ** len(pairs)):
            graph = VertexGraph.make(vertices, [e for i, e in enumerate(pairs) if k >> i & 1])
            local = {v: self.LOCALS[(i + k) % 3](v) for i, v in enumerate(vertices)}
            got = graph_product(graph, local).language
            assert (got.alphabet, {name(s) for s in got.states},
                    {(name(p), x, q) for (p, x, q) in got.transitions},
                    {name(s) for s in got.initials}, got.accepting) == \
                nfa_parts(looped_graph_product_language(graph, local))

    def test_local_accepting_epsilon_rejected(self):
        g = VertexGraph.make(("u",), [])
        letter = Letter("g")
        bad_lang = finite_language([EPSILON, (letter,)])
        bad = Demonstration(z_demo("a").oracle, {letter: make_word("a")}, bad_lang)
        with pytest.raises(ValueError, match="empty word"):
            graph_product(g, {"u": bad})

    def test_language_letter_clash_rejected(self):
        g = VertexGraph.make(("u", "v"), [])
        with pytest.raises(ValueError):
            graph_product(g, {"u": c2_demo("a"), "v": c2_demo("a")})

    def test_language_letter_clash_over_distinct_generators_rejected(self):
        g = VertexGraph.make(("u", "v"), [])
        p = Letter("p")
        local = {v: Demonstration(c2_oracle(gen), {p: make_word(gen)}, finite_language([(p,)]))
                 for v, gen in (("u", "a"), ("v", "b"))}
        with pytest.raises(ValueError, match="^language letter 'p' used by 'u' and 'v'$"):
            graph_product(g, local)

    def test_local_demonstration_at_unknown_vertex_rejected(self):
        g = VertexGraph.make(("u",), [])
        with pytest.raises(ValueError, match=r"local demonstrations for unknown vertices: \['w'\]"):
            graph_product(g, {"u": c2_demo("a"), "w": c2_demo("b")})


# -- padded triples ------------------------------------------------------


class TestPaddedTriples:
    def test_letterwise_padding_example(self):
        u = make_word("h", "i")
        v = make_word("b", "y", "e")
        w = make_word("h", "e", "l", "l", "o")
        padded = pad_triple_word(u, v, w)
        assert [x.name for x in padded] == [
            "(h|b|h)", "(i|y|e)", "(#pad|e|l)", "(#pad|#pad|l)", "(#pad|#pad|o)"]

    def test_split_round_trip(self):
        t = make_triple("a", "#pad", "a^-1")
        assert split_triple(t) == ("a", "#pad", "a^-1")

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError):
            make_triple("#pad", "#pad", "#pad")

    def test_projection_single_word(self):
        a, b = Letter("a"), Letter("b")
        padded = pad_triple_word((a,), EPSILON, (b, b))
        t = SyncTripleAutomaton(finite_language([padded]), (a, b))
        out = autostackable_projection(t)
        assert out.enumerate_words(3) == [(a,)]

    def test_projection_rejects_resumed_padding(self):
        a = Letter("a")
        bad_word = (make_triple("a", "#pad", "a"), make_triple("a", "a", "a"))
        t = SyncTripleAutomaton(finite_language([bad_word]), (a,))
        with pytest.raises(ValueError, match="padding"):
            autostackable_projection(t)

    def test_unknown_component_rejected(self):
        a = Letter("a")
        word = (make_triple("a", "z", "a"),)
        with pytest.raises(ValueError, match="base letter"):
            SyncTripleAutomaton(finite_language([word]), (a,))


def z_rewriting_fixture():
    """Padded triples (y, x, x) for normal forms y and generators x of Z.

    Rows encode a rewriting system whose normal forms are the empty word
    and sign-consistent powers; all rewriting arrows are degenerate, so
    the third coordinate equals the second.
    """
    a, ainv = Letter("a"), Letter("a^-1")
    letters = {}
    for x in (a, ainv):
        letters[("start0", x)] = make_triple("#pad", x.name, x.name)
        for head in (a, ainv):
            letters[("start", head, x)] = make_triple(head.name, x.name, x.name)
    tail = {head: make_triple(head.name, "#pad", "#pad") for head in (a, ainv)}

    states = {"i", "done"} | {("run", h.name) for h in (a, ainv)}
    transitions = set()
    for x in (a, ainv):
        transitions.add(("i", letters[("start0", x)], "done"))
        for head in (a, ainv):
            transitions.add(("i", letters[("start", head, x)], ("run", head.name)))
    for head in (a, ainv):
        transitions.add((("run", head.name), tail[head], ("run", head.name)))
    alphabet = tuple(dict.fromkeys(list(letters.values()) + list(tail.values())))
    accepting = frozenset({"done"} | {("run", h.name) for h in (a, ainv)})
    nfa = Nfa(alphabet, frozenset(states), frozenset(transitions),
              frozenset({"i"}), accepting)
    return SyncTripleAutomaton(nfa, (a, ainv))


class TestCrossSection:
    def test_projection_of_rewriting_fixture_is_normal_forms(self):
        t = z_rewriting_fixture()
        out = autostackable_projection(t)
        expected = {EPSILON}
        a, ainv = Letter("a"), Letter("a^-1")
        for n in range(1, 7):
            expected.add((a,) * n)
            expected.add((ainv,) * n)
        assert set(out.enumerate_words(6)) == expected

    def test_cross_section_recovers_demo(self):
        t = z_rewriting_fixture()
        section = autostackable_projection(t)
        demo = cross_section_to_demo(section, z_demo().oracle)
        reference = z_demo()
        assert set(demo.language.enumerate_words(6)) == \
            set(reference.language.enumerate_words(6))
        assert demo.verify_no_identity(6) == []
        assert demo.verify_coverage(6, 6).complete

    def test_rep_must_be_accepted(self):
        with pytest.raises(ValueError, match="not in the language"):
            cross_section_to_demo(z_demo().language, z_demo().oracle)

    def test_rep_must_be_identity(self):
        lang = finite_language([EPSILON, (Letter("a"),)])
        with pytest.raises(ValueError, match="evaluates elsewhere"):
            cross_section_to_demo(lang, z_demo().oracle, (Letter("a"),))


# -- every construct output is again a demonstration ---------------------


def free2_demo(prefix):
    """``free_demo(2)`` over generators named ``prefix`` a and b."""
    oracle = FreeGroupOracle(2, (prefix + "a", prefix + "b"))
    base = free_demo(2).language
    language = inverse_letter_hom(base, dict(zip(oracle.alphabet, base.alphabet)),
                                  oracle.alphabet)
    return Demonstration(oracle, identity_eval_map(oracle.alphabet), language)


def z2_z3_demo(prefix):
    """Z2 * Z3 as a graph product of two finite demonstrations."""
    c3 = PermutationOracle(3, {Letter(prefix + "r"): (1, 2, 0), Letter(prefix + "r2"): (2, 0, 1)})
    graph = VertexGraph.make((prefix + "u", prefix + "v"), [])
    return graph_product(graph, {prefix + "u": c2_demo(prefix + "s"),
                                 prefix + "v": finite_demo(c3)})


# each group as a demonstration whose letters evaluate to themselves, with
# its odd letters: words with an even number of them form a subgroup H of
# index two
CLOSURE_GROUPS = {
    "Z": lambda p: (zk_demo(1, names=(p + "a",)), {p + "a", p + "a^-1"}),
    "Z2": lambda p: (zk_demo(2, names=(p + "a", p + "b")), {p + "a", p + "a^-1"}),
    "S3": lambda p: (finite_demo(s3_oracle(p)), {p + "(12)", p + "(13)", p + "(23)"}),
    "free2": lambda p: (free2_demo(p), {p + "a", p + "a^-1"}),
    "Z2*Z3": lambda p: (z2_z3_demo(p), {p + "s"}),
}


def with_empty_word(demo):
    language = demo.language
    return Demonstration(demo.oracle, demo.eval_map,
                         union(language, finite_language([EPSILON], language.alphabet)))


@dataclass
class ClosureGroup:
    demo: Demonstration
    odd: frozenset
    table: CosetTable  # the cosets of H
    in_h: Callable  # membership of H, for keys within six letters
    sub: Demonstration  # H, as fi_subgroup builds it


@functools.cache
def closure_group(name, prefix=""):
    demo, odd = CLOSURE_GROUPS[name](prefix)
    oracle = demo.oracle
    even = {key for key, w in oracle.ball(6).items() if sum(x in odd for x in w) % 2 == 0}
    t = next(x for x in oracle.alphabet if x in odd)
    table = CosetTable(oracle, ("H", "K"), {"H": EPSILON, "K": (t,)},
                       {(c, x): "HK"[(c == "K") != (x in odd)]
                        for c in "HK" for x in oracle.alphabet})
    return ClosureGroup(demo, frozenset(odd), table, even.__contains__, fi_subgroup(demo, table))


def predicate(kind, group):
    """A membership predicate for H: right, inverted, true of everything,
    true of the identity alone, or None."""
    identity = group.demo.oracle.identity_key
    return {"right": group.in_h, "inverted": lambda key: not group.in_h(key),
            "everything": lambda key: True, "identity": lambda key: key == identity,
            "none": None}[kind]


def draw_change_generators(draw, name):
    group = closure_group(name)
    demo = draw(st.sampled_from([group.demo, group.sub, with_empty_word(group.sub)]),
                label="demo")
    oracle = demo.oracle
    renamed = {x: Letter("t" + x) for x in oracle.alphabet}
    phi = {x: tuple(renamed[y] for y in demo.eval_map[x]) for x in demo.language.alphabet}
    x, y = draw(st.sampled_from(sorted(phi))), draw(st.sampled_from(oracle.alphabet))
    phi[x] = draw(st.sampled_from([
        phi[x], phi[x] + (renamed[y], renamed[oracle.inverse_letter(y)]),
        draw(st.lists(st.sampled_from(list(renamed.values())), max_size=2).map(tuple))]),
        label=f"image of {x}")
    return lambda: change_generators(demo, {renamed[x]: (x,) for x in oracle.alphabet}, phi)


def draw_extension(draw, name):
    group = closure_group(name)
    demo_n = draw(st.sampled_from([group.sub, group.sub, with_empty_word(group.sub), group.demo]),
                  label="normal subgroup demo")
    oracle = group.demo.oracle
    reps = (Letter("q1"), Letter("q2"))
    q1, q2 = reps
    images = {q1: (draw(st.sampled_from(sorted(group.odd))),),
              q2: (draw(st.sampled_from(oracle.alphabet)),)}
    words = draw(st.lists(st.sampled_from([(q1,), (q1,), (q2,), (q1, q2), EPSILON]),
                          min_size=1, max_size=2), label="quotient words")
    demo_q = Demonstration(oracle, images, finite_language(words, reps))
    in_normal = predicate(draw(st.sampled_from(["right", "right", "inverted", "everything",
                                                "identity"]), label="in_normal"), group)
    return lambda: extension(demo_n, demo_q, oracle, in_normal, check_len=2)


def draw_fi_overgroup(draw, name):
    group = closure_group(name)
    demo = draw(st.sampled_from([group.sub, group.sub, with_empty_word(group.sub)]),
                label="subgroup demo")
    oracle = group.demo.oracle
    kind = draw(st.sampled_from(["right", "inverted", "everything", "identity", "none"]),
                label="in_subgroup")
    odd = sorted(group.odd)
    x = draw(st.sampled_from(oracle.alphabet))
    reps = [(draw(st.sampled_from(odd)),)] * 2 + [(x, oracle.inverse_letter(x))]
    # a letter inside H but not the identity is trusted unless a predicate
    # catches it: one that holds on H, or an inverted one, which is refused
    if kind in ("right", "everything", "inverted"):
        reps += [(x, draw(st.sampled_from(odd)))] if x in group.odd else [(x,)]
    transversal = {Letter(f"t{i}"): draw(st.sampled_from(reps), label=f"t{i}")
                   for i in range(draw(st.integers(min_value=1, max_value=2)))}
    return lambda: fi_overgroup(demo, oracle, transversal, predicate(kind, group))


def draw_fi_subgroup(draw, name):
    group = closure_group(name)
    demo = draw(st.sampled_from([group.demo, with_empty_word(group.demo)]), label="demo")
    right = group.table
    oracle = right.oracle
    action, transversal, cosets = dict(right.action), dict(right.transversal), right.cosets
    kind = draw(st.sampled_from(["right", "right", "partial", "inconsistent", "transversal",
                                 "home"]), label="table")
    key = draw(st.sampled_from(sorted(action)))
    if kind == "partial":
        del action[key]
    elif kind == "inconsistent":
        action[key] = "H" if action[key] == "K" else "K"
    elif kind == "transversal":
        transversal["K"] = draw(st.sampled_from([EPSILON, *((x,) for x in oracle.alphabet)]))
    elif kind == "home":
        cosets = cosets[::-1]
    table = CosetTable(oracle, cosets, transversal, action)
    kind = draw(st.sampled_from(["right", "inverted", "everything", "identity", "none"]),
                label="in_subgroup")
    return lambda: fi_subgroup(demo, table, predicate(kind, group))


def draw_graph_product(draw, name):
    names = [name]
    # free(2) beside another group has too many words of six letters to check
    if name != "free2" and draw(st.booleans()):
        names.append(draw(st.sampled_from(sorted(set(CLOSURE_GROUPS) - {"free2"}))))
    vertices = "uv"[:len(names)]
    edges = [tuple(vertices)] if len(vertices) == 2 and draw(st.booleans()) else []
    local = {}
    for v, n in zip(vertices, names):
        # two vertices with one prefix share their letters, which is refused
        demo = closure_group(n, draw(st.sampled_from([v + "."] * 3 + [""]))).demo
        local[v] = draw(st.sampled_from([demo, demo, with_empty_word(demo)]), label=f"{v} demo")
    return lambda: graph_product(VertexGraph.make(vertices, edges), local)


CLOSURE_VERBS = {"change_generators": draw_change_generators, "extension": draw_extension,
                 "fi_overgroup": draw_fi_overgroup, "fi_subgroup": draw_fi_subgroup,
                 "graph_product": draw_graph_product}


@settings(deadline=None, max_examples=500, derandomize=True)
@given(st.data())
def test_no_construct_writes_an_identity_word(data):
    """Each closure theorem says a construct's output is again a
    demonstration: every call either refuses its inputs with ValueError
    or returns a language with no identity word up to six letters.  The
    inputs include demonstrations that accept the empty word, inverted
    and wrong predicates, and wrong coset tables."""
    verb = data.draw(st.sampled_from(sorted(CLOSURE_VERBS)), label="verb")
    call = CLOSURE_VERBS[verb](data.draw, data.draw(st.sampled_from(sorted(CLOSURE_GROUPS)),
                                                    label="group"))
    try:
        out = call()
    except ValueError:
        return
    assert out.verify_no_identity(6) == []
