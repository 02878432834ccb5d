import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from epicdemo.automata import EPSILON, Letter, make_word
from epicdemo.graphproduct import GraphProductOracle, VertexGraph
from epicdemo.groups import (
    FreeAbelianOracle,
    FreeGroupOracle,
    IntegerMatrixOracle,
    PermutationOracle,
    cycles_from_perm,
    identity_matrix,
    mat_det,
    mat_mul,
    perm_from_cycles,
)

from oracles import DataclassElementKey, ascii_evaluate, cofactor_det, indexed_mat_mul, \
    rewriting_prune, shuffle_class, wordwise_ball


def z_oracle(name="a"):
    return FreeAbelianOracle(1, {Letter(name): (1,), Letter(name + "^-1"): (-1,)})


def s3_oracle(prefix=""):
    """S3 on its five non-identity elements, letters named by their cycles
    after ``prefix``."""
    gens = {
        Letter(prefix + "(12)"): perm_from_cycles([[1, 2]], 3),
        Letter(prefix + "(13)"): perm_from_cycles([[1, 3]], 3),
        Letter(prefix + "(23)"): perm_from_cycles([[2, 3]], 3),
        Letter(prefix + "(123)"): perm_from_cycles([[1, 2, 3]], 3),
        Letter(prefix + "(132)"): perm_from_cycles([[1, 3, 2]], 3),
    }
    return PermutationOracle(3, gens)


def c2_oracle(name):
    return PermutationOracle(2, {Letter(name): (1, 0)})


def heisenberg_oracle():
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    z = ((1, 0, 1), (0, 1, 0), (0, 0, 1))

    def inv(m):
        # unitriangular 3x3 inverse, exact
        a, c = m[0][1], m[0][2]
        b = m[1][2]
        return ((1, -a, a * b - c), (0, 1, -b), (0, 0, 1))

    gens = {
        Letter("x"): x, Letter("x^-1"): inv(x),
        Letter("y"): y, Letter("y^-1"): inv(y),
        Letter("z"): z, Letter("z^-1"): inv(z),
    }
    return IntegerMatrixOracle(3, gens)


class TestPermutations:
    def test_cycle_round_trip(self):
        perm = perm_from_cycles([[1, 2, 3], [4, 5]], 6)
        assert cycles_from_perm(perm) == [[1, 2, 3], [4, 5]]

    def test_composition_is_left_to_right(self):
        o = s3_oracle()
        # (12) then (123): 1 -> 2 -> 3
        img = o.fold(make_word("(12)", "(123)"))
        assert img[0] == 2

    def test_s3_has_six_elements(self):
        o = s3_oracle()
        keys = {o.evaluate(w) for w in itertools.chain.from_iterable(
            itertools.product(o.alphabet, repeat=n) for n in range(4))}
        assert len(keys) == 6

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            PermutationOracle(2, {Letter("a"): (0, 0)})

    def test_inverse_letter_pairing(self):
        o = s3_oracle()
        assert o.inverse_letter(Letter("(12)")) == Letter("(12)")
        assert o.inverse_letter(Letter("(123)")) == Letter("(132)")


class TestFreeAbelian:
    def test_sums_vectors(self):
        o = FreeAbelianOracle(2, {Letter("a"): (1, 0), Letter("b"): (0, 1),
                                  Letter("a^-1"): (-1, 0), Letter("b^-1"): (0, -1)})
        assert o.fold(make_word("a", "b", "a", "b^-1")) == (2, 0)
        assert o.is_identity(make_word("a", "a^-1"))

    def test_ball_of_z_is_interval(self):
        o = z_oracle()
        ball = o.ball(12)
        assert len(ball) == 25
        values = {k.data[0]: w for k, w in ball.items()}
        assert set(values) == set(range(-12, 13))
        for n, witness in values.items():
            assert len(witness) == abs(n)

    def test_ball_witness_is_length_lex_least(self):
        o = FreeAbelianOracle(1, {Letter("a"): (1,), Letter("b"): (1,)})
        ball = o.ball(3)
        witnesses = sorted(ball.values(), key=len)
        assert witnesses == [EPSILON, make_word("a"), make_word("a", "a"),
                             make_word("a", "a", "a")]


class TestFreeGroup:
    def test_reduction_cancels_adjacent_inverses(self):
        o = FreeGroupOracle(2)
        assert o.fold(make_word("a", "a^-1")) == EPSILON
        assert o.fold(make_word("a", "b", "b^-1", "a")) == make_word("a", "a")

    def test_names_given_as_a_list_are_kept_as_a_tuple(self):
        # a workspace finds a group by equality, whatever spelled its names
        o = FreeGroupOracle(2, ["a", "b"])
        assert o.names == ("a", "b") and o == FreeGroupOracle(2)

    def test_alphabet_interleaves_inverses(self):
        o = FreeGroupOracle(2)
        assert [x.name for x in o.alphabet] == ["a", "a^-1", "b", "b^-1"]

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=10))
    def test_reduction_matches_repeated_single_pass(self, indices):
        o = FreeGroupOracle(2)
        word = tuple(o.alphabet[i] for i in indices)

        def single_pass_fixpoint(w):
            w = list(w)
            while True:
                for i in range(len(w) - 1):
                    a, b = o.alphabet.index(w[i]), o.alphabet.index(w[i + 1])
                    if a ^ 1 == b:
                        del w[i:i + 2]
                        break
                else:
                    return tuple(w)

        assert o.fold(word) == single_pass_fixpoint(word)

    def test_reduced_word_is_fixed_point(self):
        o = FreeGroupOracle(2)
        w = make_word("a", "b", "a^-1")
        assert o.fold(o.fold(w)) == o.fold(w)


@st.composite
def integer_matrices(draw):
    """Square integer matrices of dimension 1-6; some have a zero leading
    entry, some a repeated row or a zero column, so elimination meets zero
    pivots and singular input."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = [draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n))
         for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = 0
    shape = draw(st.sampled_from(["any", "repeated-row", "zero-column"]))
    if shape == "repeated-row" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        m[j] = list(m[i])
    elif shape == "zero-column":
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row in m:
            row[j] = 0
    return tuple(tuple(row) for row in m)


class TestIntegerMatrices:
    @settings(deadline=None, max_examples=300)
    @given(integer_matrices())
    def test_determinant_matches_cofactor_expansion(self, m):
        assert mat_det(m) == cofactor_det(m)

    def test_determinant_swaps_rows_on_zero_pivot(self):
        assert mat_det(((0, 1), (1, 0))) == -1
        assert mat_det(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1
        assert mat_det(((0, 2, 1), (0, 1, 5), (0, 3, 7))) == 0
        assert mat_det(((1, 2, 3), (2, 4, 6), (1, 0, 1))) == 0

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_product_matches_indexed_reference(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        entries = st.one_of(st.integers(min_value=-4, max_value=4),
                            st.integers(min_value=-10**30, max_value=10**30))
        a, b = (tuple(tuple(data.draw(st.lists(entries, min_size=n, max_size=n)))
                      for _ in range(n)) for _ in range(2))
        assert mat_mul(a, b) == indexed_mat_mul(a, b)

    def test_exact_product(self):
        a = ((1, 1), (0, 1))
        assert mat_mul(a, a) == ((1, 2), (0, 1))
        assert mat_det(((2, 1), (1, 1))) == 1

    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            IntegerMatrixOracle(2, {Letter("m"): ((2, 0), (0, 1))})

    def test_heisenberg_commutator_is_central_generator(self):
        o = heisenberg_oracle()
        w = make_word("x", "y", "x^-1", "y^-1")
        got = o.fold(w)
        # brute check with raw matmul, no oracle involved
        raw = identity_matrix(3)
        for letter in w:
            raw = mat_mul(raw, o.gens[letter])
        assert got == raw == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
        assert o.evaluate(w) == o.evaluate(make_word("z"))

    def test_large_entries_stay_exact(self):
        o = heisenberg_oracle()
        word = make_word(*(["x"] * 40 + ["y"] * 40))
        assert o.fold(word)[0][2] == 1600


class TestKeys:
    def test_backends_never_collide(self):
        zk = FreeAbelianOracle(1, {Letter("a"): (1,)})
        zk2 = FreeAbelianOracle(2, {Letter("a"): (1, 0)})
        assert zk.identity_key != zk2.identity_key
        assert z_oracle().identity_key != FreeGroupOracle(1).identity_key

    def test_keys_are_sortable(self):
        o = z_oracle()
        keys = sorted(o.ball(2))
        assert keys == sorted(keys)

    def test_keys_sort_as_rendered_text(self):
        o = z_oracle()
        keys = [o.evaluate(make_word(*names)) for names in (["a"] * 2, ["a^-1"], ["a"] * 10)]
        assert [k.data for k in keys] == [(2,), (-1,), (10,)]
        assert [k.render() for k in sorted(keys)] == ["zk1[-1]", "zk1[10]", "zk1[2]"]

    def test_key_is_its_tuple(self):
        key = z_oracle().evaluate(make_word("a"))
        assert repr(key) == "ElementKey(zk1[1])"
        assert key == ("zk1", (1,)) and hash(key) == hash(("zk1", (1,)))
        assert (key.backend, key.data) == tuple(key)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_keys_match_dataclass_reference(self, data):
        # keys of two drawn oracles, so backends meet as well as elements
        keys = []
        for o in (data.draw(oracles()), data.draw(oracles())):
            words = st.lists(st.sampled_from(o.alphabet), max_size=8).map(tuple)
            keys += [o.evaluate(w) for w in data.draw(st.lists(words, min_size=1, max_size=6))]
        refs = [DataclassElementKey.of(k) for k in keys]
        for k1, r1 in zip(keys, refs):
            for k2, r2 in zip(keys, refs):
                assert (k1 == k2) == (r1 == r2)
                assert ([k1 < k2, k1 <= k2, k1 > k2, k1 >= k2]
                        == [r1 < r2, r1 <= r2, r1 > r2, r1 >= r2])
        half = len(keys) // 2
        key_set, ref_set = set(keys[:half]), set(refs[:half])
        assert [k in key_set for k in keys] == [r in ref_set for r in refs]
        assert [DataclassElementKey.of(k) for k in sorted(keys)] == sorted(refs)


def square_graph_oracle():
    """C2 x C2: one edge, two order-two vertex groups."""
    g = VertexGraph.make(("u", "v"), [("u", "v")])
    return GraphProductOracle(g, {"u": c2_oracle("a"), "v": c2_oracle("b")})


def free_product_oracle():
    """C2 * C2: same vertex groups, no edge."""
    g = VertexGraph.make(("u", "v"), [])
    return GraphProductOracle(g, {"u": c2_oracle("a"), "v": c2_oracle("b")})


def raag_path_oracle():
    """Right-angled Artin group on the path u - v - w."""
    g = VertexGraph.make(("u", "v", "w"), [("u", "v"), ("v", "w")])
    return GraphProductOracle(g, {
        "u": z_oracle("x"), "v": z_oracle("y"), "w": z_oracle("z")})


class TestGraphProduct:
    def test_alphabets_must_be_disjoint(self):
        g = VertexGraph.make(("u", "v"), [])
        with pytest.raises(ValueError):
            GraphProductOracle(g, {"u": c2_oracle("a"), "v": c2_oracle("a")})

    def test_decompose_maximal_runs(self):
        o = square_graph_oracle()
        word = make_word("a", "a", "b", "a")
        vertex_of = {x: v for v, local in o.vertex_oracles.items() for x in local.alphabet}
        runs = [(v, tuple(sub)) for v, sub in itertools.groupby(word, vertex_of.__getitem__)]
        assert [v for v, _ in runs] == ["u", "v", "u"]
        assert runs[0] == ("u", make_word("a", "a"))
        # a a cancels in C2, and b shuffles past the last a
        assert o.prune(word) == (make_word("a", "b"), ("u", "v"))

    def test_prune_commuting_square(self):
        o = square_graph_oracle()
        pruned, types = o.prune(make_word("a", "b", "a"))
        # b commutes past a, the two a's cancel in C2
        assert pruned == make_word("b")
        assert types == ("v",)

    def test_prune_free_product_keeps_alternation(self):
        o = free_product_oracle()
        pruned, types = o.prune(make_word("a", "b", "a"))
        assert pruned == make_word("a", "b", "a")
        assert types == ("u", "v", "u")

    def test_prune_blocked_shuffle_keeps_type(self):
        # z and x sit at non-adjacent path ends, so wu cannot become uw
        o = raag_path_oracle()
        pruned, types = o.prune(make_word("z", "x"))
        assert types == ("w", "u")
        assert pruned == make_word("z", "x")

    def test_prune_shortlex_reorders_adjacent(self):
        o = raag_path_oracle()
        pruned, types = o.prune(make_word("y", "x"))
        assert types == ("u", "v")
        assert pruned == make_word("x", "y")

    def test_identity_is_empty_type(self):
        o = square_graph_oracle()
        assert o.evaluate(make_word("a", "b", "a", "b")) == o.identity_key
        assert o.evaluate(EPSILON) == o.identity_key

    def test_square_graph_matches_parity_table(self):
        o = square_graph_oracle()
        a, b = Letter("a"), Letter("b")
        for length in range(6):
            for word in itertools.product((a, b), repeat=length):
                parity = (sum(1 for x in word if x == a) % 2,
                          sum(1 for x in word if x == b) % 2)
                expected_parts = []
                if parity[0]:
                    expected_parts.append("u")
                if parity[1]:
                    expected_parts.append("v")
                _, types = o.prune(word)
                assert list(types) == expected_parts

    def test_free_product_matches_cancellation(self):
        o = free_product_oracle()
        a, b = Letter("a"), Letter("b")

        def cancel(word):
            out = []
            for x in word:
                if out and out[-1] == x:
                    out.pop()
                else:
                    out.append(x)
            return tuple(out)

        for length in range(7):
            for word in itertools.product((a, b), repeat=length):
                _, types = o.prune(word)
                nf = cancel(word)
                # pruning does not shrink inside a local string, so compare
                # alternation patterns and elements, not raw letters
                assert types == tuple("u" if x == a else "v" for x in nf)
                assert o.evaluate(word) == o.evaluate(nf)

    def test_dihedral_ball_radius_4(self):
        o = free_product_oracle()
        # alternating words of length 0..4: 1 + 2 + 2 + 2 + 2
        assert len(o.ball(4)) == 9

    def test_raag_keys_match_exponent_sums(self):
        o = raag_path_oracle()
        # u and v commute, so key depends only on the pair of exponent sums
        k1 = o.evaluate(make_word("x", "y", "x"))
        k2 = o.evaluate(make_word("y", "x", "x"))
        assert k1 == k2
        assert o.evaluate(make_word("x", "z")) != o.evaluate(make_word("z", "x"))

    GRAPHS = {"edgeless": [], "path": [("u", "v"), ("v", "w")],
              "complete": [("u", "v"), ("u", "w"), ("v", "w")]}

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_prune_is_idempotent_and_preserves_element(self, data):
        """Z and S3 vertex groups on three vertices, edgeless, on a path or
        complete, against the whole-word rewriting in tests/oracles.py:
        keys, syllables and balls."""
        shape = data.draw(st.sampled_from(sorted(self.GRAPHS)))
        graph = VertexGraph.make("uvw", self.GRAPHS[shape])
        kinds = data.draw(st.lists(st.sampled_from([z_oracle, s3_oracle]), min_size=3, max_size=3))
        o = GraphProductOracle(graph, {v: kind(v) for v, kind in zip("uvw", kinds)})
        word = data.draw(st.lists(st.sampled_from(o.alphabet), max_size=10).map(tuple))
        assert o.key(o.fold(word)).render() == ascii_evaluate(o, word)
        pruned, types = o.prune(word)
        vertex_of = {x: v for v, local in o.vertex_oracles.items() for x in local.alphabet}
        syllables = [(v, ascii_evaluate(o.vertex_oracles[v], tuple(sub)))
                     for v, sub in itertools.groupby(pruned, vertex_of.__getitem__)]
        assert syllables == [(v, ascii_evaluate(o.vertex_oracles[v], sub))
                             for v, sub in rewriting_prune(o, word)]
        assert types == tuple(v for v, _ in syllables)
        again, types2 = o.prune(pruned)
        assert again == pruned
        assert types2 == types
        assert o.evaluate(pruned) == o.evaluate(word)
        radius = 2 if s3_oracle in kinds else 3
        got = [(k.render(), w) for k, w in o.ball(radius).items()]
        assert got == list(wordwise_ball(o, radius).items())

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=8))
    def test_pruned_type_is_shortlex_least_of_its_class(self, indices):
        o = raag_path_oracle()
        word = tuple(o.alphabet[i] for i in indices)
        _, types = o.prune(word)
        cls = shuffle_class(types, o.graph.adjacent)
        rank = {v: i for i, v in enumerate(o.graph.vertices)}
        assert types == min(cls, key=lambda t: [rank[v] for v in t])
        # no member of the class has two equal neighbouring vertices
        assert not any(any(s[i] == s[i + 1] for i in range(len(s) - 1)) for s in cls)


@st.composite
def vertex_oracles(draw, v):
    """A zk (with a zero generator among the drawn vectors), perm or free
    vertex group whose letter names start with the vertex name."""
    kind = draw(st.sampled_from(["zk", "perm", "free"]))
    if kind == "free":
        return FreeGroupOracle(1, (v + "f",))
    letters = [Letter(v + n) for n in "pq"[:draw(st.integers(min_value=1, max_value=2))]]
    if kind == "zk":
        return FreeAbelianOracle(1, {x: (draw(st.integers(min_value=-1, max_value=1)),)
                                     for x in letters})
    degree = draw(st.integers(min_value=1, max_value=3))
    return PermutationOracle(degree, {
        x: tuple(draw(st.permutations(range(degree)))) for x in letters})


@st.composite
def oracles(draw):
    """An oracle of one of the five backends on drawn generators; graph
    products have 1-4 vertices, drawn edges and drawn vertex groups."""
    kind = draw(st.sampled_from(["perm", "zk", "free", "mat", "gp"]))
    letters = [Letter(n) for n in "abc"[:draw(st.integers(min_value=1, max_value=3))]]
    if kind == "perm":
        degree = draw(st.integers(min_value=1, max_value=4))
        return PermutationOracle(degree, {
            x: tuple(draw(st.permutations(range(degree)))) for x in letters})
    if kind == "zk":
        rank = draw(st.integers(min_value=1, max_value=3))
        entries = st.lists(st.integers(min_value=-3, max_value=3), min_size=rank, max_size=rank)
        return FreeAbelianOracle(rank, {x: tuple(draw(entries)) for x in letters})
    if kind == "free":
        return FreeGroupOracle(len(letters))
    if kind == "mat":
        dim = draw(st.integers(min_value=1, max_value=3))
        gens = {}
        for x in letters:
            m = [[int(i == j) for j in range(dim)] for i in range(dim)]
            i, j = (draw(st.integers(min_value=0, max_value=dim - 1)) for _ in range(2))
            m[i][j] = -1 if i == j else draw(st.integers(min_value=-2, max_value=2))
            gens[x] = tuple(map(tuple, m))
        return IntegerMatrixOracle(dim, gens)
    order = draw(st.permutations("uvwx"))[:draw(st.integers(min_value=1, max_value=4))]
    pairs = list(itertools.combinations(order, 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                        max_size=len(pairs)))) if keep]
    return GraphProductOracle(VertexGraph.make(order, edges),
                              {v: draw(vertex_oracles(v)) for v in order})


class TestOracleProtocol:
    """start/act/key against the ASCII evaluation and the word-by-word ball
    in tests/oracles.py."""

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_keys_match_ascii_reference(self, data):
        o = data.draw(oracles())
        words = data.draw(st.lists(st.lists(st.sampled_from(o.alphabet), max_size=8).map(tuple),
                                   min_size=1, max_size=6))
        words.append(EPSILON)
        keys = [o.evaluate(w) for w in words]
        texts = [ascii_evaluate(o, w) for w in words]
        assert [k.render() for k in keys] == texts
        assert o.identity_key == keys[-1]
        # keys order by the text between the brackets
        inner = [t[len(o.backend) + 1:-1] for t in texts]
        for k1, t1 in zip(keys, inner):
            for k2, t2 in zip(keys, inner):
                assert (k1 == k2) == (t1 == t2)
                assert (k1 < k2) == (t1 < t2)

    @settings(deadline=None, max_examples=150)
    @given(oracles(), st.integers(min_value=0, max_value=3))
    def test_ball_matches_wordwise_reference(self, o, radius):
        got = [(k.render(), w) for k, w in o.ball(radius).items()]
        assert got == list(wordwise_ball(o, radius).items())

    @settings(deadline=None, max_examples=150)
    @given(oracles(), st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6))
    @example(s3_oracle(), [1, 4, 2, 4, 0, 3])  # S3 has diameter 1 over these letters
    @example(FreeGroupOracle(2), [3, 2, 3, 4, 1])
    def test_balls_asked_in_turn_match_wordwise_reference(self, o, radii):
        """Radii that grow, shrink, repeat or pass a finite group's
        diameter, on one oracle: each ball is searched or replayed from the
        tree the oracle keeps, and is the reference's, in its order."""
        for radius in radii:
            got = [(k.render(), w) for k, w in o.ball(radius).items()]
            assert got == list(wordwise_ball(o, radius).items())
        assert o.ball(-1) == {}

    @settings(deadline=None, max_examples=100)
    @given(oracles(), st.integers(min_value=0, max_value=3), st.data())
    def test_ball_within_the_kept_tree_acts_once_per_element(self, o, first, data):
        o.ball(first)
        radius = data.draw(st.integers(min_value=0, max_value=first))
        with mock.patch.object(o, "act", wraps=o.act) as act:
            ball = o.ball(radius)
        assert act.call_count == len(ball) - 1

    def test_backends_implement_only_the_protocol(self):
        for cls in (PermutationOracle, FreeAbelianOracle, FreeGroupOracle,
                    IntegerMatrixOracle, GraphProductOracle):
            assert {"start", "act", "key"} <= set(vars(cls))
            assert not {"evaluate", "identity_key", "ball"} & set(vars(cls))

    @settings(deadline=None, max_examples=50)
    @given(oracles())
    def test_backend_tag_is_computed_once(self, o):
        # keys are built per word, so the tag must not be formatted per key
        assert o.backend is o.backend
        assert o.evaluate(EPSILON).backend is o.identity_key.backend
