"""Acceptance gate: eleven end-to-end checks with runtime caps.

Each check prints one ``[acceptance]`` pass/fail line (visible under
``pytest -s``) and fails the suite if its bound or budget is exceeded.
Reference answers come from the brute-force helpers in ``oracles.py`` or
from exhaustive enumeration, never from the code paths under test.
"""

import contextlib
import itertools
import random
import time

from epicdemo.automata import (
    EPSILON,
    Letter,
    Nfa,
    concat,
    image_hom,
    intersect,
    inverse_letter_hom,
    make_word,
    union,
)
from epicdemo.constructions import (
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
from epicdemo.demonstrations import finite_demo, z_demo, zk_demo
from epicdemo.graphproduct import VertexGraph
from epicdemo.groups import PermutationOracle
from epicdemo.wordproblem import (
    IN_WP,
    NOT_IN_WP,
    Presentation,
    decide_word,
    demonstration_enumerator,
    normal_closure_enumerator,
    replay,
)

from oracles import bf_accepts, bf_language, bf_pruned_types, words_upto
from test_groups import heisenberg_oracle, s3_oracle
from test_constructions import (
    a3_table,
    c2_demo,
    central_demo,
    dinf_oracle,
    even_table,
    in_center,
    quotient_demo,
    translations_demo,
    z_rewriting_fixture,
)


@contextlib.contextmanager
def criterion(number, label, limit):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} {label}: FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"[acceptance] criterion {number} {label}: {verdict} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)", flush=True)
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeded the {limit}s cap"


def test_01_integers_demo_exact():
    with criterion(1, "integers demo exact to length 12", 1.0):
        demo = z_demo()
        assert demo.verify_no_identity(12) == []
        report = demo.verify_coverage(12, 12)
        assert report.clean and report.complete
        assert report.sorted_missing() == []


def test_02_s3_single_letter_demo_total():
    with criterion(2, "symmetric group single-letter demo total", 1.0):
        demo = finite_demo(s3_oracle())
        assert demo.verify_no_identity(3) == []
        report = demo.verify_coverage(1, 1)
        assert report.clean and report.complete
        assert len(report.covered) == 5


def test_03_operations_match_brute_force():
    with criterion(3, "200 automata pairs, five operations vs brute force", 60.0):
        rng = random.Random(20260825)
        src = (Letter("a"), Letter("b"))
        dst = (Letter("c"), Letter("d"))
        probe_src = list(words_upto(src, 5))
        probe_dst = list(words_upto(dst, 5))

        def random_nfa():
            n = rng.randint(1, 5)
            states = frozenset(range(n))
            labels = list(src) + [None]
            trans = set()
            for _ in range(rng.randint(0, 2 * n + 2)):
                trans.add((rng.randrange(n), rng.choice(labels), rng.randrange(n)))
            initials = frozenset(rng.sample(range(n), rng.randint(1, n)))
            accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
            return Nfa(src, states, frozenset(trans), initials, accepting)

        for _ in range(200):
            a, b = random_nfa(), random_nfa()
            u, c, i = union(a, b), concat(a, b), intersect(a, b)
            phi = {x: tuple(rng.choice(dst) for _ in range(rng.randint(1, 2)))
                   for x in src}
            img = image_hom(a, phi, target_alphabet=dst)
            hom = {x: rng.choice(src) for x in dst}
            pre = inverse_letter_hom(a, hom, dst)
            a_words = bf_language(a, 5)
            for w in probe_src:
                assert u.accepts(w) == (bf_accepts(a, w) or bf_accepts(b, w))
                assert c.accepts(w) == any(
                    bf_accepts(a, w[:k]) and bf_accepts(b, w[k:])
                    for k in range(len(w) + 1))
                assert i.accepts(w) == (bf_accepts(a, w) and bf_accepts(b, w))
            for w in probe_dst:
                expected = any(
                    tuple(y for x in v for y in phi[x]) == w for v in a_words)
                assert img.accepts(w) == expected
                assert pre.accepts(w) == bf_accepts(a, tuple(hom[x] for x in w))


def test_04_heisenberg_extension():
    with criterion(4, "Heisenberg demo from center and quotient demos", 60.0):
        oracle = heisenberg_oracle()
        demo = extension(central_demo(oracle), quotient_demo(oracle), oracle, in_center)
        assert demo.verify_no_identity(8) == []
        report = demo.verify_coverage(3, 10)
        assert report.clean and report.complete
        assert report.sorted_missing() == []


def test_05_infinite_dihedral_overgroup():
    with criterion(5, "infinite dihedral demo over the translations", 30.0):
        oracle = dinf_oracle()
        demo = fi_overgroup(translations_demo(oracle), oracle,
                            {Letter("s"): make_word("s")})
        assert demo.verify_no_identity(10) == []
        report = demo.verify_coverage(4, 10)
        assert report.clean and report.complete
        assert report.sorted_missing() == []


def test_06_finite_index_subgroups():
    with criterion(6, "even integers and alternating subgroup demos", 30.0):
        evens = fi_subgroup(z_demo(), even_table())
        assert evens.verify_no_identity(6) == []
        report = evens.verify_coverage(6, 6)
        assert report.clean
        assert {k.data[0] for k in report.covered} == {-6, -4, -2, 2, 4, 6}

        s3 = finite_demo(s3_oracle())
        alt = fi_subgroup(s3, a3_table())
        assert alt.verify_no_identity(4) == []
        rotations = {s3.oracle.evaluate(make_word("(123)")),
                     s3.oracle.evaluate(make_word("(132)"))}
        alt_report = alt.verify_coverage(1, 2)
        assert alt_report.clean and set(alt_report.covered) == rotations

        # relabelled edge words and their plain spellings agree elementwise
        for demo, base in ((evens, z_demo()), (alt, s3)):
            for w in demo.language.enumerate_words(6):
                spelled = tuple(Letter(split_triple(x)[1]) for x in w)
                assert demo.evaluate(w) == base.oracle.evaluate(spelled)


def _graph_representatives(names):
    """One representative edge list per isomorphism class on these vertices."""
    n = len(names)
    pairs = list(itertools.combinations(range(n), 2))
    classes = {}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = frozenset(p for p, keep in zip(pairs, bits) if keep)
        canon = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            for perm in itertools.permutations(range(n)))
        classes.setdefault(canon, edges)
    return [[(names[u], names[v]) for u, v in sorted(e)] for e in classes.values()]


def test_07_admissible_automata_all_small_graphs():
    with criterion(7, "admissible type languages on every graph up to 4 vertices", 300.0):
        all_names = ("p", "q", "r", "s")
        sizes = []
        for n in range(1, 5):
            names = all_names[:n]
            reps = _graph_representatives(names)
            sizes.append(len(reps))
            for edges in reps:
                g = VertexGraph.make(names, edges)
                adm = admissible_automaton(g)
                got = {tuple(x.name for x in w) for w in adm.enumerate_words(8)}
                assert got == bf_pruned_types(names, g.adjacent, 8)
        assert sizes == [1, 2, 4, 11]


def test_08_graph_products():
    with criterion(8, "square, free product of involutions, abelian plane", 120.0):
        edge = VertexGraph.make(("u", "v"), [("u", "v")])
        no_edge = VertexGraph.make(("u", "v"), [])

        square = graph_product(edge, {"u": c2_demo("a"), "v": c2_demo("b")})
        assert square.verify_no_identity(4) == []
        square_report = square.verify_coverage(2, 2)
        assert square_report.clean and square_report.complete
        assert len(square_report.covered) == 3

        free = graph_product(no_edge, {"u": c2_demo("a"), "v": c2_demo("b")})
        assert free.verify_no_identity(10) == []
        free_report = free.verify_coverage(5, 10)
        assert free_report.clean and free_report.complete

        plane = graph_product(edge, {"u": z_demo("a"), "v": z_demo("b")})
        assert plane.verify_no_identity(8) == []
        plane_report = plane.verify_coverage(4, 8)
        assert plane_report.clean and plane_report.complete


def test_09_projection_and_cross_section():
    with criterion(9, "rewriting fixture projects to sign-consistent powers", 5.0):
        fixture = z_rewriting_fixture()
        section = autostackable_projection(fixture)
        a, ainv = Letter("a"), Letter("a^-1")
        expected = {EPSILON}
        for n in range(1, 11):
            expected.add((a,) * n)
            expected.add((ainv,) * n)
        assert set(section.enumerate_words(10)) == expected

        demo = cross_section_to_demo(section, z_demo().oracle)
        reference = z_demo()
        assert set(demo.language.enumerate_words(10)) == \
            set(reference.language.enumerate_words(10))
        assert demo.verify_no_identity(10) == []
        assert demo.verify_coverage(10, 10).complete


def test_10_word_problem_decisions():
    with criterion(10, "commuting-pair presentation decisions with replay", 300.0):
        presentation = Presentation(("a", "b"),
                                    (make_word("a", "b", "a^-1", "b^-1"),))
        demo = zk_demo(2)

        def fresh():
            return (demonstration_enumerator(demo),
                    normal_closure_enumerator(presentation))

        language, closure = fresh()
        inside = decide_word(make_word("a", "b", "a^-1", "b^-1"),
                             language, closure, 10**6)
        assert inside.kind == IN_WP and inside.comparisons <= 10**6
        assert replay(make_word("a", "b", "a^-1", "b^-1"), *fresh(),
                      inside.certificate)

        language, closure = fresh()
        outside = decide_word(make_word("a", "b"), language, closure, 10**6)
        assert outside.kind == NOT_IN_WP and outside.comparisons <= 10**6
        assert replay(make_word("a", "b"), *fresh(), outside.certificate)


def test_11_generating_set_changes():
    with criterion(11, "relabelled integers and two-generator symmetric group", 10.0):
        d = z_demo()
        b, binv = Letter("b"), Letter("b^-1")
        relabelled = change_generators(
            d, {b: make_word("a"), binv: make_word("a^-1")},
            {Letter("a"): (b,), Letter("a^-1"): (binv,)})
        assert relabelled.verify_no_identity(10) == []
        report = relabelled.verify_coverage(10, 10)
        assert report.clean and report.complete

        s3 = finite_demo(s3_oracle())
        t, r = Letter("(12)"), Letter("(123)")
        search = PermutationOracle(3, {t: s3.oracle.gens[t], r: s3.oracle.gens[r]})
        witnesses = search.ball(6)
        phi = {x: witnesses[s3.evaluate((x,))] for x in s3.language.alphabet}
        rewritten = change_generators(s3, {t: (t,), r: (r,)}, phi)
        assert rewritten.verify_no_identity(6) == []
        s3_report = rewritten.verify_coverage(1, 6)
        assert s3_report.clean and s3_report.complete
        old_keys = {s3.evaluate(w) for w in s3.language.enumerate_words(1)}
        new_keys = {rewritten.evaluate(w) for w in rewritten.language.enumerate_words(6)}
        assert new_keys <= old_keys
