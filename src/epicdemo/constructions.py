"""Constructions that turn demonstrations into new demonstrations.

Each function here realizes one closure property: changing generators,
passing to finite-index overgroups or subgroups, group extensions, graph
products, and extracting demonstrations from regular cross-sections such
as the normal forms of a padded-triple language.  All constructions are
effective on automata; preconditions that cannot be decided in general
are checked at caller-supplied bounds and trusted beyond them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .automata import (
    EPSILON,
    Letter,
    Nfa,
    Word,
    _product,
    check_alphabet,
    explore,
    finite_language,
    format_word,
    glue,
    image_hom,
    intersect,
    reachable,
    subtract_word,
)
from .demonstrations import Demonstration, identity_eval_map, spell
from .graphproduct import GraphProductOracle, VertexGraph
from .groups import ElementKey, GroupOracle

KeyPredicate = Callable[[ElementKey], bool]


# -- change of generators ------------------------------------------------


def change_generators(demo: Demonstration,
                      target_eval_map: Mapping[Letter, Word],
                      phi: Mapping[Letter, Word]) -> Demonstration:
    """Re-express a demonstration over a different letter set.

    ``phi`` sends each old letter to a non-empty word over the new letters
    that evaluates to the same group element; the language is pushed
    through the induced substitution.  Empty images are rejected: erasing
    a letter could silently drop elements from the image.
    """
    target_alphabet = check_alphabet(target_eval_map.keys())
    for x in phi:
        if x not in demo.language.alphabet:
            raise ValueError(f"image given for {x.name!r}, which the demonstration does not use")
    for x in demo.language.alphabet:
        if x not in phi:
            raise ValueError(f"no image for letter {x.name!r}")
        if not phi[x]:
            raise ValueError(f"image of {x.name!r} is the empty word")
        if demo.oracle.evaluate(spell(target_eval_map, phi[x])) != demo.evaluate((x,)):
            raise ValueError(f"image of {x.name!r} evaluates to a different element")
    if demo.language.accepts(EPSILON):
        raise ValueError("the demonstration accepts the empty word")
    language = image_hom(demo.language, phi, allow_erasing=False,
                         target_alphabet=target_alphabet)
    return Demonstration(demo.oracle, dict(target_eval_map), language)


# -- extensions and finite index overgroups ------------------------------


def _glued(oracle: GroupOracle, demos: Mapping[str, Demonstration], parts: Mapping,
           bridges, initials, accepting) -> Demonstration:
    """One ``glue`` of ``parts`` over the letters of the named ``demos``,
    each letter evaluating as in the one demo that uses it."""
    owner: dict[Letter, str] = {}
    for name, demo in demos.items():
        for x in demo.language.alphabet:
            if x in owner:
                raise ValueError(f"language letter {x.name!r} used by {owner[x]!r} and {name!r}")
            owner[x] = name
    eval_map = {x: demos[name].eval_map[x] for x, name in owner.items()}
    return Demonstration(oracle, eval_map, glue(owner, parts, bridges, initials, accepting))


def _cover(sub: Demonstration, reps: Demonstration, inside: KeyPredicate,
           check_len: int) -> Demonstration:
    """Every non-identity element as h, t or h t, with h a word of ``sub``
    (a subgroup) and t one of ``reps``, whose words up to ``check_len``
    letters must not land ``inside`` the subgroup."""
    for w, key in reps.keyed_words(check_len):
        if inside(key):
            raise ValueError(f"quotient demo word evaluates into the subgroup: {' '.join(w)}")
    if sub.language.accepts(EPSILON):
        raise ValueError("the subgroup demonstration accepts the empty word")
    both = ("subgroup", "cosets")
    return _glued(sub.oracle, {"subgroup": sub, "cosets": reps},
                  {"subgroup": sub.language, "cosets": reps.language}, [both], both, both)


def extension(demo_n: Demonstration, demo_q: Demonstration,
              oracle: GroupOracle, in_normal: KeyPredicate,
              check_len: int = 4) -> Demonstration:
    """Combine demonstrations along a short exact sequence.

    ``demo_n`` covers a normal subgroup N, ``demo_q`` covers coset
    representatives of the quotient; both already evaluate in the big
    group's oracle.  The result accepts L1, L2 and L1 L2: a word of L2 or
    L1 L2 has non-trivial image in the quotient, a word of L1 is a
    non-trivial element of N.  ``in_normal`` decides membership of N on
    element keys and validates ``demo_q`` up to ``check_len``.
    """
    if demo_n.oracle != oracle or demo_q.oracle != oracle:
        raise ValueError("both demonstrations must evaluate in the supplied oracle")
    if not in_normal(oracle.identity_key):
        raise ValueError("in_normal rejects the identity, predicate looks inverted")
    for x in demo_n.language.alphabet:
        if not in_normal(demo_n.evaluate((x,))):
            raise ValueError(f"letter {x.name!r} of the subgroup demo is outside the subgroup")
    return _cover(demo_n, demo_q, in_normal, check_len)


def fi_overgroup(demo: Demonstration, oracle: GroupOracle,
                 transversal: Mapping[Letter, Word],
                 in_subgroup: Optional[KeyPredicate] = None) -> Demonstration:
    """Extend a demonstration of a finite-index subgroup to the whole group.

    ``transversal`` supplies one fresh letter per non-identity coset, each
    evaluating to a representative of that coset.  The language becomes
    L, T and L T.  A transversal letter evaluating into the subgroup would
    let a word collide with the identity coset, so it is rejected (always
    for the identity itself, and via ``in_subgroup`` when supplied); every
    word of T has one letter, so checking the letters checks T.  An
    ``in_subgroup`` that rejects the identity is refused as inverted.
    """
    if demo.oracle != oracle:
        raise ValueError("demonstration must evaluate in the supplied oracle")
    if in_subgroup is not None and not in_subgroup(oracle.identity_key):
        raise ValueError("in_subgroup rejects the identity, predicate looks inverted")
    reps = Demonstration(oracle, {t: tuple(w) for t, w in transversal.items()},
                         finite_language([(t,) for t in transversal], transversal))
    identity = oracle.identity_key

    def inside(key):
        return key == identity or (in_subgroup is not None and in_subgroup(key))

    return _cover(demo, reps, inside, 1)


# -- finite index subgroups ---------------------------------------------


@dataclass
class CosetTable:
    """Right cosets of a finite-index subgroup of ``oracle``, with transversal words.

    ``cosets[0]`` is the subgroup itself; its transversal word must be
    empty.  ``action`` maps (coset, generator letter) to the coset reached
    by right multiplication and must be total.
    """

    oracle: GroupOracle
    cosets: tuple[str, ...]
    transversal: dict[str, Word]
    action: dict[tuple[str, Letter], str]

    @property
    def subgroup_coset(self) -> str:
        return self.cosets[0]

    def act(self, coset: str, letter: Letter) -> str:
        try:
            return self.action[(coset, letter)]
        except KeyError:
            raise ValueError(f"action undefined on ({coset!r}, {letter.name!r})") from None

    def validate(self, in_subgroup: Optional[KeyPredicate] = None):
        """Structural and, given a membership predicate, semantic checks."""
        oracle = self.oracle
        cosets = set(self.cosets)
        if len(cosets) != len(self.cosets) or not cosets:
            raise ValueError("coset names must be distinct and non-empty")
        home = self.subgroup_coset
        if self.transversal.get(home) != EPSILON:
            raise ValueError("the subgroup's transversal word must be empty")
        for c in self.cosets:
            if c not in self.transversal:
                raise ValueError(f"no transversal word for coset {c!r}")
        for c in self.cosets:
            for x in oracle.alphabet:
                target = self.act(c, x)
                if target not in cosets:
                    raise ValueError(f"action maps ({c!r}, {x.name!r}) to unknown coset {target!r}")
        # right multiplication by x then x^-1 must return home
        for c in self.cosets:
            for x in oracle.alphabet:
                back = self.act(self.act(c, x), oracle.inverse_letter(x))
                if back != c:
                    raise ValueError(
                        f"action is inconsistent: {c!r}.{x.name} then its inverse gives {back!r}")
        reached = reachable([home], lambda c: (self.act(c, x) for x in oracle.alphabet))
        if reached != cosets:
            raise ValueError(f"cosets unreachable from {home!r}: {sorted(cosets - reached)}")
        if in_subgroup is not None:
            if not in_subgroup(oracle.identity_key):
                raise ValueError("in_subgroup rejects the identity, predicate looks inverted")
            for c in self.cosets:
                for x in oracle.alphabet:
                    target = self.act(c, x)
                    word = self.transversal[c] + (x,) + oracle.inverse_word(self.transversal[target])
                    if not in_subgroup(oracle.evaluate(word)):
                        raise ValueError(
                            f"transversal words disagree with the action at ({c!r}, {x.name!r})")
            for i, c in enumerate(self.cosets):
                for d in self.cosets[i + 1:]:
                    word = self.transversal[c] + oracle.inverse_word(self.transversal[d])
                    if in_subgroup(oracle.evaluate(word)):
                        raise ValueError(f"cosets {c!r} and {d!r} share a coset")


def fi_subgroup(demo: Demonstration, table: CosetTable,
                in_subgroup: Optional[KeyPredicate] = None) -> Demonstration:
    """Restrict a demonstration to a finite-index subgroup.

    Words of the original language that multiply back into the subgroup
    are exactly the closed walks on the coset digraph spelling accepted
    words.  Each walk edge (C, x, C') becomes a letter evaluating to
    t_C x t_{C'}^{-1}, which rewrites the walk into a product of subgroup
    elements with the same value.

    The demonstration's letters must be the oracle's generators verbatim
    (identity evaluation map) and the generating set must be inverse
    closed.
    """
    oracle = demo.oracle
    if table.oracle != oracle:
        raise ValueError("the coset table and the demonstration have different groups")
    if set(demo.language.alphabet) != set(oracle.alphabet):
        raise ValueError("language alphabet must equal the oracle alphabet")
    for x in demo.language.alphabet:
        if demo.eval_map[x] != (x,):
            raise ValueError(f"letter {x.name!r} must evaluate to itself")
    table.validate(in_subgroup)

    edges = [(c, x, table.act(c, x)) for c in table.cosets for x in oracle.alphabet]
    edge_letters = tuple(Letter(f"({c}|{x}|{d})") for c, x, d in edges)
    check_alphabet(edge_letters)

    # the product of the walks on the coset digraph from the subgroup coset
    # back to it with the language, each edge letter read through its
    # generator, by which the walk's edges are indexed; a separate
    # accepting copy of home, with no way out, rejects the empty walk
    home, fin = table.subgroup_coset, ("fin",)
    walk_edges: dict = {("c", c): {} for c in table.cosets}
    walk_edges[fin] = {}
    for (c, x, d), letter in zip(edges, edge_letters):
        out = walk_edges["c", c].setdefault(x, [])
        out.append((letter, ("c", d)))
        if d == home:
            out.append((letter, fin))
    language = _product(edge_letters, [("c", home)], walk_edges.__getitem__, demo.language,
                        {fin})

    eval_map = {letter: table.transversal[c] + (x,) + oracle.inverse_word(table.transversal[d])
                for (c, x, d), letter in zip(edges, edge_letters)}
    return Demonstration(oracle, eval_map, language)


# -- graph products ------------------------------------------------------


def admissible_automaton(graph: VertexGraph) -> Nfa:
    """Deterministic automaton for the pruned type strings of a graph.

    A type string is pruned when no swap of adjacent commuting vertices
    can ever bring two equal vertices together, and it is the ShortLex
    least ordering among its swap class.  Reading left to right, a next
    vertex w is allowed unless, skipping back over vertices that commute
    with w, one first meets w itself (a merge would be possible) or a
    vertex larger than w that commutes with everything in between
    including itself (a smaller ordering would exist).

    Each state tracks, per vertex v: the letter at the last position not
    commuting with v, and whether any letter after that position exceeds
    v.  The initial state is the only non-accepting state.
    """
    verts = graph.vertices
    letters = tuple(Letter(v) for v in verts)
    # per vertex i: the vertices that do not commute with it (itself
    # included), and the lower-ranked vertices that do
    blocking = [[j for j, v in enumerate(verts) if v == w or not graph.adjacent(v, w)]
                for w in verts]
    lower = [[j for j in range(i) if graph.adjacent(verts[j], w)] for i, w in enumerate(verts)]

    initial = (tuple(None for _ in verts), tuple(False for _ in verts))

    def moves(state):
        lastblock, tail_gt = state
        for i, w in enumerate(verts):
            if lastblock[i] == w or tail_gt[i]:
                continue
            lb = list(lastblock)
            tg = list(tail_gt)
            for j in blocking[i]:
                lb[j] = w
                tg[j] = False
            for j in lower[i]:  # w ranks above them
                tg[j] = True
            yield letters[i], (tuple(lb), tuple(tg))

    return explore(letters, [initial], moves, lambda state: state != initial)


def graph_product(graph: VertexGraph,
                  local: Mapping[str, Demonstration]) -> Demonstration:
    """Glue local demonstrations along the pruned type automaton.

    One ``glue``: every non-initial state of the admissible automaton
    becomes a copy of its vertex's language, and every admissible
    transition a bridge from the copy of its source to the copy of its
    target.  A start part that accepts only the empty word stands in for
    the initial state.  Accepted words are concatenations of one non-empty
    local word per letter of a pruned type string, which reach every
    non-identity element of the graph product and never the identity,
    provided the locals do.
    """
    missing = [v for v in graph.vertices if v not in local]
    if missing:
        raise ValueError(f"no local demonstration for vertices: {missing}")
    extra = [v for v in local if v not in graph.vertices]
    if extra:
        raise ValueError(f"local demonstrations for unknown vertices: {extra}")
    oracle = GraphProductOracle(graph, {v: local[v].oracle for v in graph.vertices})
    for v in graph.vertices:
        if local[v].language.accepts(EPSILON):
            raise ValueError(f"local demonstration at {v!r} accepts the empty word")

    adm = admissible_automaton(graph)
    (adm_initial,) = adm.initials
    label: dict = {}
    for (p, letter, q) in adm.transitions:
        if label.setdefault(q, letter) != letter:
            raise AssertionError("admissible state entered by two different vertices")

    parts = {s: local[label[s]].language for s in adm.accepting}  # the non-initial states
    parts["start"] = finite_language([EPSILON], ())
    bridges = [("start" if p == adm_initial else p, q) for (p, _letter, q) in adm.transitions]
    return _glued(oracle, {v: local[v] for v in graph.vertices}, parts, bridges, ("start",),
                  adm.accepting)


# -- padded triples and cross-sections ----------------------------------

PAD_NAME = "#pad"


def split_triple(letter: Letter) -> tuple[str, str, str]:
    name = letter.name
    if not (name.startswith("(") and name.endswith(")")):
        raise ValueError(f"not a triple letter: {name!r}")
    parts = name[1:-1].split("|")
    if len(parts) != 3:
        raise ValueError(f"triple letter needs three components: {name!r}")
    return (parts[0], parts[1], parts[2])


@dataclass
class SyncTripleAutomaton:
    """An automaton over padded triple letters with a declared base alphabet."""

    nfa: Nfa
    base: tuple[Letter, ...]

    def __post_init__(self):
        self.base = check_alphabet(self.base)
        allowed = {*self.base, PAD_NAME}
        for letter in self.nfa.alphabet:
            comps = split_triple(letter)
            for c in comps:
                if c not in allowed:
                    raise ValueError(f"triple component {c!r} is not a base letter")
            if all(c == PAD_NAME for c in comps):
                raise ValueError("alphabet contains the all-padding triple")


def _padding_violations(t: SyncTripleAutomaton) -> Nfa:
    """Automaton for accepted words that resume a coordinate after padding."""
    pads = {letter: tuple(c == PAD_NAME for c in split_triple(letter))
            for letter in t.nfa.alphabet}

    def moves(ended):  # which coordinates have padded so far, or "bad"
        for letter, pad in pads.items():
            if ended == "bad" or any(e and not p for e, p in zip(ended, pad)):
                yield letter, "bad"
            else:
                yield letter, tuple(e or p for e, p in zip(ended, pad))

    monitor = explore(t.nfa.alphabet, [(False, False, False)], moves, lambda s: s == "bad")
    return intersect(t.nfa, monitor)


def autostackable_projection(t: SyncTripleAutomaton) -> Nfa:
    """First coordinates of a padded triple language, padding erased.

    The language must respect the padding discipline (once a coordinate
    pads, it pads to the end); offending words are reported as an error.
    """
    violations = _padding_violations(t)
    if not violations.is_empty():
        shown = format_word(next(violations.words()))
        raise ValueError(f"padding does not persist to the end of words, e.g.: {shown}")
    firsts = {letter: split_triple(letter)[0] for letter in t.nfa.alphabet}
    return image_hom(
        t.nfa,
        {letter: EPSILON if c == PAD_NAME else (Letter(c),) for letter, c in firsts.items()},
        allow_erasing=True,
        target_alphabet=t.base)


def cross_section_to_demo(nfa: Nfa, oracle: GroupOracle,
                          identity_rep: Word = EPSILON) -> Demonstration:
    """Demonstration from a language with one word per group element.

    The caller asserts (and should have verified at bounds) that the
    language is a cross-section of the group; this function removes the
    stated identity representative and wires the letters straight into the
    oracle.
    """
    if not nfa.accepts(identity_rep):
        raise ValueError("claimed identity representative is not in the language")
    for x in nfa.alphabet:
        if x not in oracle.alphabet:
            raise ValueError(f"letter {x.name!r} is not an oracle generator")
    if not oracle.is_identity(identity_rep):
        raise ValueError("claimed identity representative evaluates elsewhere")
    language = subtract_word(nfa, identity_rep)
    return Demonstration(oracle, identity_eval_map(language.alphabet), language)
