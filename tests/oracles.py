"""Independent brute-force reference implementations used to check the
library.  Everything here recomputes answers from first principles (raw
transition scans, exhaustive word sweeps, breadth-first closures) and
deliberately shares no machinery with the package under test."""

import functools
import itertools
import re
from collections import deque
from dataclasses import dataclass


def bf_accepts(nfa, word):
    """Path search over (state, position) pairs, no subset construction."""
    word = tuple(word)
    seen = set()
    stack = [(s, 0) for s in nfa.initials]
    while stack:
        p, i = stack.pop()
        if (p, i) in seen:
            continue
        seen.add((p, i))
        if i == len(word) and p in nfa.accepting:
            return True
        for (src, label, q) in nfa.transitions:
            if src != p:
                continue
            if label is None:
                stack.append((q, i))
            elif i < len(word) and label == word[i]:
                stack.append((q, i + 1))
    return False


def words_upto(alphabet, max_len):
    """All words over the alphabet in length-lex order (declaration order)."""
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield tup


def bf_language(nfa, max_len, alphabet=None):
    alphabet = tuple(alphabet if alphabet is not None else nfa.alphabet)
    return [w for w in words_upto(alphabet, max_len) if bf_accepts(nfa, w)]


def searched_is_empty(nfa):
    """True when a forward search along every edge from the initial
    states, epsilon edges included, meets no accepting state."""
    seen = set(nfa.initials)
    stack = list(seen)
    while stack:
        p = stack.pop()
        for (src, _label, q) in nfa.transitions:
            if src == p and q not in seen:
                seen.add(q)
                stack.append(q)
    return not seen & nfa.accepting


def chained_finite_language(words, alphabet=None):
    """The automaton of a finite set of words as one chain of fresh states
    per distinct word from a shared root ``"r"``; the alphabet defaults to
    the words' letters in order of first use."""
    from epicdemo.automata import Nfa

    words = list(dict.fromkeys(tuple(w) for w in words))
    if alphabet is None:
        alphabet = dict.fromkeys(x for w in words for x in w)
    states, transitions, accepting = {"r"}, set(), set()
    for i, w in enumerate(words):
        prev = "r"
        for k, x in enumerate(w):
            states.add(("w", i, k + 1))
            transitions.add((prev, x, ("w", i, k + 1)))
            prev = ("w", i, k + 1)
        accepting.add(prev)
    return Nfa(tuple(alphabet), frozenset(states), frozenset(transitions), frozenset({"r"}),
               frozenset(accepting))


def pumpable_cycle(nfa):
    """True when some accepting run revisits a state with a letter between,
    that is when the language is infinite: a letter edge joins two states
    that lie on accepting runs, and its target leads back to its source."""
    def closure(starts, edges):
        seen, stack = set(starts), list(starts)
        while stack:
            p = stack.pop()
            for (src, _, q) in edges:
                if src == p and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    edges = nfa.transitions
    backward = [(q, label, p) for (p, label, q) in edges]
    useful = closure(nfa.initials, edges) & closure(nfa.accepting, backward)
    return any(label is not None and p in useful and p in closure([q], edges)
               for (p, label, q) in edges)


def shuffle_class(type_string, adjacent):
    """All strings reachable by swapping adjacent letters whose vertices
    are joined in the graph.  ``adjacent(u, v)`` is the edge predicate."""
    start = tuple(type_string)
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for i in range(len(t) - 1):
            u, v = t[i], t[i + 1]
            if u != v and adjacent(u, v):
                swapped = t[:i] + (v, u) + t[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return seen


def bf_pruned_types(vertices, adjacent, max_len):
    """Non-empty type strings that no swap sequence can amalgamate and that
    are ShortLex-least in their class.  Vertex order is list order."""
    rank = {v: i for i, v in enumerate(vertices)}
    out = set()
    visited = set()
    for n in range(1, max_len + 1):
        for t in itertools.product(vertices, repeat=n):
            if t in visited:
                continue
            cls = shuffle_class(t, adjacent)
            visited |= cls
            if any(any(s[i] == s[i + 1] for i in range(len(s) - 1)) for s in cls):
                continue
            out.add(min(cls, key=lambda s: [rank[v] for v in s]))
    return out


# -- group oracles -----------------------------------------------------------


def ascii_evaluate(oracle, word):
    """Element key text of the word, each backend multiplied out on its own
    generator data and spelled as ASCII.  A graph product spells the local
    strings of its rewriting normal form (``rewriting_prune``)."""
    names = {x.name for x in oracle.alphabet}
    for x in word:
        if x.name not in names:
            raise ValueError(f"letter {x.name!r} is not in the oracle alphabet")
    kind = type(oracle).__name__
    if kind == "PermutationOracle":
        images = list(range(oracle.degree))
        for x in word:
            images = [oracle.gens[x][i] for i in images]
        data = ",".join(str(i + 1) for i in images)
    elif kind == "FreeAbelianOracle":
        total = [0] * oracle.rank
        for x in word:
            total = [t + g for t, g in zip(total, oracle.gens[x])]
        data = ",".join(str(c) for c in total)
    elif kind == "FreeGroupOracle":
        data = " ".join(_reduce_names(x.name for x in word))
    elif kind == "IntegerMatrixOracle":
        m = [[int(i == j) for j in range(oracle.dim)] for i in range(oracle.dim)]
        for x in word:
            g = oracle.gens[x]
            m = [[sum(row[k] * g[k][j] for k in range(oracle.dim))
                  for j in range(oracle.dim)] for row in m]
        data = ";".join(",".join(str(e) for e in row) for row in m)
    else:
        chunks = []
        for v, sub in rewriting_prune(oracle, word):
            local = oracle.vertex_oracles[v]
            text = ascii_evaluate(local, sub)
            chunks.append(f"{v}={local.backend}:{text[len(local.backend) + 1:-1]}")
        data = "|".join(chunks)
    return f"{oracle.backend}[{data}]"


def rewriting_prune(oracle, word):
    """Graph-product normal form by whole-word rewriting, as (vertex, local
    word) runs: split the word into single-letter runs, merge neighbouring
    same-vertex runs and drop locally trivial ones until stable, amalgamate
    the least pair of same-vertex runs that shuffles can bring together
    and repeat, then order the runs by greedily emitting the least
    available vertex, which gives the ShortLex-least type string among
    shuffle-equivalent orderings."""
    vertices = oracle.graph.vertices
    vertex_of = {x.name: v for v in vertices for x in oracle.vertex_oracles[v].alphabet}
    edges = {frozenset(e) for e in oracle.graph.edges}

    def adjacent(u, v):
        return frozenset((u, v)) in edges

    def trivial(v, sub):
        local = oracle.vertex_oracles[v]
        return ascii_evaluate(local, sub) == ascii_evaluate(local, ())

    def normalize(parts):
        changed = True
        while changed:
            changed = False
            merged = []
            for v, sub in parts:
                if merged and merged[-1][0] == v:
                    merged[-1] = (v, merged[-1][1] + sub)
                    changed = True
                else:
                    merged.append((v, sub))
            parts = [(v, sub) for v, sub in merged if not trivial(v, sub)]
            if len(parts) != len(merged):
                changed = True
        return parts

    def find_amalgamation(parts):
        for i in range(len(parts)):
            v = parts[i][0]
            for j in range(i + 1, len(parts)):
                if parts[j][0] == v:
                    return i, j
                if not adjacent(parts[j][0], v):
                    break
        return None

    parts = normalize([(vertex_of[x.name], (x,)) for x in word])
    while (hit := find_amalgamation(parts)) is not None:
        i, j = hit
        merged = (parts[i][0], parts[i][1] + parts[j][1])
        parts = normalize(parts[:i] + parts[i + 1:j] + [merged] + parts[j + 1:])
    n = len(parts)
    # i < j are order-constrained when their vertices are equal or
    # non-adjacent; any linear extension is reachable by shuffles
    succs = [[] for _ in range(n)]
    pred_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            vi, vj = parts[i][0], parts[j][0]
            if vi == vj or not adjacent(vi, vj):
                succs[i].append(j)
                pred_count[j] += 1
    available = [i for i in range(n) if pred_count[i] == 0]
    out = []
    while available:
        best = min(available, key=lambda i: (vertices.index(parts[i][0]), i))
        available.remove(best)
        out.append(parts[best])
        for j in succs[best]:
            pred_count[j] -= 1
            if pred_count[j] == 0:
                available.append(j)
    return out


def wordwise_ball(oracle, radius):
    """Key text -> shortest length-lex least witness, breadth first, every
    word evaluated from scratch."""
    out = {ascii_evaluate(oracle, ()): ()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for x in oracle.alphabet:
                w2 = w + (x,)
                key = ascii_evaluate(oracle, w2)
                if key not in out:
                    out[key] = w2
                    nxt.append(w2)
        frontier = nxt
    return out


def wordwise_coverage(demo, radius, search_len, max_len=None):
    """Coverage by key text, as verify_coverage computed it word by word:
    every accepted word up to the larger bound is spelled through the
    evaluation map and evaluated from scratch.  Returns the (key text,
    first witness) pairs in the order found, the missing key texts and the
    identity violations."""
    if max_len is None:
        max_len = search_len
    oracle = demo.oracle
    identity = ascii_evaluate(oracle, ())
    targets = set(wordwise_ball(oracle, radius)) - {identity}
    covered, violations = {}, []
    for w in bf_language(demo.language, max(search_len, max_len)):
        key = ascii_evaluate(oracle, tuple(y for x in w for y in demo.eval_map[x]))
        if key == identity:
            if len(w) <= max_len:
                violations.append(w)
        elif key in targets and key not in covered and len(w) <= search_len:
            covered[key] = w
    return list(covered.items()), targets - covered.keys(), violations


# -- walk-edge kernels --------------------------------------------------------


def unmemoized_pruned_step(nfa, max_len=None):
    """``Nfa.pruned_step`` without its memo: every edge steps the subset
    again and takes the fewest letters to accept from the stepped subset.
    Written to be patched in as the method."""
    dist = nfa._letters_to_accept

    def step(subset, letter, n):
        subset = nfa.step(subset, letter)
        remaining = len(nfa.states) if max_len is None else max_len - n
        if subset and min(dist.get(s, float("inf")) for s in subset) <= remaining:
            return subset

    return step


def _key_text(data):
    """Key data as text: integers joined by commas, names by spaces, matrix
    rows by semicolons, and (vertex, key) pairs by bars."""
    head = data[0] if data else ""
    if isinstance(head, (int, str)):
        return ("," if isinstance(head, int) else " ").join(map(str, data))
    if isinstance(head[0], str):
        return "|".join(f"{v}={k.backend}:{_key_text(k.data)}" for v, k in data)
    return ";".join(map(_key_text, data))


@functools.total_ordering
@dataclass(frozen=True)
class DataclassElementKey:
    """An element key as a frozen dataclass: generated ``__eq__`` and
    ``__hash__`` over (backend, data), ordered by backend, then by the text
    of the data."""

    backend: str
    data: tuple

    @classmethod
    def of(cls, key):
        """The reference key of a package key, graph-product syllable keys
        included."""
        data = key.data
        if data and isinstance(data[0], tuple) and isinstance(data[0][0], str):
            data = tuple((v, cls.of(k)) for v, k in data)
        return cls(key.backend, data)

    def __lt__(self, other):
        return (self.backend, _key_text(self.data)) < (other.backend, _key_text(other.data))


def indexed_mat_mul(a, b):
    """Square matrix product, one indexed generator per entry."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


# -- construction kernels ----------------------------------------------------


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row (factorial time)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += sign * m[0][j] * cofactor_det(minor)
        sign = -sign
    return total


def scan_epsilon_free(nfa):
    """(transitions, accepting) of the epsilon-free automaton: state p gets
    every letter edge leaving its epsilon closure, found by a full scan of
    the transitions per closure state."""
    transitions = set()
    accepting = set()
    for p in nfa.states:
        closure = {p}
        stack = [p]
        while stack:
            c = stack.pop()
            for (src, label, q) in nfa.transitions:
                if src == c and label is None and q not in closure:
                    closure.add(q)
                    stack.append(q)
        if closure & nfa.accepting:
            accepting.add(p)
        for c in closure:
            for (src, label, q) in nfa.transitions:
                if src == c and label is not None:
                    transitions.add((p, label, q))
    return frozenset(transitions), frozenset(accepting)


def pairwise_intersect(a, b):
    """(states, transitions, initials, accepting) of the reachable product
    of the scanned epsilon-free automata, every shared letter tried against
    every pair of transitions."""
    ta, accept_a = scan_epsilon_free(a)
    tb, accept_b = scan_epsilon_free(b)
    shared = [x for x in a.alphabet if x in b.alphabet]
    initials = {(p, q) for p in a.initials for q in b.initials}
    states, transitions = set(initials), set()
    queue = deque(initials)
    while queue:
        p, q = queue.popleft()
        for x in shared:
            for (p1, y, p2) in ta:
                for (q1, z, q2) in tb:
                    if p1 == p and q1 == q and y == x and z == x:
                        transitions.add(((p, q), x, (p2, q2)))
                        if (p2, q2) not in states:
                            states.add((p2, q2))
                            queue.append((p2, q2))
    accepting = {(p, q) for (p, q) in states if p in accept_a and q in accept_b}
    return states, transitions, initials, accepting


def pairwise_product(a, b):
    """(states, transitions, initials, accepting) of the reachable product
    of ``a`` and ``b`` with their epsilon edges kept, every pair of
    transitions tried: a shared letter moves both sides, an epsilon edge
    of either side moves that side alone."""
    initials = {(p, q) for p in a.initials for q in b.initials}
    states, transitions = set(initials), set()
    queue = deque(initials)
    while queue:
        p, q = queue.popleft()
        edges = [(None, (p2, q)) for (p1, y, p2) in a.transitions if p1 == p and y is None]
        edges += [(None, (p, q2)) for (q1, z, q2) in b.transitions if q1 == q and z is None]
        for (p1, y, p2) in a.transitions:
            for (q1, z, q2) in b.transitions:
                if p1 == p and q1 == q and y is not None and y == z:
                    edges.append((y, (p2, q2)))
        for label, target in edges:
            transitions.add(((p, q), label, target))
            if target not in states:
                states.add(target)
                queue.append(target)
    accepting = {(p, q) for (p, q) in states if p in a.accepting and q in b.accepting}
    return states, transitions, initials, accepting


def closure_subsets(nfa, word):
    """The state subsets read along ``word``, each closed under epsilon
    edges by a full scan of the transitions, from the closure of the
    initial states; the walk stops at the first empty subset."""
    def closure(states):
        seen, stack = set(states), list(states)
        while stack:
            p = stack.pop()
            for (src, label, q) in nfa.transitions:
                if src == p and label is None and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    subset = closure(nfa.initials)
    yield subset
    for x in word:
        if not subset:
            return
        subset = closure({q for (p, label, q) in nfa.transitions
                          if p in subset and label is not None and label == x})
        yield subset


def closure_step_accepts(nfa, word):
    """Membership by stepping epsilon-closed subsets: the last subset of
    ``closure_subsets`` holds an accepting state."""
    subsets = list(closure_subsets(nfa, word))
    return len(subsets) == len(word) + 1 and bool(subsets[-1] & nfa.accepting)


def _tagged(tag, nfa):
    return ({(tag, s) for s in nfa.states},
            {((tag, p), label, (tag, q)) for (p, label, q) in nfa.transitions},
            {(tag, s) for s in nfa.initials}, {(tag, s) for s in nfa.accepting})


def tagged_union(a, b):
    """(states, transitions, initials, accepting) of the union: the states
    of ``a`` and ``b`` tagged ``u0`` and ``u1``, side by side."""
    sa, ta, ia, fa = _tagged("u0", a)
    sb, tb, ib, fb = _tagged("u1", b)
    return sa | sb, ta | tb, ia | ib, fa | fb


def tagged_concat(a, b):
    """(states, transitions, initials, accepting) of the concatenation: the
    states of ``a`` and ``b`` tagged ``c0`` and ``c1``, with an epsilon edge
    from every accepting state of the first to every initial of the second."""
    sa, ta, ia, fa = _tagged("c0", a)
    sb, tb, ib, fb = _tagged("c1", b)
    return sa | sb, ta | tb | {(p, None, q) for p in fa for q in ib}, ia, fb


def normalize_no_accepting_initial(a):
    """Check that the empty word is rejected and drop redundant epsilon loops.

    When epsilon is not accepted, no initial state is accepting and no
    accepting state is epsilon-reachable from an initial state.  Raises
    ValueError if the language contains the empty word.
    """
    from epicdemo.automata import EPSILON, Nfa

    if a.accepts(EPSILON):
        raise ValueError("language contains the empty word; cannot normalize")
    transitions = frozenset(t for t in a.transitions if not (t[1] is None and t[0] == t[2]))
    return Nfa(a.alphabet, a.states, transitions, a.initials, a.accepting)


def looped_graph_product_language(graph, local):
    """The language of ``graph_product(graph, local)`` glued state by state:
    a copy ``(s, q)`` of each state ``q`` of the normalized local language
    of the vertex entering admissible state ``s``, epsilon edges along the
    admissible transitions, and one fresh initial state ``("glue-init",)``
    in place of the admissible initial state."""
    from epicdemo.automata import Nfa, merge_alphabets
    from epicdemo.constructions import admissible_automaton

    normalized = {v: normalize_no_accepting_initial(local[v].language) for v in graph.vertices}
    adm = admissible_automaton(graph)
    (adm_initial,) = adm.initials
    label = {q: letter for (p, letter, q) in adm.transitions}
    states, transitions, accepting = {("glue-init",)}, set(), set()
    for s in adm.states - {adm_initial}:
        nfa = normalized[label[s]]
        states.update((s, q) for q in nfa.states)
        transitions.update(((s, p), lbl, (s, q)) for (p, lbl, q) in nfa.transitions)
        accepting.update((s, q) for q in nfa.accepting)
    for (p, _letter, q) in adm.transitions:
        exits = [("glue-init",)] if p == adm_initial else \
            [(p, f) for f in normalized[label[p]].accepting]
        transitions.update((f, None, (q, i)) for f in exits for i in normalized[label[q]].initials)
    alphabet = merge_alphabets(*(local[v].language.alphabet for v in graph.vertices))
    return Nfa(alphabet, frozenset(states), frozenset(transitions),
               frozenset({("glue-init",)}), frozenset(accepting))


def fi_walks_and_language(demo, table):
    """The two factors behind ``fi_subgroup(demo, table)``: the walks on
    the coset digraph from the subgroup coset back to it, over one letter
    per edge, and the language pulled back to those edge letters."""
    from epicdemo.automata import Letter, Nfa, inverse_letter_hom

    edges = [(c, x, table.act(c, x)) for c in table.cosets for x in demo.oracle.alphabet]
    edge_letters = tuple(Letter(f"({c}|{x}|{d})") for c, x, d in edges)
    home = table.subgroup_coset
    states = {("c", c) for c in table.cosets} | {("fin",)}
    transitions = set()
    for (c, _, d), letter in zip(edges, edge_letters):
        transitions.add((("c", c), letter, ("c", d)))
        if d == home:
            transitions.add((("c", c), letter, ("fin",)))
    walks = Nfa(edge_letters, frozenset(states), frozenset(transitions),
                frozenset({("c", home)}), frozenset({("fin",)}))
    spelled = inverse_letter_hom(demo.language,
                                 {letter: x for (_, x, _), letter in zip(edges, edge_letters)},
                                 edge_letters)
    return walks, spelled


def intersected_fi_language(demo, table):
    """The language of ``fi_subgroup(demo, table)`` as the product of a
    coset-walk automaton with the language pulled back to edge letters:
    ``intersect(walks, inverse_letter_hom(...))``."""
    from epicdemo.automata import intersect

    return intersect(*fi_walks_and_language(demo, table))


def epsilon_free_nfa(nfa):
    """``nfa`` with its epsilon edges removed by ``scan_epsilon_free``."""
    from epicdemo.automata import Nfa

    transitions, accepting = scan_epsilon_free(nfa)
    return Nfa(nfa.alphabet, nfa.states, transitions, nfa.initials, accepting)


def make_triple(a: str, b: str, c: str):
    """The padded-triple letter ``(a|b|c)``."""
    from epicdemo.automata import Letter
    from epicdemo.constructions import PAD_NAME

    for comp in (a, b, c):
        if "|" in comp or not comp or any(ch.isspace() for ch in comp):
            raise ValueError(f"bad triple component {comp!r}")
    if a == b == c == PAD_NAME:
        raise ValueError("the all-padding triple is not a letter")
    return Letter(f"({a}|{b}|{c})")


def pad_triple_word(u, v, w):
    """Align three words into one padded triple word, shorter coordinates
    padded at the tail, so padding persists to the end of the word in
    every coordinate."""
    from epicdemo.constructions import PAD_NAME

    k = max(len(u), len(v), len(w))
    return tuple(make_triple(*(word[i] if i < len(word) else PAD_NAME for word in (u, v, w)))
                 for i in range(k))


def triplewise_nfa_check(alphabet, states, transitions, initials, accepting):
    """The ValueError text an automaton with these parts must raise, or None:
    the checks in order, transitions one triple at a time in iteration
    order, each endpoint and label compared with the declared ones by
    equality and its label's class by name."""
    if not initials:
        return "automaton needs at least one initial state"
    if any(s not in states for s in list(initials) + list(accepting)):
        return "initial and accepting states must be drawn from the state set"
    for (p, label, q) in transitions:
        if not any(p == s for s in states) or not any(q == s for s in states):
            return f"transition endpoint not a state: {(p, label, q)!r}"
        if label is not None and (not any(label == x for x in alphabet)
                                  or type(label).__name__ != "Letter"):
            return f"transition label {label!r} not in the alphabet"
    return None


# -- workspace loading -------------------------------------------------------


def _tokenize(text):
    """Yield (lineno, tokens); comment lines and inline '#' tails dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if "#" in tokens:
            tokens = tokens[: tokens.index("#")]
        if tokens:
            yield (lineno, tokens)


def tokenized_split_blocks(path, text):
    """Blocks of one file from a separate line tokenizer."""
    from epicdemo.errors import LoadError
    from epicdemo.workspace import BLOCK_KINDS, _Block

    blocks = []
    current = None
    for lineno, tokens in _tokenize(text):
        if current is None:
            if tokens[0] not in BLOCK_KINDS:
                raise LoadError(f"expected a block keyword, got {tokens[0]!r}",
                                path=path, line=lineno)
            if len(tokens) < 2:
                raise LoadError(f"{tokens[0]} block needs a name", path=path, line=lineno)
            current = _Block(tokens[0], tokens[1:], [], path, lineno)
        elif tokens == ["end"]:
            blocks.append(current)
            current = None
        else:
            current.body.append((lineno, tokens))
    if current is not None:
        raise LoadError(f"unterminated {current.kind} block {current.header[0]!r}",
                        path=path, line=current.line)
    return blocks


def scanning_parse_automaton(block):
    """An automaton block, every letter, transition, initial and accepting
    state checked line by line before the automaton is built."""
    from epicdemo.automata import Letter, Nfa

    alphabet, states, initials, accepting, transitions = [], [], [], [], []
    declared, marked = set(), []  # letters; (lineno, state) of initial and accepting states
    for lineno, tokens in block.body:
        key, rest = tokens[0], tokens[1:]
        if key == "alphabet":
            if "eps" in rest:
                block.fail("'eps' is reserved and cannot be an alphabet letter", lineno)
            for n in rest:
                if n in declared:
                    block.fail(f"duplicate letter {n!r} in alphabet", lineno)
                declared.add(n)
                alphabet.append(Letter(n))
        elif key == "states":
            states.extend(rest)
        elif key == "initial":
            initials.extend(rest)
            marked.extend((lineno, s) for s in rest)
        elif key == "accept":
            accepting.extend(rest)
            marked.extend((lineno, s) for s in rest)
        elif key == "trans":
            if len(rest) != 3:
                block.fail("trans takes: source label target", lineno)
            transitions.append((lineno, *rest))
        else:
            block.fail(f"unknown automaton line {key!r}", lineno)
    known = set(states)
    letters = dict(zip(alphabet, alphabet), eps=None)
    for lineno, src, label, tgt in transitions:
        for s in (src, tgt):
            if s not in known:
                block.fail(f"transition uses undeclared state {s!r}", lineno)
        if label not in letters:
            block.fail(f"transition label {label!r} is not in the alphabet", lineno)
    for lineno, s in marked:
        if s not in known:
            block.fail(f"undeclared state {s!r}", lineno)
    try:
        return Nfa(tuple(alphabet), frozenset(states),
                   frozenset((src, letters[label], tgt) for _, src, label, tgt in transitions),
                   frozenset(initials), frozenset(accepting))
    except ValueError as e:
        block.fail(str(e))


def reference_load_text(sources):
    """``workspace.load_text`` with the tokenizer and the automaton parser
    above in place of the package's own."""
    from unittest import mock

    from epicdemo import workspace

    with mock.patch.multiple(workspace, _split_blocks=tokenized_split_blocks,
                             _parse_automaton=scanning_parse_automaton):
        return workspace.load_text(sources)


def _natural_key(text):
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", text))


def _state_key(state):
    """Strings before other states, each in natural order of its text; the
    raw text breaks ties ('s1' and 's01'), so the order is total."""
    if isinstance(state, str):
        return (0, _natural_key(state), state)
    text = repr(state)
    return (1, _natural_key(text), text)


def canonical_states(nfa):
    """The package's state renaming, read off ``workspace._canonical``:
    ``{state: 's<k>'}``, to compare with ``keyed_canonical_states``."""
    from epicdemo.workspace import _canonical

    states, order, _, _ = _canonical(nfa)
    return {states[i]: f"s{k}" for k, i in enumerate(order)}


def keyed_canonical_states(nfa):
    """State renaming s0, s1, ... in breadth-first order, recomputing the
    sort key of a state at every comparison that needs it."""
    letter_rank = {x: i for i, x in enumerate(nfa.alphabet)}
    outgoing = {}
    for (p, label, q) in nfa.transitions:
        rank = (letter_rank[label], 0) if label is not None else (len(letter_rank), 0)
        outgoing.setdefault(p, []).append((rank, q))
    names = {}
    queue = sorted(nfa.initials, key=_state_key)
    for s in queue:
        names[s] = f"s{len(names)}"
    cursor = 0
    while cursor < len(queue):
        p = queue[cursor]
        cursor += 1
        for _, q in sorted(outgoing.get(p, ()),
                           key=lambda e: (e[0], _state_key(e[1]))):
            if q not in names:
                names[q] = f"s{len(names)}"
                queue.append(q)
    for s in sorted(nfa.states - set(names), key=_state_key):
        names[s] = f"s{len(names)}"
    return names


def keyed_render_automaton(name, nfa):
    """An automaton block in the workspace format, states named by
    ``keyed_canonical_states``."""
    names = keyed_canonical_states(nfa)
    letter_rank = {x: i for i, x in enumerate(nfa.alphabet)}
    by_index = sorted(names, key=lambda s: int(names[s][1:]))
    lines = [f"automaton {name}"]
    lines.append("  alphabet " + " ".join(x.name for x in nfa.alphabet))
    lines.append("  states " + " ".join(names[s] for s in by_index))
    lines.append("  initial " + " ".join(
        names[s] for s in by_index if s in nfa.initials))
    lines.append("  accept " + " ".join(
        names[s] for s in by_index if s in nfa.accepting))

    def edge_key(edge):
        p, label, q = edge
        rank = letter_rank[label] if label is not None else len(letter_rank)
        return (int(names[p][1:]), rank, int(names[q][1:]))
    for (p, label, q) in sorted(nfa.transitions, key=edge_key):
        text = label.name if label is not None else "eps"
        lines.append(f"  trans {names[p]} {text} {names[q]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# -- word problem ------------------------------------------------------------


def _inverse_name(name):
    return name[:-3] if name.endswith("^-1") else name + "^-1"


def _reduce_names(names):
    """Free reduction of a tuple of letter names, one stack pass."""
    stack = []
    for n in names:
        if stack and stack[-1] == _inverse_name(n):
            stack.pop()
        else:
            stack.append(n)
    return tuple(stack)


def _spell(word):
    return " ".join(x.name for x in word) if word else "eps"


class PairwiseContradiction(Exception):
    """Both kinds of certificate turned up in one iteration; the arguments
    are the first certificate of each kind."""


def pairwise_decide_word(word, language, closure, budget, frontier=None):
    """The dovetailing decider, one fresh free reduction per comparison.

    Iteration i walks positions 0..2i+1: position 0 compares closure word
    i with the reduced target, position 1 + t compares the pair (t, i) for
    t < i and the pair (i, t - i) otherwise, as (language index, closure
    index).  Positions whose stream word does not exist are skipped without
    a comparison.  ``frontier`` and the returned frontier are plain dicts
    with the keys word, iteration, cursor, pending and comparisons.
    Returns (kind, certificate, frontier, comparisons, stalled).
    """
    target = _reduce_names(x.name for x in word)
    target_text = " ".join(target) if target else "eps"
    inverse_target = tuple(_inverse_name(n) for n in reversed(target))
    if frontier is None:
        frontier = {"word": target_text, "iteration": 0, "cursor": 0,
                    "pending": [], "comparisons": 0}
    elif frontier["word"] != target_text:
        raise ValueError(f"frontier was recorded for {frontier['word']!r}")
    i, cursor = frontier["iteration"], frontier["cursor"]
    pending = [dict(c) for c in frontier["pending"]]
    total = frontier["comparisons"]
    spent = 0

    def checkpoint():
        return {"word": target_text, "iteration": i, "cursor": cursor,
                "pending": [dict(c) for c in pending], "comparisons": total}

    while True:
        performed = False
        while cursor < 2 * i + 2:
            if cursor == 0:
                gw = closure.get(i)
                if gw is None:
                    cursor += 1
                    continue
                left = _reduce_names(x.name for x in gw)
                right = target
                certificate = {"kind": "in_wp", "index": i, "closure_word": _spell(gw)}
            else:
                t = cursor - 1
                j, k = (t, i) if t < i else (i, t - i)
                fw = language.get(j)
                gw = closure.get(k)
                if fw is None or gw is None:
                    cursor += 1
                    continue
                left = _reduce_names(tuple(x.name for x in fw) + inverse_target)
                right = _reduce_names(x.name for x in gw)
                certificate = {"kind": "not_in_wp",
                               "language_index": j, "closure_index": k,
                               "language_word": _spell(fw),
                               "closure_word": _spell(gw)}
            if spent >= budget:
                return ("budget_exceeded", None, checkpoint(), total, False)
            spent += 1
            total += 1
            performed = True
            if left == right:
                pending.append(certificate)
            cursor += 1
        if pending:
            hits_in = [c for c in pending if c["kind"] == "in_wp"]
            hits_out = [c for c in pending if c["kind"] == "not_in_wp"]
            if hits_in and hits_out:
                raise PairwiseContradiction(hits_in[0], hits_out[0])
            return (pending[0]["kind"], pending[0], None, total, False)
        stalled = not performed and closure.get(i) is None and (
            language.get(i) is None or closure.get(0) is None)
        i += 1
        cursor = 0
        if stalled:
            return ("budget_exceeded", None, checkpoint(), total, True)


def spelled_closure_enumerator(presentation):
    """The normal-closure stream spelled factor by factor, as name tuples.

    Products are visited by total size, factor count, then factorwise by
    relator index, sign and conjugator, conjugators depth-first in
    alphabet order; every factor sequence rebuilds each conjugator and its
    inverse and reduces the whole spelling.  An endless generator unless
    the presentation has no relators.
    """
    alphabet = [x.name for x in presentation.alphabet]
    relators = [tuple(x.name for x in r) for r in presentation.relators]
    yield ()
    if not relators:
        return
    inverses = [tuple(_inverse_name(n) for n in reversed(r)) for r in relators]
    min_cost = 1 + min(len(r) for r in relators)

    def reduced_of_length(k, prefix=()):
        if k == 0:
            yield prefix
            return
        for n in alphabet:
            if not prefix or prefix[-1] != _inverse_name(n):
                yield from reduced_of_length(k - 1, prefix + (n,))

    def factor_sequences(total, m):
        if m == 0:
            if total == 0:
                yield ()
            return
        tail_min = (m - 1) * min_cost
        for ri, r in enumerate(relators):
            head = 1 + len(r)
            room = total - head - tail_min
            if room < 0:
                continue
            for sign in (1, -1):
                for u_len in range(room + 1):
                    for u in reduced_of_length(u_len):
                        for rest in factor_sequences(total - head - u_len, m - 1):
                            yield ((ri, sign, u),) + rest

    for total in itertools.count(min_cost):
        for m in range(1, total // min_cost + 1):
            for factors in factor_sequences(total, m):
                spelled = []
                for (ri, sign, u) in factors:
                    spelled.extend(u)
                    spelled.extend(relators[ri] if sign == 1 else inverses[ri])
                    spelled.extend(_inverse_name(n) for n in reversed(u))
                yield _reduce_names(spelled)


# -- builtin demonstrations ----------------------------------------------------


def blockwise_zk_demo(rank, names=None):
    """``zk_demo`` assembled block by block from the automaton algebra:
    each generator's block is its ``z_demo`` language or the empty word,
    the blocks are concatenated in order and the empty word is taken out
    by ``subtract_word``."""
    from epicdemo.automata import EPSILON, Letter, concat, finite_language, \
        subtract_word, union
    from epicdemo.demonstrations import Demonstration, identity_eval_map, z_demo
    from epicdemo.groups import FreeAbelianOracle

    names = list(names or "abcdefghijklmnopqrstuvwxyz"[:rank])
    gens = {}
    blocks = []
    for i, name in enumerate(names):
        vec = tuple(1 if j == i else 0 for j in range(rank))
        gens[Letter(name)] = vec
        gens[Letter(name + "^-1")] = tuple(-c for c in vec)
        blocks.append(union(z_demo(name).language, finite_language([EPSILON])))
    language = blocks[0]
    for block in blocks[1:]:
        language = concat(language, block)
    language = subtract_word(language, EPSILON)
    oracle = FreeAbelianOracle(rank, gens)
    return Demonstration(oracle, identity_eval_map(oracle.alphabet), language)


# -- letter-probing products ---------------------------------------------------


def out_edges(nfa):
    """``{state: {label: [targets]}}`` of every state, from the transitions."""
    edges = {s: {} for s in nfa.states}
    for (p, label, q) in nfa.transitions:
        edges[p].setdefault(label, []).append(q)
    return edges


def probing_product(alphabet, lefts, moves, right, left_accepting):
    """The reachable pairs of a left-hand search and ``right``, found the
    way the package's product once found them: ``moves(p)`` yields
    ``(label, letter, p2)`` and every left move probes the right's edges
    on its letter (letter None: the left moves alone)."""
    from epicdemo.automata import explore

    edges = out_edges(right)

    def pair_moves(pair):
        p, q = pair
        out = edges[q]
        for label, x, p2 in moves(p):
            if x is None:
                yield label, (p2, q)
            else:
                for q2 in out.get(x, ()):
                    yield label, (p2, q2)
        for q2 in out.get(None, ()):
            yield None, (p, q2)

    return explore(alphabet, [(p, q) for p in lefts for q in right.initials], pair_moves,
                   lambda s: s[0] in left_accepting and s[1] in right.accepting)


def probing_intersect(a, b):
    """``intersect(a, b)`` through ``probing_product``, each edge of ``a``
    probing ``b``."""
    from epicdemo.automata import merge_alphabets

    edges = out_edges(a)

    def moves(p):
        return ((x, x, p2) for x, targets in edges[p].items() for p2 in targets)

    return probing_product(merge_alphabets(a.alphabet, b.alphabet), a.initials, moves, b,
                           a.accepting)


def probing_fi_language(demo, table):
    """The language of ``fi_subgroup(demo, table)`` through
    ``probing_product``: every edge of the coset walk, with the extra copy
    ``("fin",)`` of the subgroup coset, probes the language on its
    generator."""
    from epicdemo.automata import Letter

    edges = [(c, x, table.act(c, x)) for c in table.cosets for x in demo.oracle.alphabet]
    edge_letters = tuple(Letter(f"({c}|{x}|{d})") for c, x, d in edges)
    home, fin = table.subgroup_coset, ("fin",)
    walk = {("c", c): [] for c in table.cosets}
    walk[fin] = []
    for (c, x, d), letter in zip(edges, edge_letters):
        walk["c", c].append((letter, x, ("c", d)))
        if d == home:
            walk["c", c].append((letter, x, fin))
    return probing_product(edge_letters, [("c", home)], walk.__getitem__, demo.language, {fin})


def adjacency_admissible_automaton(graph):
    """``admissible_automaton(graph)`` asking ``graph.adjacent`` for every
    pair of vertices at every move."""
    from epicdemo.automata import Letter, explore

    verts = graph.vertices
    letters = tuple(Letter(v) for v in verts)
    initial = (tuple(None for _ in verts), tuple(False for _ in verts))

    def moves(state):
        lastblock, tail_gt = state
        for i, w in enumerate(verts):
            if lastblock[i] == w or tail_gt[i]:
                continue
            lb, tg = list(lastblock), list(tail_gt)
            for j, v in enumerate(verts):
                if v == w or not graph.adjacent(v, w):
                    lb[j], tg[j] = w, False
                elif i > j:
                    tg[j] = True
            yield letters[i], (tuple(lb), tuple(tg))

    return explore(letters, [initial], moves, lambda state: state != initial)


# -- set-based builders ----------------------------------------------------
# The builders as they were before they handed over an integer edge index:
# each collects its states and its (source, label, target) triples in sets
# and goes through the full check of Nfa(...).


def set_explore(alphabet, initials, moves, accepts):
    """``explore``: the reachable states and every edge ``moves`` yields."""
    from epicdemo.automata import Nfa, reachable

    transitions = set()

    def successors(p):
        for label, q in moves(p):
            transitions.add((p, label, q))
            yield q

    initials = frozenset(initials)
    states = reachable(initials, successors)
    return Nfa(tuple(alphabet), frozenset(states), frozenset(transitions), initials,
               frozenset(filter(accepts, states)))


def set_glue(alphabet, parts, bridges, initials, accepting):
    """``glue``: copy ``t`` of every part tags its states ``(t, s)``, and a
    bridge ``(t, u)`` is an epsilon edge from each accepting state of copy
    ``t`` to each initial state of copy ``u``."""
    from epicdemo.automata import Nfa

    states, transitions = set(), set()
    for t, a in parts.items():
        states.update((t, s) for s in a.states)
        transitions.update(((t, p), label, (t, q)) for (p, label, q) in a.transitions)
    for t, u in bridges:
        transitions.update(((t, f), None, (u, i))
                           for f in parts[t].accepting for i in parts[u].initials)
    return Nfa(tuple(alphabet), frozenset(states), frozenset(transitions),
               frozenset((t, s) for t in initials for s in parts[t].initials),
               frozenset((t, s) for t in accepting for s in parts[t].accepting))


def set_image_hom(a, phi, alphabet):
    """``image_hom`` into ``alphabet``: each transition a chain of fresh
    states ``("hp", p, letter name, q, k)`` spelling its image, an epsilon
    edge or an erased image one epsilon edge."""
    from epicdemo.automata import EPSILON, Nfa

    states = {("h", s) for s in a.states}
    transitions = set()
    for (p, label, q) in a.transitions:
        image = EPSILON if label is None else phi[label]
        prev = ("h", p)
        for k in range(len(image) - 1):
            mid = ("hp", p, label.name, q, k)
            states.add(mid)
            transitions.add((prev, image[k], mid))
            prev = mid
        transitions.add((prev, image[-1] if image else None, ("h", q)))
    return Nfa(tuple(alphabet), frozenset(states), frozenset(transitions),
               frozenset(("h", s) for s in a.initials), frozenset(("h", s) for s in a.accepting))


def set_inverse_letter_hom(a, hom, domain):
    """``inverse_letter_hom``: each letter edge relabelled by every letter
    of ``domain`` that ``hom`` sends to its label; epsilon edges kept."""
    from epicdemo.automata import Nfa

    transitions = {(p, d, q) for (p, label, q) in a.transitions
                   for d in ((None,) if label is None else [d for d in domain if hom[d] == label])}
    return Nfa(tuple(domain), a.states, frozenset(transitions), a.initials, a.accepting)
