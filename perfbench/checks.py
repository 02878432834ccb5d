"""Independent checks of job outputs.

Nothing here calls into ``epicdemo`` except ``load`` (a bundle must reload)
and ``Nfa.accepts`` (compared against a path search written here).  Group
arithmetic, growth counts and certificate algebra are recomputed from the
generator's own descriptions of the groups.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import random
import re
from itertools import combinations

from workloads import exponent_sums, inv, zk_ball

_FIELD = re.compile(r"(\w+)=(.*?)(?= \w+=|$)")


def words_of(text: str) -> tuple:
    parts = text.split()
    return () if parts == ["eps"] else tuple(parts)


def free_reduce(word) -> tuple:
    out: list = []
    for x in word:
        if out and out[-1] == inv(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word) -> tuple:
    return tuple(inv(x) for x in reversed(word))


# -- group arithmetic from the generator's descriptions ------------------------


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def is_identity(spec, word) -> bool:
    kind = spec[0]
    if kind == "free":
        return not free_reduce(word)
    if kind == "mat":
        _, dim, gens = spec
        m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        for x in word:
            m = _mat_mul(m, gens[x])
        return all(m[i][j] == (1 if i == j else 0) for i in range(dim) for j in range(dim))
    if kind == "gp":
        # graph product of copies of Z: cancel x ... x^-1 whenever every
        # letter in between commutes with x; trivial iff nothing is left
        _, edges, vertex = spec
        w = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(w)):
                v = vertex[w[i]]
                for j in range(i + 1, len(w)):
                    if w[j] == inv(w[i]):
                        del w[j], w[i]
                        changed = True
                        break
                    u = vertex[w[j]]
                    if u != v and frozenset((u, v)) not in edges:
                        break
                if changed:
                    break
        return not w
    raise ValueError(f"no identity test for group kind {kind!r}")


# -- verify and ball -------------------------------------------------------------


def check_verify(code, out) -> list:
    lines = out.splitlines()
    if code != 0 or lines != ["result pass"]:
        return [f"verify expected exit 0 and 'result pass', got exit {code}: {lines[-3:]}"]
    return []


def _series_inverse(c, n):
    out = [0] * (n + 1)
    for m in range(n + 1):
        out[m] = (1 if m == 0 else 0) - sum(c[k] * out[m - k] for k in range(1, m + 1))
    return out


def graph_product_ball(vertices, edges, n):
    """Ball size of a graph product of copies of Z with its standard letters.

    Chiswell's formula: 1/W(t) = sum over cliques s of prod over v in s of
    (1/W_v(t) - 1), with 1/W_Z(t) - 1 = -2t/(1+t).
    """
    adj = {frozenset(e) for e in edges}
    s = [0] + [-2 * (-1) ** (j - 1) for j in range(1, n + 1)]
    power = [1] + [0] * n
    c = [0] * (n + 1)
    for k in range(len(vertices) + 1):
        cliques = sum(1 for sub in combinations(vertices, k)
                      if all(frozenset(p) in adj for p in combinations(sub, 2)))
        for m in range(n + 1):
            c[m] += cliques * power[m]
        power = [sum(power[i] * s[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return sum(_series_inverse(c, n))


def matrix_ball(gens, radius) -> int:
    """Elements within radius letters, by breadth-first search over products."""
    dim = len(next(iter(gens.values())))
    start = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    seen, frontier = {start}, [start]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for g in gens.values():
                p = tuple(map(tuple, _mat_mul(m, g)))
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def expected_ball(info, radius) -> int:
    if "free" in info:
        r = info["free"]
        return 1 + 2 * r * ((2 * r - 1) ** radius - 1) // (2 * r - 2)
    if "zk" in info:
        return zk_ball(info["zk"], radius)
    if "mat" in info:
        return matrix_ball(info["mat"], radius)
    if "gp" in info:
        return graph_product_ball(*info["gp"], radius)
    return info["order"]


def check_ball(job, code, out) -> list:
    radius = int(job.argv[job.argv.index("--radius") + 1])
    lines = out.splitlines()
    want = expected_ball(job.info, radius)
    problems = []
    if code != 0 or len(lines) != want:
        problems.append(f"ball expected {want} elements with exit 0, "
                        f"got {len(lines)} with exit {code}")
    if any(len(words_of(line.rsplit("] ", 1)[1])) > radius for line in lines):
        problems.append("ball witness longer than the radius")
    return problems


# -- wp decide ---------------------------------------------------------------------


def parse_verdict(out) -> dict:
    lines = out.splitlines()
    if len(lines) != 1 or not lines[0].startswith("verdict "):
        return {}
    _, kind, rest = lines[0].split(" ", 2)
    fields = dict(_FIELD.findall(rest))
    fields["kind"] = kind
    return fields


def check_wp(job, code, out, budget) -> list:
    """One `wp decide --porcelain` result: the verdict must follow the
    exponent-sum rule of Z^2 and its certificate must hold in the free group."""
    word = job.info["word"]
    v = parse_verdict(out)
    if not v:
        return [f"unparsable verdict: {out!r}"]
    kind = v["kind"]
    if kind == "budget_exceeded":
        if code != 1 or v.get("stalled") != "no" or int(v["comparisons"]) != budget:
            return [f"budget verdict should stop at {budget} comparisons with exit 1: {out!r}"]
        return []
    expected = "in_wp" if exponent_sums(word) == (0, 0) else "not_in_wp"
    if kind != expected:
        return [f"verdict {kind} for {' '.join(word)}, exponent sums say {expected}"]
    if code != 0 or v.get("replayed") != "yes":
        return [f"certificate did not replay (exit {code}): {out!r}"]
    closure = words_of(v.get("closure_word", ""))
    if exponent_sums(closure) != (0, 0):
        return [f"closure word {closure} is not in the normal closure"]
    if kind == "in_wp":
        if free_reduce(closure) != free_reduce(word):
            return [f"in_wp certificate {closure} does not spell {word}"]
        return []
    lang = words_of(v.get("language_word", ""))
    if exponent_sums(lang) == (0, 0):
        return [f"language word {lang} is trivial in Z^2"]
    if free_reduce(lang + inverse(word)) != free_reduce(closure):
        return [f"not_in_wp certificate {lang} / {closure} does not hold for {word}"]
    return []


def same_run(resumed_out, reference_out) -> list:
    """A resumed run must end where one uninterrupted run with the summed
    budget ends: same verdict, same total comparisons."""
    a, b = parse_verdict(resumed_out), parse_verdict(reference_out)
    if (a.get("kind"), a.get("comparisons")) != (b.get("kind"), b.get("comparisons")):
        return [f"resumed run {resumed_out.strip()!r} differs from "
                f"uninterrupted run {reference_out.strip()!r}"]
    return []


# -- construct bundles -------------------------------------------------------------


def bf_accepts(out_edges, initials, accepting, word) -> bool:
    """Path search over (state, position) pairs, no subset construction."""
    seen = set()
    stack = [(s, 0) for s in initials]
    while stack:
        p, i = stack.pop()
        if (p, i) in seen:
            continue
        seen.add((p, i))
        if i == len(word) and p in accepting:
            return True
        for label, q in out_edges.get(p, ()):
            if label is None:
                stack.append((q, i))
            elif i < len(word) and label.name == word[i]:
                stack.append((q, i + 1))
    return False


def walk(out_edges, initials, accepting, rng, max_len=8):
    """Letters read along a random walk that stops in an accepting state,
    or None when the walk finds none."""
    state, word, last = rng.choice(initials), [], None
    for _step in range(4 * max_len):
        if state in accepting:
            last = tuple(word)
            if rng.random() < 0.2:
                break
        edges = out_edges.get(state)
        if not edges or len(word) >= max_len:
            break
        label, state = rng.choice(edges)
        if label is not None:
            word.append(getattr(label, "name", label))
    if state in accepting:
        last = tuple(word)
    return last


def expected_accepts(lang, word) -> bool:
    """Membership in the language a construct job must produce."""
    if "reduced" in lang:
        letters = {y for x in lang["reduced"] for y in (x, inv(x))}
        return ((bool(word) or lang["empty"]) and all(x in letters for x in word)
                and free_reduce(word) == tuple(word))
    spelled = _spelled(lang, word)
    if spelled is None:
        return False
    t, state, accepting = lang["dfa"]
    for x in spelled:
        state = t.get((state, x))
        if state is None:
            return False
    return state in accepting


def _spelled(lang, word):
    """The graph-product word behind a bundle word, or None if it spells none."""
    if "images" in lang:
        first = {image[0]: (x, image) for x, image in lang["images"].items()}
        out, i = [], 0
        while i < len(word):
            x, image = first.get(word[i], (None, ()))
            if not image or tuple(word[i:i + len(image)]) != image:
                return None
            out.append(x)
            i += len(image)
        return out
    if "swap" in lang:
        coset, out = "H", []
        for letter in word:
            parts = letter[1:-1].split("|") if letter[:1] + letter[-1:] == "()" else []
            if len(parts) != 3 or parts[0] != coset:
                return None
            x, coset = parts[1], parts[2]
            if coset != ({"H": "C", "C": "H"}[parts[0]] if x in lang["swap"] else parts[0]):
                return None
            out.append(x)
        return out if word and coset == "H" else None
    return list(word)


def expected_word(lang, rng):
    """A random word of the expected language, or None."""
    if "reduced" in lang:
        letters = [y for x in lang["reduced"] for y in (x, inv(x))]
        word, length = [], rng.randint(0 if lang["empty"] else 1, 6)
        while len(word) < length:
            x = rng.choice(letters)
            if not word or x != inv(word[-1]):
                word.append(x)
        return tuple(word)
    t, initial, accepting = lang["dfa"]
    out_edges: dict = {}
    for (p, x), q in t.items():
        out_edges.setdefault(p, []).append((x, q))
    spelled = walk(out_edges, [initial], accepting, rng)
    if spelled is None:
        return None
    if "images" in lang:
        return tuple(y for x in spelled for y in lang["images"][x])
    if "swap" in lang:
        coset, word = "H", []
        for x in spelled:
            target = ({"H": "C", "C": "H"}[coset] if x in lang["swap"] else coset)
            word.append(f"({coset}|{x}|{target})")
            coset = target
        return tuple(word) if coset == "H" else None
    return spelled


def check_bundle(job, code, out, load, spec, seed) -> tuple:
    """Reload a bundle and test its language on a seeded word sample: 30
    random accepting walks in the bundle, 30 in the expected language and 30
    random words.  The reloaded automaton, a path search over it and the
    expected language must agree on each, and no accepted word may
    evaluate to the identity.  Returns (problems, states, transitions).
    """
    if code != 0 or out.strip() != f"wrote {job.out}":
        return [f"construct exit {code}: {out.strip()!r}"], 0, 0
    ws = load([job.out])
    if "demo" in job.info:
        demo = ws.demonstrations[job.info["demo"]]
        nfa, eval_map = demo.language, {x.name: [y.name for y in w]
                                        for x, w in demo.eval_map.items()}
    else:
        nfa, eval_map = ws.automata[job.info["automaton"]], None
    out_edges: dict = {}
    for (p, label, q) in nfa.transitions:
        out_edges.setdefault(p, []).append((label, q))
    for edges in out_edges.values():
        edges.sort(key=repr)
    rng = random.Random(f"{seed}:{job.jid}")
    lang = job.info["lang"]
    letters = {x.name: x for x in nfa.alphabet}
    names = sorted(letters)
    initials = sorted(nfa.initials, key=repr)
    sample = [walk(out_edges, initials, nfa.accepting, rng) for _ in range(30)]
    sample += [expected_word(lang, rng) for _ in range(30)]
    sample += [tuple(rng.choice(names) for _ in range(rng.randint(0, 6))) for _ in range(30)]
    problems = []
    accepted = 0
    for word in filter(lambda w: w is not None, sample):
        ref = bf_accepts(out_edges, nfa.initials, nfa.accepting, word)
        got = all(x in letters for x in word) and nfa.accepts(tuple(letters[x] for x in word))
        want = expected_accepts(lang, word)
        if not ref == got == want:
            problems.append(f"{' '.join(word) or 'eps'}: accepts {got}, path search {ref}, "
                            f"expected {want}")
        elif ref:
            accepted += 1
            if eval_map and is_identity(spec, [y for x in word for y in eval_map[x]]):
                problems.append(f"accepted word {word} evaluates to the identity")
    if accepted == 0:
        problems.append("no sampled word was accepted")
    return problems, len(nfa.states), len(nfa.transitions)


def self_test() -> list:
    """Feed the checkers outputs that are wrong on purpose; each must be
    caught.  Returns the cases that slipped through."""
    from workloads import Job
    missed = []
    wrong_in = Job("t", "wp", [], info={"word": ("a",)})
    if not check_wp(wrong_in, 0, "verdict in_wp comparisons=1 replayed=yes "
                    "closure_word=eps index=0\n", 1000):
        missed.append("in_wp verdict for a word with non-zero exponent sums")
    wrong_out = Job("t", "wp", [], info={"word": ("a", "b", "a^-1", "b^-1")})
    if not check_wp(wrong_out, 0, "verdict not_in_wp comparisons=9 replayed=yes "
                    "closure_index=0 closure_word=eps language_index=0 "
                    "language_word=a\n", 1000):
        missed.append("not_in_wp verdict for a commutator")
    if not same_run("verdict in_wp comparisons=5 replayed=yes\n",
                    "verdict in_wp comparisons=6 replayed=yes\n"):
        missed.append("resumed run with a different comparison count")
    ball = Job("t", "ball", ["ball", "--radius", "2"], info={"free": 2})
    if not check_ball(ball, 0, "free2[] eps\n" * 16):
        missed.append("free group ball of the wrong size")
    if not check_verify(1, "result fail\n"):
        missed.append("failed verify")
    gp = ("gp", {frozenset(("u", "v"))}, {"a": "u", "a^-1": "u", "b": "v",
                                          "b^-1": "v", "c": "w", "c^-1": "w"})
    if not is_identity(gp, ["a", "b", "a^-1", "b^-1"]) or is_identity(gp, ["a", "c", "a^-1"]):
        missed.append("graph product identity test")
    if expected_accepts({"reduced": ["a"], "empty": False}, ("a", "a^-1")):
        missed.append("unreduced word in a reduced-word language")
    return missed
