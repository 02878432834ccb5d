"""Seeded inputs for the three workloads.

``build(workload, seed, workdir)`` writes the workspace files the jobs
read and returns the job list.  Everything here is plain Python over the
block-file text format: the generator never imports ``epicdemo``, so the
inputs for a seed are the same whatever version of the package runs them.

Sizes are fixed per workload; the seed picks letter names, vertex orders,
matrix entries, coset-table subsets and word samples.  Costs therefore
stay close from seed to seed while the inputs differ.
"""

from __future__ import annotations

import itertools
import os
import random
from math import comb
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("verify", "wp-decide", "construct")

# Budget of one `wp decide` run, in comparisons.  Every in_wp verdict for a
# reduced word of length <= 4 over Z^2 needs at most 870 comparisons, most
# not_in_wp verdicts for words of length <= 4 need fewer than 2000, and the
# zero-sum words of length 6 need millions.  1000 therefore decides the short
# words, and leaves the long ones to the resume and reference jobs.
WP_BUDGET = 1000

_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Job:
    """One CLI invocation and what the checker needs to know about it."""

    jid: str
    kind: str
    argv: list
    info: dict = field(default_factory=dict)
    out: Optional[str] = None   # bundle path written by a construct job
    words: int = 0              # accepted words a verify job enumerates


@dataclass
class Workload:
    name: str
    files: list                 # workspace files loaded once during set-up
    jobs: list                  # the fixed jobs of one pass
    groups: dict                # independent group descriptions, by name


def inv(name: str) -> str:
    return name[:-3] if name.endswith("^-1") else name + "^-1"


# -- automata as plain data --------------------------------------------------


def render_automaton(name, alphabet, transitions, initial, accepting):
    """Block text for a deterministic automaton given as {(p, letter): q}."""
    order = [initial]
    for (p, _x), q in sorted(transitions.items(), key=lambda t: str(t)):
        for s in (p, q):
            if s not in order:
                order.append(s)
    for s in sorted(accepting, key=str):
        if s not in order:
            order.append(s)
    sid = {s: f"s{i}" for i, s in enumerate(order)}
    lines = [f"automaton {name}", "  alphabet " + " ".join(alphabet),
             "  states " + " ".join(sid[s] for s in order),
             f"  initial {sid[initial]}",
             "  accept " + " ".join(sid[s] for s in order if s in accepting)]
    for (p, x), q in transitions.items():
        lines.append(f"  trans {sid[p]} {x} {sid[q]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def count_words(alphabet, transitions, initial, accepting, max_len):
    """Accepted words of length <= max_len of a deterministic automaton."""
    level = {initial: 1}
    total = 1 if initial in accepting else 0
    for _ in range(max_len):
        nxt: dict = {}
        for s, n in level.items():
            for x in alphabet:
                q = transitions.get((s, x))
                if q is not None:
                    nxt[q] = nxt.get(q, 0) + n
        level = nxt
        total += sum(n for s, n in level.items() if s in accepting)
    return total


def powers_automaton(x):
    """Non-zero powers of one letter: x^n or (x^-1)^n, n >= 1."""
    t = {("s", x): "p", ("p", x): "p", ("s", inv(x)): "n", ("n", inv(x)): "n"}
    return [x, inv(x)], t, "s", {"p", "n"}


def blocks_automaton(letters):
    """Sign-consistent blocks x1^n1 x2^n2 ... in order, empty word removed."""
    alphabet = [y for x in letters for y in (x, inv(x))]
    t = {}
    for i, x in enumerate(letters):
        for sign, y in (("+", x), ("-", inv(x))):
            t[((i, sign), y)] = (i, sign)
            t[("s", y)] = (i, sign)
            for j in range(i):
                for s2 in "+-":
                    t[((j, s2), y)] = (i, sign)
    accepting = {(i, s) for i in range(len(letters)) for s in "+-"}
    return alphabet, t, "s", accepting


def admissible_types(vertices, adjacent):
    """Deterministic automaton of pruned, ShortLex-least vertex type strings.

    Per vertex v a state records the last vertex not commuting with v and
    whether a larger vertex was read after it.  Returns the transitions
    {(state, vertex): state}, the initial state and the vertex each state
    is entered by.
    """
    rank = {v: i for i, v in enumerate(vertices)}
    initial = (tuple(None for _ in vertices), tuple(False for _ in vertices))
    trans, entered = {}, {}
    todo, seen = [initial], {initial}
    while todo:
        state = todo.pop()
        last, larger = state
        for w in vertices:
            i = rank[w]
            if last[i] == w or larger[i]:
                continue
            lb, lg = list(last), list(larger)
            for k, v in enumerate(vertices):
                if v == w or not adjacent(v, w):
                    lb[k], lg[k] = w, False
                elif rank[w] > rank[v]:
                    lg[k] = True
            nxt = (tuple(lb), tuple(lg))
            trans[(state, w)] = nxt
            entered[nxt] = w
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return trans, initial, entered


def graph_product_automaton(vertices, adjacent, letter_of):
    """Pruned normal forms of a graph product of copies of Z.

    Each admissible type letter becomes a non-empty power of its vertex
    letter; the result is deterministic and has no epsilon edges.
    """
    types, initial, entered = admissible_types(vertices, adjacent)
    alphabet = [y for v in vertices for y in (letter_of[v], inv(letter_of[v]))]
    t = {}
    for (p, w), q in types.items():
        x = letter_of[w]
        sources = ["init"] if p == initial else [(p, "+"), (p, "-")]
        for src in sources:
            t[(src, x)] = (q, "+")
            t[(src, inv(x))] = (q, "-")
    for q, w in entered.items():
        x = letter_of[w]
        t[((q, "+"), x)] = (q, "+")
        t[((q, "-"), inv(x))] = (q, "-")
    return alphabet, t, "init", set(t.values())


# -- group blocks ----------------------------------------------------------------


def z_group_block(name, x):
    return f"group {name} zk rank 1\n  gen {x} = [1]\n  gen {inv(x)} = [-1]\nend\n"


def path_product(rng, tag, n, pool, order=None):
    """Graph product of n copies of Z on a path.  The vertices are declared
    in the given order of path positions, or in a seeded order.  Returns
    (text, spec, declared vertices, path edges, letter by vertex)."""
    letters = rng.sample(pool, n)
    path = [f"{tag}v{i}" for i in range(n)]
    edges = [(path[i], path[i + 1]) for i in range(n - 1)]
    declared = path[:]
    if order is None:
        rng.shuffle(declared)
    else:
        declared = [path[i] for i in order]
    letter_of = dict(zip(path, letters))
    text = "".join(z_group_block(f"{tag}Z{i}", letter_of[v]) for i, v in enumerate(path))
    text += f"group {tag} graphproduct\n  vertices {' '.join(declared)}\n"
    text += "".join(f"  edge {u} {v}\n" for u, v in edges)
    text += "".join(f"  vertex {v} uses {tag}Z{path.index(v)}\n" for v in declared)
    text += "end\n"
    spec = ("gp", {frozenset(e) for e in edges},
            {y: v for v, x in letter_of.items() for y in (x, inv(x))})
    return text, spec, declared, edges, letter_of


def unitriangular(rng, dim, row, col, scale=1):
    """I + scale*E(row, col) plus seeded entries in {-1, 0, 1} on the
    diagonals above the one holding (row, col)."""
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    m[row][col] = scale
    for i in range(dim):
        for j in range(i + 2, dim):
            if (i, j) != (row, col) and j - i > col - row:
                m[i][j] = rng.choice((-1, 0, 0, 1))
    return m


def mat_inverse(m):
    """Exact inverse of a unitriangular integer matrix: sum of (I - M)^k."""
    dim = len(m)
    nil = [[(1 if i == j else 0) - m[i][j] for j in range(dim)] for i in range(dim)]
    out = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    power = [row[:] for row in out]
    for _ in range(dim):
        power = [[sum(power[i][k] * nil[k][j] for k in range(dim)) for j in range(dim)]
                 for i in range(dim)]
        out = [[out[i][j] + power[i][j] for j in range(dim)] for i in range(dim)]
    return out


def matrix_block(name, dim, gens):
    lines = [f"group {name} matrix dim {dim}"]
    for x, m in gens.items():
        lines.append(f"  gen {x} = " + "[" + ",".join(
            "[" + ",".join(str(e) for e in row) + "]" for row in m) + "]")
    return "\n".join(lines) + "\nend\n"


def demo_block(name, group, automaton, eval_map=None):
    lines = [f"demonstration {name}", f"  group {group}"]
    for x, w in (eval_map or {}).items():
        lines.append(f"  letter {x} = {w}")
    lines.append(f"  automaton {automaton}")
    return "\n".join(lines) + "\nend\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# -- verify ----------------------------------------------------------------------


def free_words(rank, n):
    return sum(2 * rank * (2 * rank - 1) ** (m - 1) for m in range(1, n + 1))


def zk_ball(rank, n):
    """Points of Z^rank with l1 norm at most n."""
    return sum(2 ** i * comb(rank, i) * comb(n, i) for i in range(min(rank, n) + 1))


def build_verify(rng, wd):
    """Verify and ball jobs on all five oracle backends."""
    text, jobs = "", []
    ws = os.path.join(wd, "verify.epic")

    def verify(jid, demo, max_len, ball, words):
        jobs.append(Job(jid, "verify", ["-f", ws, "verify", "--strict", "--porcelain",
                                        "--demo", demo, "--max-len", str(max_len),
                                        "--ball", str(ball), "--search-len", str(max_len)],
                        words=2 * words))

    def ball(jid, flag, name, radius, info):
        jobs.append(Job(jid, "ball", ["-f", ws, "ball", flag, name, "--radius", str(radius)],
                        info=info))

    # graph products of Z on paths: three with 4 vertices, two with 5
    for k, (n, max_len, radius) in enumerate([(4, 4, 4), (4, 4, 3), (4, 4, 3),
                                              (5, 3, 3), (5, 3, 3)]):
        tag = f"G{k}"
        block, spec, declared, edges, letter_of = path_product(rng, tag, n, list(_NAMES))
        adj = spec[1]
        alphabet, t, init, acc = graph_product_automaton(
            declared, lambda u, v: frozenset((u, v)) in adj, letter_of)
        text += block + render_automaton(f"{tag}lang", alphabet, t, init, acc)
        text += demo_block(f"{tag}demo", tag, f"{tag}lang")
        verify(f"v-{tag}", f"{tag}demo", max_len, radius,
               count_words(alphabet, t, init, acc, max_len))
        ball(f"b-{tag}", "--group", tag, 3,
             {"gp": (declared, [tuple(e) for e in edges])})

    # free and free abelian builtins; counts from closed forms
    for rank, n in ((2, 7), (3, 5), (4, 4)):
        verify(f"v-FREE{rank}", f"FREE{rank}", n, n, free_words(rank, n))
        for r in (n - 1, n):
            ball(f"b-FREE{rank}-{r}", "--demo", f"FREE{rank}", r, {"free": rank})
    for rank, n in ((2, 10), (3, 7), (4, 5), (5, 4)):
        verify(f"v-ZK{rank}", f"ZK{rank}", n, n, zk_ball(rank, n) - 1)
        for r in (n - 1, n):
            ball(f"b-ZK{rank}-{r}", "--demo", f"ZK{rank}", r, {"zk": rank})

    # Heisenberg group as 3x3 matrices: central powers, then plane blocks
    for k in range(3):
        tag = f"H{k}"
        x, y, z = rng.sample(list(_NAMES), 3)
        gens = {}
        for name, (r, c) in ((x, (0, 1)), (y, (1, 2)), (z, (0, 2))):
            m = unitriangular(rng, 3, r, c)
            gens[name], gens[inv(name)] = m, mat_inverse(m)
        text += matrix_block(tag, 3, gens)
        alphabet, t, init, acc = blocks_automaton([z, x, y])
        text += render_automaton(f"{tag}lang", alphabet, t, init, acc)
        text += demo_block(f"{tag}demo", tag, f"{tag}lang")
        verify(f"v-{tag}", f"{tag}demo", 8, 2, count_words(alphabet, t, init, acc, 8))
        ball(f"b-{tag}", "--group", tag, 3, {"mat": gens})

    # S3 on all five non-identity elements, seeded letter names and order
    cycles = ["(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)"]
    for k in range(3):
        tag = f"S{k}"
        names = rng.sample(list(_NAMES), 5)
        order = list(range(5))
        rng.shuffle(order)
        text += f"group {tag} perm degree 3\n" + "".join(
            f"  gen {names[i]} = {cycles[i]}\n" for i in order) + "end\n"
        alphabet = [names[i] for i in order]
        t = {("r", x): ("w", x) for x in alphabet}
        acc = {("w", x) for x in alphabet}
        text += render_automaton(f"{tag}lang", alphabet, t, "r", acc)
        text += demo_block(f"{tag}demo", tag, f"{tag}lang")
        verify(f"v-{tag}", f"{tag}demo", 3, 2, count_words(alphabet, t, "r", acc, 3))
        for r in (1, 3):
            ball(f"b-{tag}-{r}", "--group", tag, r, {"order": 6})
    _write(ws, text)
    return Workload("verify", [ws], jobs, {})


# -- wp-decide -------------------------------------------------------------------

PLANE = "presentation plane\n  alphabet a b\n  relator a b a^-1 b^-1\nend\n"


def reduced_words(length):
    letters = ("a", "a^-1", "b", "b^-1")
    for t in itertools.product(letters, repeat=length):
        if all(t[i] != inv(t[i + 1]) for i in range(length - 1)):
            yield t


def exponent_sums(word):
    sums = {"a": 0, "b": 0}
    for x in word:
        sums[x[0]] += -1 if x.endswith("^-1") else 1
    return sums["a"], sums["b"]


# Words per pass, by (length, zero exponent sums?): None takes every reduced
# word of the stratum, a number samples that many.  Whether a word runs out
# of budget decides whether it costs two more jobs; that is fixed for the
# complete strata, so only the six sampled words change the cost of a pass
# from seed to seed.  48 of the 106 words have zero exponent sums.
WP_STRATA = {(1, False): None, (2, False): None, (3, False): None,
             (4, True): None, (6, True): None,
             (4, False): 2, (5, False): 2, (6, False): 2}


def build_wp(rng, wd):
    """`wp decide` on the plane presentation with ZK2, one fixed budget."""
    ws = _write(os.path.join(wd, "plane.epic"), PLANE)
    jobs = []
    k = 0
    for (length, zero), count in WP_STRATA.items():
        pool = [w for w in reduced_words(length) if (exponent_sums(w) == (0, 0)) == zero]
        for w in rng.sample(pool, len(pool) if count is None else count):
            word = " ".join(w)
            base = ["-f", ws, "--porcelain", "wp", "decide", "--presentation", "plane",
                    "--demo", "ZK2", "--word", word]
            frontier = os.path.join(wd, f"frontier{k}.json")
            jobs.append(Job(f"w{k}", "wp", base + ["--budget", str(WP_BUDGET),
                                                    "--resume", frontier],
                            info={"word": w, "frontier": frontier, "budget": WP_BUDGET,
                                  "resume": base + ["--budget", str(WP_BUDGET),
                                                    "--resume", frontier],
                                  "reference": base + ["--budget", str(2 * WP_BUDGET)]}))
            k += 1
    return Workload("wp-decide", [ws], jobs, {})


# -- construct -------------------------------------------------------------------


def triple_automaton(names):
    """Padded triples (y, x, x) whose first coordinates are the freely reduced
    words over ``names``: the first letter carries a generator in the other
    two coordinates, later letters pad them."""
    gens = [y for x in names for y in (x, inv(x))]
    trip = lambda a, b, c: f"({a}|{b}|{c})"
    t = {}
    for x in gens:
        t[("i", trip("#pad", x, x))] = "done"
        for y in gens:
            t[("i", trip(y, x, x))] = ("run", y)
    for y in gens:
        for z in gens:
            if z != inv(y):
                t[(("run", y), trip(z, "#pad", "#pad"))] = ("run", z)
    alphabet = list(dict.fromkeys(x for (_p, x) in t))
    accepting = {"done"} | {("run", y) for y in gens}
    return alphabet, t, "i", accepting


def build_construct(rng, wd):
    """Construct verbs that write bundles, which the next job may read.

    Each job carries the language its bundle must have, described without
    the package: a deterministic automaton over the graph-product letters,
    with the letter images of change-gens or the coset walk of fi-subgroup
    on top, or the freely reduced words over the free group's names.
    """
    outdir = os.path.join(wd, "out")
    os.makedirs(outdir, exist_ok=True)
    jobs, groups, files = [], {}, []

    def out(name):
        return os.path.join(outdir, name + ".epic")

    # The declaration order sets the size of the product automaton; it is
    # fixed, path order or evens before odds, so that the job sizes, and
    # with them the quantiles of the job times, are the same for every seed.
    for k, n in enumerate([4, 5, 6, 7, 8, 4, 5, 6, 7, 8]):
        tag = f"P{k}"
        order = list(range(n)) if k < 5 else list(range(0, n, 2)) + list(range(1, n, 2))
        block, spec, declared, edges, letter_of = path_product(rng, tag, n, list(_NAMES), order)
        groups[tag] = spec
        dfa = graph_product_automaton(declared, lambda u, v: frozenset((u, v)) in spec[1],
                                      letter_of)[1:]
        text = block
        for i, v in enumerate(declared):
            alphabet, t, init, acc = powers_automaton(letter_of[v])
            text += render_automaton(f"{tag}pow{i}", alphabet, t, init, acc)
            text += demo_block(f"{tag}Zd{i}", f"{tag}Z{v[len(tag) + 1:]}", f"{tag}pow{i}")
        locals_path = _write(os.path.join(wd, f"{tag}.epic"), text)
        files.append(locals_path)
        prod = out(f"{tag}prod")
        argv = ["-f", locals_path, "construct", "graph-product",
                "--vertices", " ".join(declared)]
        for u, v in edges:
            argv += ["--edge", f"{u}-{v}"]
        for i, v in enumerate(declared):
            argv += ["--vertex", f"{v}={tag}Zd{i}"]
        jobs.append(Job(f"gp-{tag}", "graph-product",
                        argv + ["--name", f"{tag}prod", "--out", prod],
                        info={"group": tag, "demo": f"{tag}prod", "lang": {"dfa": dfa}},
                        out=prod))

        # index-2 subgroup: kernel of the exponent sum mod 2 over a seeded
        # half of the vertices
        odd = set(rng.sample(declared, (n + 1) // 2))
        rep = letter_of[sorted(odd)[0]]
        lines = [f"cosettable {tag}T group {tag} subgroupof 2", "  coset H rep eps",
                 f"  coset C rep {rep}"]
        for v in declared:
            for x in (letter_of[v], inv(letter_of[v])):
                swap = v in odd
                lines.append(f"  action H {x} {'C' if swap else 'H'}")
                lines.append(f"  action C {x} {'H' if swap else 'C'}")
        table = _write(os.path.join(wd, f"{tag}table.epic"), "\n".join(lines) + "\nend\n")
        sub = out(f"{tag}sub")
        jobs.append(Job(f"fi-{tag}", "fi-subgroup",
                        ["-f", prod, "-f", table, "construct", "fi-subgroup",
                         "--demo", f"{tag}prod", "--table", f"{tag}T",
                         "--name", f"{tag}sub", "--out", sub],
                        info={"group": tag, "demo": f"{tag}sub",
                              "lang": {"dfa": dfa, "swap": {y for v in odd for y in
                                                            (letter_of[v], inv(letter_of[v]))}}},
                        out=sub))

        # new letters: X2 = x x and Xm = x^-1, so x = X2 Xm and x^-1 = Xm
        cg = out(f"{tag}cg")
        argv = ["-f", prod, "construct", "change-gens", "--demo", f"{tag}prod"]
        images = {}
        for v in declared:
            x = letter_of[v]
            argv += ["--letter", f"{x}2={x} {x}", "--letter", f"{x}m={inv(x)}",
                     "--image", f"{x}={x}2 {x}m", "--image", f"{inv(x)}={x}m"]
            images[x], images[inv(x)] = (f"{x}2", f"{x}m"), (f"{x}m",)
        jobs.append(Job(f"cg-{tag}", "change-gens",
                        argv + ["--name", f"{tag}cg", "--out", cg],
                        info={"group": tag, "demo": f"{tag}cg",
                              "lang": {"dfa": dfa, "images": images}},
                        out=cg))

    # padded-triple automata projected to reduced words, then cross sections
    for k, rank in enumerate([2, 2, 3, 3, 4, 4]):
        tag = f"F{k}"
        names = rng.sample(list(_NAMES), rank)
        alphabet, t, init, acc = triple_automaton(names)
        text = f"group {tag} free rank {rank}\n  names {' '.join(names)}\nend\n"
        text += render_automaton(f"{tag}trip", alphabet, t, init, acc)
        path = _write(os.path.join(wd, f"{tag}.epic"), text)
        files.append(path)
        groups[tag] = ("free", names)
        base = " ".join(y for x in names for y in (x, inv(x)))
        nf = out(f"{tag}nf")
        jobs.append(Job(f"ap-{tag}", "autostackable-project",
                        ["-f", path, "construct", "autostackable-project",
                         "--automaton", f"{tag}trip", "--base", base,
                         "--name", f"{tag}nf", "--out", nf],
                        info={"group": tag, "automaton": f"{tag}nf",
                              "lang": {"reduced": names, "empty": True}},
                        out=nf))
        cs = out(f"{tag}cs")
        jobs.append(Job(f"cs-{tag}", "cross-section",
                        ["-f", nf, "-f", path, "construct", "cross-section",
                         "--automaton", f"{tag}nf", "--group", tag,
                         "--name", f"{tag}cs", "--out", cs],
                        info={"group": tag, "demo": f"{tag}cs",
                              "lang": {"reduced": names, "empty": False}},
                        out=cs))

    # extensions over unitriangular groups: N has a zero first superdiagonal,
    # the quotient blocks read two superdiagonal generators
    for dim in (6, 7, 8):
        tag = f"U{dim}"
        p, q = sorted(rng.sample(range(dim - 1), 2))
        x, y, z = rng.sample(list(_NAMES), 3)
        gens = {}
        for name, (r, c), scale in ((x, (p, p + 1), 1), (y, (q, q + 1), 1),
                                    (z, (0, dim - 1), rng.choice((1, 2, 3)))):
            m = unitriangular(rng, dim, r, c, scale)
            gens[name], gens[inv(name)] = m, mat_inverse(m)
        groups[tag] = ("mat", dim, gens)
        text = matrix_block(tag, dim, gens)
        for lang, letters in ((f"{tag}zlang", [z]), (f"{tag}qlang", [x, y])):
            alphabet, t, init, acc = blocks_automaton(letters)
            text += render_automaton(lang, alphabet, t, init, acc)
        # N, Q and N Q together are the blocks z^a x^b y^c, not all empty
        dfa = blocks_automaton([z, x, y])[1:]
        text += demo_block(f"{tag}N", tag, f"{tag}zlang")
        text += demo_block(f"{tag}Q", tag, f"{tag}qlang")
        path = _write(os.path.join(wd, f"{tag}.epic"), text)
        files.append(path)
        zero = ";".join(f"{i},{i + 1}" for i in range(dim - 1))
        ext = out(f"{tag}ext")
        jobs.append(Job(f"ext-{tag}", "extension",
                        ["-f", path, "construct", "extension", "--normal", f"{tag}N",
                         "--quotient", f"{tag}Q", "--group", tag,
                         "--in-normal", f"matrix-zero:{zero}", "--check-len", "4",
                         "--name", f"{tag}ext", "--out", ext],
                        info={"group": tag, "demo": f"{tag}ext", "lang": {"dfa": dfa}},
                        out=ext))
    return Workload("construct", files, jobs, groups)


def build(workload: str, seed: int, work_dir: str) -> Workload:
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(work_dir, exist_ok=True)
    return {"verify": build_verify, "wp-decide": build_wp,
            "construct": build_construct}[workload](rng, work_dir)
