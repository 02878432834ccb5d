"""Line-oriented block files naming groups, automata, and friends.

One workspace is the concatenation of its input files: five flat
namespaces (groups, automata, demonstrations, coset tables,
presentations), with references linked after parsing so blocks may appear
in any order.  Rendering is deterministic; automaton states are renamed
s0, s1, ... in search order so structurally equal inputs print the same.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .automata import (
    Letter,
    Nfa,
    check_alphabet,
    format_word,
    parse_word,
)
from .constructions import CosetTable
from .demonstrations import Demonstration
from .errors import AutomatonSizeError, LoadError
from .graphproduct import GraphProductOracle, VertexGraph
from .groups import (
    EPS_RESERVED,
    FreeAbelianOracle,
    FreeGroupOracle,
    IntegerMatrixOracle,
    PermutationOracle,
    cycles_from_perm,
    paired_letters,
    perm_from_cycles,
)
from .wordproblem import Presentation

BLOCK_KINDS = ("automaton", "group", "demonstration", "cosettable", "presentation")


@dataclass
class Workspace:
    """Named objects parsed from block files.  An object refers to another
    by holding it; ``render`` finds the name that holds it."""

    groups: dict = field(default_factory=dict)
    automata: dict = field(default_factory=dict)
    demonstrations: dict = field(default_factory=dict)
    cosettables: dict = field(default_factory=dict)
    presentations: dict = field(default_factory=dict)


# -- splitting into blocks ------------------------------------------------


@dataclass
class _Block:
    kind: str
    header: list
    body: Optional[list]  # (lineno, tokens); None once parsed into value
    path: Optional[str]
    line: int
    value: object = None  # what the kind's parser made of the body
    linked: Optional[tuple] = None  # (references, object) of the block's last link

    def fail(self, message, line=None):
        raise LoadError(message, path=self.path, line=self.line if line is None else line)

    def at(self, line, make, *args):
        """``make(*args)``, its ValueError a fault of ``line`` (None: the header)."""
        try:
            return make(*args)
        except ValueError as e:
            self.fail(str(e), line)


def _split_blocks(path: Optional[str], text: str) -> list[_Block]:
    """The blocks of one file, each body a list of (lineno, tokens).

    A line whose first token starts with '#' is a comment.  Within a
    line, a bare '#' token starts a trailing comment; longer tokens such
    as '#pad' or padded triples pass through untouched.
    """
    blocks: list[_Block] = []
    current: Optional[_Block] = None
    body: list = []  # the open block's body
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if "#" in raw:  # no '#' in the line, no comment to strip
            if tokens[0][0] == "#":
                continue
            if "#" in tokens:
                tokens = tokens[: tokens.index("#")]
        if current is None:
            if tokens[0] not in BLOCK_KINDS:
                raise LoadError(f"expected a block keyword, got {tokens[0]!r}",
                                path=path, line=lineno)
            if len(tokens) < 2:
                raise LoadError(f"{tokens[0]} block needs a name", path=path, line=lineno)
            current = _Block(tokens[0], tokens[1:], [], path, lineno)
            body = current.body
        elif tokens[0] == "end" and len(tokens) == 1:
            blocks.append(current)
            current = None
        else:
            body.append((lineno, tokens))
    if current is not None:
        raise LoadError(f"unterminated {current.kind} block {current.header[0]!r}",
                        path=path, line=current.line)
    return blocks


# -- parsing each block kind --------------------------------------------


def _parse_automaton(block: _Block) -> Nfa:
    alphabet: list[Letter] = []
    states: list[str] = []
    initials: list[str] = []
    accepting: list[str] = []
    transitions = []  # token lists: trans source label target
    for _, tokens in block.body:
        key = tokens[0]
        if key == "trans":
            transitions.append(tokens)
        elif key == "alphabet" and "eps" not in tokens:
            alphabet.extend(Letter(n) for n in tokens[1:])
        elif key == "states":
            states.extend(tokens[1:])
        elif key == "initial":
            initials.extend(tokens[1:])
        elif key == "accept":
            accepting.extend(tokens[1:])
        else:
            _automaton_fault(block)
    letters = dict(zip(alphabet, alphabet), eps=None)
    try:
        return Nfa(tuple(alphabet), frozenset(states),
                   frozenset([(src, letters[label], tgt) for _, src, label, tgt in transitions]),
                   frozenset(initials), frozenset(accepting))
    except (KeyError, ValueError, AutomatonSizeError) as e:
        _automaton_fault(block, e)


def _automaton_fault(block: _Block, error: Optional[Exception] = None):
    """Raise the error of an automaton block's first bad line, in file
    order: faults of a line on its own (an alphabet line's letters so far
    included), then transitions naming an undeclared state or letter,
    then initial or accepting lines naming an undeclared state; with no
    bad line, ``error``'s message at the header."""
    states, alphabet = set(), []
    marked = []  # (lineno, state) of each initial and accepting state
    for lineno, (key, *rest) in block.body:
        if key == "trans":
            if len(rest) != 3:
                block.fail("trans takes: source label target", lineno)
        elif key == "alphabet":
            if "eps" in rest:
                block.fail(EPS_RESERVED, lineno)
            alphabet.extend(map(Letter, rest))
            block.at(lineno, check_alphabet, alphabet)
        elif key == "states":
            states.update(rest)
        elif key in ("initial", "accept"):
            marked.extend((lineno, s) for s in rest)
        else:
            block.fail(f"unknown automaton line {key!r}", lineno)
    letters = {*alphabet, "eps"}
    for lineno, (key, *rest) in block.body:
        if key == "trans":
            src, label, tgt = rest
            for s in (src, tgt):
                if s not in states:
                    block.fail(f"transition uses undeclared state {s!r}", lineno)
            if label not in letters:
                block.fail(f"transition label {label!r} is not in the alphabet", lineno)
    for lineno, s in marked:
        if s not in states:
            block.fail(f"undeclared state {s!r}", lineno)
    block.fail(str(error))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str, lineno: int, block: _Block):
    stripped = re.sub(_CYCLE_RE, "", text).strip()
    if stripped:
        block.fail(f"cannot parse cycle notation {text!r}", lineno)
    cycles = []
    for group in _CYCLE_RE.findall(text):
        points = group.split()
        if not points:
            continue
        try:
            cycles.append([int(p) for p in points])
        except ValueError:
            block.fail(f"cycle points must be integers: {group!r}", lineno)
    return cycles


def _gen_lines(block: _Block):
    seen = set()
    for lineno, tokens in block.body:
        if tokens[0] != "gen":
            block.fail(f"unknown group line {tokens[0]!r}", lineno)
        if len(tokens) < 4 or tokens[2] != "=":
            block.fail("gen takes: gen NAME = VALUE", lineno)
        if tokens[1] == "eps":
            block.fail(EPS_RESERVED, lineno)
        if tokens[1] in seen:
            block.fail(f"generator {tokens[1]!r} defined twice", lineno)
        seen.add(tokens[1])
        yield lineno, tokens[1], tokens[3:]


def _build(block: _Block, make, parts: dict, lines: dict):
    """``make(parts)``, the reader's one fault rule for a block built from
    parts: when it fails, the header is at fault if ``make({})`` fails
    too, else the first line whose part fails on its own, else the
    header."""
    try:
        return make(parts)
    except ValueError as e:
        block.at(None, make, {})
        for x, lineno in lines.items():
            block.at(lineno, make, {x: parts[x]})
        block.fail(str(e))


_GEN_FLAVORS = {  # flavor: (header word, its value, oracle class)
    "perm": ("degree", "N", PermutationOracle),
    "matrix": ("dim", "N", IntegerMatrixOracle),
    "zk": ("rank", "K", FreeAbelianOracle),
}


def _gen_value(flavor: str, size: int, rhs: list, lineno: int, block: _Block):
    if flavor == "perm":
        cycles = _parse_cycles(" ".join(rhs), lineno, block)
        return block.at(lineno, perm_from_cycles, cycles, size)
    if flavor == "matrix":
        return tuple(tuple(r) for r in _parse_int_array("".join(rhs), 2, lineno, block))
    return tuple(_parse_int_array("".join(rhs), 1, lineno, block))


def _parse_group(block: _Block):
    """An oracle, or for a graph product the spec its link builds from."""
    flavor = block.header[1] if len(block.header) > 1 else None
    try:
        if flavor in _GEN_FLAVORS:
            word, value, oracle = _GEN_FLAVORS[flavor]
            if len(block.header) != 4 or block.header[2] != word:
                block.fail(f"{flavor} header: group NAME {flavor} {word} {value}")
            size = int(block.header[3])
            gens, lines = {}, {}
            for lineno, gen_name, rhs in _gen_lines(block):
                x = Letter(gen_name)
                gens[x] = _gen_value(flavor, size, rhs, lineno, block)
                lines[x] = lineno
            return _build(block, lambda g: oracle(size, g), gens, lines)
        if flavor == "free":
            if len(block.header) != 4 or block.header[2] != "rank":
                block.fail("free header: group NAME free rank K")
            rank = int(block.header[3])
            names = None
            for lineno, tokens in block.body:
                if tokens[0] == "names":
                    if names is not None:
                        block.fail("names given twice", lineno)
                    names = tuple(tokens[1:])
                    block.at(lineno, paired_letters, names)
                else:
                    block.fail(f"unknown free group line {tokens[0]!r}", lineno)
            return FreeGroupOracle(rank, names)
        if flavor == "graphproduct":
            vertices: list[str] = []
            edges = {}  # (u, v): lineno
            uses, use_lines = {}, {}
            for lineno, tokens in block.body:
                if tokens[0] == "vertices":
                    vertices.extend(tokens[1:])
                    block.at(lineno, VertexGraph.make, vertices, ())
                elif tokens[0] == "edge" and len(tokens) == 3:
                    edges.setdefault((tokens[1], tokens[2]), lineno)
                elif tokens[0] == "vertex" and len(tokens) == 4 and tokens[2] == "uses":
                    if tokens[1] in uses:
                        block.fail(f"group of vertex {tokens[1]!r} given twice", lineno)
                    uses[tokens[1]] = tokens[3]
                    use_lines[tokens[1]] = lineno
                else:
                    block.fail(f"unknown graphproduct line {' '.join(tokens)!r}", lineno)
            missing = [v for v in vertices if v not in uses]
            if missing:
                block.fail(f"vertices without a group: {missing}")
            graph = _build(block, lambda es: VertexGraph.make(vertices, es), edges, edges)
            extra = [v for v in uses if v not in graph.vertices]
            if extra:
                block.fail(f"oracles for unknown vertices: {extra}", use_lines[extra[0]])
            return _GraphSpec(graph, uses)
    except (ValueError, IndexError) as e:
        block.fail(str(e))
    block.fail(f"unknown group flavor {flavor!r}; "
               "expected perm, matrix, zk, free or graphproduct")


def _shaped(value, depth: int) -> bool:
    """Whether ``value`` is an int nested in ``depth`` >= 1 levels of lists."""
    if not isinstance(value, list):
        return False
    if depth == 1:
        return all(type(e) is int for e in value)
    return all(_shaped(e, depth - 1) for e in value)


def _parse_int_array(text: str, depth: int, lineno: int, block: _Block):
    """A JSON vector (depth 1) or matrix (depth 2) with integer entries."""
    shown = text if len(text) <= 60 else text[:57] + "..."  # a value may be any length
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # the decoder recurses per level
        block.fail(f"cannot parse {shown!r} as a vector or matrix", lineno)
    if not _shaped(value, depth):
        what = "vector" if depth == 1 else "matrix"
        block.fail(f"{shown!r} is not a {what} of integers", lineno)
    return value


@dataclass(frozen=True)
class _GraphSpec:
    graph: VertexGraph
    uses: dict  # vertex: the name of its group


def _parse_demonstration(block: _Block):
    """The names of the group and automaton, then ``_build``'s parts and
    lines: each letter's word and each letter's line."""
    refs = {}  # "group" and "automaton": the name the line gives
    letters, letter_lines = {}, {}
    for lineno, tokens in block.body:
        if tokens[0] in ("group", "automaton") and len(tokens) == 2:
            if tokens[0] in refs:
                block.fail(f"{tokens[0]} given twice", lineno)
            refs[tokens[0]] = tokens[1]
        elif tokens[0] == "letter" and len(tokens) >= 4 and tokens[2] == "=":
            letter = Letter(tokens[1])
            if letter in letters:
                block.fail(f"letter {tokens[1]!r} given twice", lineno)
            letters[letter] = block.at(lineno, parse_word, " ".join(tokens[3:]))
            letter_lines[letter] = lineno
        else:
            block.fail(f"unknown demonstration line {' '.join(tokens)!r}", lineno)
    if len(refs) != 2:
        block.fail("demonstration needs both a group and an automaton line")
    return refs["group"], refs["automaton"], letters, letter_lines


def _parse_cosettable(block: _Block):
    """The group's name, the table's cosets, transversal and action, and
    each action's line."""
    if (len(block.header) != 5 or block.header[1] != "group"
            or block.header[3] != "subgroupof"):
        block.fail("cosettable header: cosettable NAME group G subgroupof N")
    group_name = block.header[2]
    try:
        count = int(block.header[4])
    except ValueError:
        block.fail(f"coset count must be an integer, got {block.header[4]!r}")
    cosets: list[str] = []
    transversal = {}
    action, action_lines = {}, {}
    for lineno, tokens in block.body:
        if tokens[0] == "coset" and len(tokens) >= 4 and tokens[2] == "rep":
            coset = tokens[1]
            if coset in transversal:
                block.fail(f"coset {coset!r} defined twice", lineno)
            cosets.append(coset)
            transversal[coset] = block.at(lineno, parse_word, " ".join(tokens[3:]))
        elif tokens[0] == "action" and len(tokens) == 4:
            source, letter, target = tokens[1:]
            key = (source, Letter(letter))
            if key in action:
                block.fail(f"action for {source} {letter} given twice", lineno)
            action[key] = target
            action_lines[key] = lineno
        else:
            block.fail(f"unknown cosettable line {' '.join(tokens)!r}", lineno)
    if len(cosets) != count:
        block.fail(f"header promises {count} cosets, block defines {len(cosets)}")
    for (source, letter), target in action.items():
        for c in (source, target):
            if c not in transversal:
                block.fail(f"action references unknown coset {c!r}", action_lines[source, letter])
    return group_name, (tuple(cosets), transversal, action), action_lines


def _parse_presentation(block: _Block) -> Presentation:
    """A presentation: each alphabet line's names so far checked and each
    relator parsed in file order, then built once through ``_build``."""
    names: list[str] = []
    relators = {}  # lineno: word
    for lineno, (key, *rest) in block.body:
        if key == "alphabet":
            names.extend(rest)
            if names:
                block.at(lineno, Presentation, tuple(names), ())
        elif key == "relator":
            relators[lineno] = block.at(lineno, parse_word, " ".join(rest))
        else:
            block.fail(f"unknown presentation line {key!r}", lineno)
    return _build(block, lambda rs: Presentation(tuple(names), tuple(rs.values())),
                  relators, dict(zip(relators, relators)))


# -- loading and linking -------------------------------------------------


def read_sources(paths: Iterable[str]) -> list:
    """The ``(path, text)`` source of each file, in order."""
    sources = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            sources.append((str(path), fh.read()))
    return sources


def load(paths: Iterable[str]) -> Workspace:
    """Parse and link one workspace from the concatenation of the files."""
    return load_text(read_sources(paths))


def load_text(sources: Iterable[tuple[Optional[str], str]]) -> Workspace:
    """Parse every block in file order, then link the references between
    them, so blocks may come in any order."""
    return link(parse(sources))


def parse(sources: Iterable[tuple[Optional[str], str]], kept: Mapping = {}) -> list:
    """The blocks of each ``(path, text)`` source, in file order, each
    parsed into its ``value`` with its body dropped.  A source that
    ``kept`` maps to its blocks, parsed before, is neither split nor
    parsed again.  Every file is split before any block is parsed, and a
    block's name is checked unused for its kind before it is parsed, so a
    parse fault is reported before any reference fault, the first faulty
    block's in file order."""
    files = [kept.get(source) or _split_blocks(*source) for source in sources]
    # looked up per call, so a parser replaced on the module takes effect
    parsers = {"automaton": _parse_automaton, "group": _parse_group,
               "demonstration": _parse_demonstration, "cosettable": _parse_cosettable,
               "presentation": _parse_presentation}
    named = {kind: set() for kind in parsers}
    for blocks in files:
        for block in blocks:
            name = block.header[0]
            if name in named[block.kind]:
                block.fail(f"duplicate {block.kind} name {name!r}")
            named[block.kind].add(name)
            if block.body is not None:
                block.value = parsers[block.kind](block)
                block.body = None
    return files


def link(files: Iterable[list]) -> Workspace:
    """The workspace of parsed files, ``parse``'s result: each block's
    references resolved, each object the one the block holds or, for a
    graph product, demonstration or coset table, the one it linked last
    if its references resolve to the same objects as then, else new."""
    parsed = {kind: {} for kind in BLOCK_KINDS}  # kind: {name: block}
    for blocks in files:
        for block in blocks:
            parsed[block.kind][block.header[0]] = block
    ws = Workspace(automata={n: b.value for n, b in parsed["automaton"].items()},
                   presentations={n: b.value for n, b in parsed["presentation"].items()})
    _link_groups(ws, parsed["group"])
    for name, block in parsed["demonstration"].items():
        group_name, automaton_name, _, _ = block.value
        ws.demonstrations[name] = _linked(
            block, _demonstration, _resolve(block, ws.groups, "group", group_name),
            _resolve(block, ws.automata, "automaton", automaton_name))
    for name, block in parsed["cosettable"].items():
        ws.cosettables[name] = _linked(
            block, _cosettable, _resolve(block, ws.groups, "group", block.value[0]))
    return ws


def _linked(block: _Block, make, *refs):
    """``make(block, *refs)``, ``refs`` the objects the block's references
    resolve to, or the object it made at the block's last link if they
    are the same objects as then."""
    kept = block.linked
    if kept is None or not all(map(operator.is_, kept[0], refs)):
        kept = block.linked = refs, make(block, *refs)
    return kept[1]


def _demonstration(block: _Block, oracle, language: Nfa) -> Demonstration:
    _, _, letters, letter_lines = block.value
    identity = {x: (x,) for x in language.alphabet}
    return _build(block, lambda ls: Demonstration(oracle, {**identity, **ls}, language),
                  letters, letter_lines)


def _cosettable(block: _Block, oracle) -> CosetTable:
    group_name, parts, action_lines = block.value
    for (_, letter), lineno in action_lines.items():
        if letter not in oracle.alphabet:
            block.fail(f"action letter {letter.name!r} is not a generator of {group_name!r}",
                       lineno)
    return CosetTable(oracle, *parts)


def _graph_product(block: _Block, *oracles) -> GraphProductOracle:
    spec = block.value
    return block.at(None, GraphProductOracle, spec.graph, dict(zip(spec.uses, oracles)))


def _resolve(block: _Block, named: dict, what: str, ref: str):
    """``named[ref]``, which the block refers to as its ``what``."""
    if ref not in named:
        block.fail(f"{block.kind} {block.header[0]!r} references undefined {what} {ref!r}")
    return named[ref]


def _link_groups(ws: Workspace, parsed: dict):
    """Fill ``ws.groups`` from ``{name: block}``, each block's value an
    oracle or a ``_GraphSpec``: first the plain oracles in file order,
    then each graph product after the groups it uses, depth first on an
    explicit stack."""
    for name, block in parsed.items():
        if not isinstance(block.value, _GraphSpec):
            ws.groups[name] = block.value
    for root in parsed:
        if root in ws.groups:
            continue
        path = {root: None}  # products being linked, each using the next: an ordered set
        while path:
            name = next(reversed(path))
            block = parsed[name]
            spec = block.value
            for used in spec.uses.values():
                if used in parsed and used not in ws.groups:
                    if used in path:
                        cycle = list(path)
                        cycle = cycle[cycle.index(used):] + [used]
                        block.fail(f"circular graphproduct references: {' -> '.join(cycle)}")
                    path[used] = None
                    break
            else:
                missing = sorted({g for g in spec.uses.values() if g not in ws.groups})
                if missing:
                    block.fail(f"graphproduct {name!r} references undefined groups {missing}")
                ws.groups[name] = _linked(block, _graph_product,
                                          *(ws.groups[g] for g in spec.uses.values()))
                path.popitem()


# -- rendering -----------------------------------------------------------


_NATURAL_RE = re.compile(r"(\d+)")


def _natural_key(text: str):
    parts = _NATURAL_RE.split(text)  # digit runs at the odd positions
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def _state_key(state):
    """Strings before other states, each in natural order of its text; the
    raw text breaks ties ('s1' and 's01'), so the order is total."""
    if isinstance(state, str):
        return (0, _natural_key(state), state)
    text = repr(state)
    return (1, _natural_key(text), text)


def _canonical(nfa: Nfa) -> tuple[list, list, list, list]:
    """The stable renaming of states to ``s0``, ``s1``, ... on integers:
    ``(states, order, position, outgoing)`` where ``order[k]`` indexes the
    state named ``s<k>`` in ``states``, ``position`` inverts ``order``,
    and ``outgoing[i]`` maps each label rank of state ``i``'s transitions
    to their targets, as indices into ``states`` in transition order.

    Initial states come first (sorted), then discovery order with edges
    scanned letters-first in alphabet order; unreachable states trail,
    sorted.  The numbering is a function of the automaton's structure,
    so rendering twice gives identical text.

    ``_state_key`` is computed only where it decides the order: between
    targets of one source and label first reached together, between
    initial states and between unreached states.  States with distinct
    texts have distinct keys, so the order depends on the sets alone, not
    on the order they iterate in.
    """
    states = list(nfa.states)
    number = {s: i for i, s in enumerate(states)}
    letter_rank = {x: i for i, x in enumerate((*nfa.alphabet, None))}
    outgoing: list = [{} for _ in states]
    for p, label, q in nfa.transitions:
        by_label = outgoing[number[p]]
        rank = letter_rank[label]
        targets = by_label.get(rank)
        if targets is None:
            by_label[rank] = [number[q]]
        else:
            targets.append(number[q])

    def key(i):
        return _state_key(states[i])

    order = [number[s] for s in nfa.initials]
    if len(order) > 1:
        order.sort(key=key)
    position = [-1] * len(states)
    for k, i in enumerate(order):
        position[i] = k
    for p in order:  # grows while it is read: breadth first
        by_label = outgoing[p]
        for rank in sorted(by_label):
            targets = by_label[rank]
            if len(targets) > 1:  # the key orders the targets not yet placed
                targets = [q for q in targets if position[q] < 0]
                if len(targets) > 1:
                    targets.sort(key=key)
            for q in targets:
                if position[q] < 0:
                    position[q] = len(order)
                    order.append(q)
    if len(order) < len(states):
        unreached = [number[s] for s in nfa.states - {states[i] for i in order}]
        for i in sorted(unreached, key=key):
            position[i] = len(order)
            order.append(i)
    return states, order, position, outgoing


def _block(header: str, lines: Iterable[str]) -> str:
    """One block's text: the header, each body line indented, ``end``."""
    return "\n  ".join([header, *lines]) + "\nend\n"


def render_automaton(name: str, nfa: Nfa) -> str:
    states, order, position, outgoing = _canonical(nfa)
    labels = [*nfa.alphabet, "eps"]
    names = [f"s{k}" for k in range(len(states))]
    renamed = [names[k] for k in position]  # the new name of each state
    lines = ["alphabet " + " ".join(nfa.alphabet),
             "states " + " ".join(names),
             "initial " + " ".join(names[:len(nfa.initials)]),
             "accept " + " ".join(names[k] for k, i in enumerate(order)
                                  if states[i] in nfa.accepting)]
    # ordered by source, label and target: sources in order, then labels by rank
    for source, p in zip(names, order):
        by_label = outgoing[p]
        for rank in sorted(by_label):
            head = f"trans {source} {labels[rank]} "
            targets = by_label[rank]
            if len(targets) > 1:
                targets = sorted(targets, key=position.__getitem__)
            for q in targets:
                lines.append(head + renamed[q])
    return _block(f"automaton {name}", lines)


def _gen_text(flavor: str, value) -> str:
    """A ``gen`` value as ``_gen_value`` reads it back."""
    if flavor == "perm":
        cycles = cycles_from_perm(value)
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
    return json.dumps(value, separators=(",", ":"))  # tuples dump as lists


def render_group(name: str, oracle, name_of) -> str:
    header = f"group {name}"
    for flavor, (word, _, cls) in _GEN_FLAVORS.items():
        if isinstance(oracle, cls):
            return _block(f"{header} {flavor} {word} {getattr(oracle, word)}",
                          (f"gen {x} = {_gen_text(flavor, oracle.gens[x])}"
                           for x in oracle.alphabet))
    if isinstance(oracle, FreeGroupOracle):
        return _block(f"{header} free rank {oracle.rank}", ["names " + " ".join(oracle.names)])
    if isinstance(oracle, GraphProductOracle):
        graph, uses = oracle.graph, oracle.vertex_oracles
        rank = {v: i for i, v in enumerate(graph.vertices)}
        edges = sorted(graph.edges, key=lambda e: (rank[e[0]], rank[e[1]]))
        return _block(f"{header} graphproduct",
                      ["vertices " + " ".join(graph.vertices),
                       *(f"edge {u} {v}" for u, v in edges),
                       *(f"vertex {v} uses {name_of(uses[v])}" for v in graph.vertices)])
    raise LoadError(f"group {name!r} has no block syntax: {type(oracle).__name__}")


def render_demonstration(name: str, demo: Demonstration, name_of) -> str:
    return _block(f"demonstration {name}",
                  [f"group {name_of(demo.oracle)}",
                   *(f"letter {x} = {format_word(demo.eval_map[x])}"
                     for x in demo.language.alphabet),
                   f"automaton {name_of(demo.language)}"])


def render_cosettable(name: str, table: CosetTable, name_of) -> str:
    letter_rank = {x: i for i, x in enumerate(table.oracle.alphabet)}
    coset_rank = {c: i for i, c in enumerate(table.cosets)}

    def action_key(item):
        (source, letter), _target = item
        return (coset_rank[source], letter_rank[letter])

    return _block(f"cosettable {name} group {name_of(table.oracle)} "
                  f"subgroupof {len(table.cosets)}",
                  [*(f"coset {c} rep {format_word(table.transversal[c])}" for c in table.cosets),
                   *(f"action {source} {letter} {target}" for (source, letter), target
                     in sorted(table.action.items(), key=action_key))])


def render_presentation(name: str, p: Presentation) -> str:
    return _block(f"presentation {name}", ["alphabet " + " ".join(p.names),
                                           *("relator " + format_word(r) for r in p.relators)])


def render(ws: Workspace) -> str:
    """The whole workspace as one reloadable file, kinds grouped, names sorted.
    A reference reads as the first name holding the object itself, else as
    the first group equal to it, else raises LoadError."""
    names = {id(obj): name for named in (ws.automata, ws.groups)
             for name, obj in reversed(named.items())}

    def name_of(obj) -> str:
        if id(obj) in names:
            return names[id(obj)]
        for name, group in ws.groups.items():
            if group == obj:
                return name
        raise LoadError(f"no workspace name holds or equals a referenced {type(obj).__name__}")

    chunks = []
    for name in sorted(ws.groups):
        chunks.append(render_group(name, ws.groups[name], name_of))
    for name in sorted(ws.automata):
        chunks.append(render_automaton(name, ws.automata[name]))
    for name in sorted(ws.demonstrations):
        chunks.append(render_demonstration(name, ws.demonstrations[name], name_of))
    for name in sorted(ws.cosettables):
        chunks.append(render_cosettable(name, ws.cosettables[name], name_of))
    for name in sorted(ws.presentations):
        chunks.append(render_presentation(name, ws.presentations[name]))
    return "\n".join(chunks)


# -- bundles -------------------------------------------------------------


def _bundle_group(bundle: Workspace, ws: Workspace, oracle, fallback: str):
    """Register an oracle in the bundle, preferring its workspace name."""
    name = next((n for n, g in ws.groups.items() if g == oracle), fallback)
    if name in bundle.groups:
        if bundle.groups[name] == oracle:
            return
        raise LoadError(f"name {name!r} would collide inside the bundle")
    bundle.groups[name] = oracle
    if isinstance(oracle, GraphProductOracle):
        for v in oracle.graph.vertices:
            _bundle_group(bundle, ws, oracle.vertex_oracles[v], f"{name}_{v}")


def demo_bundle(ws: Workspace, demo: Demonstration, name: str) -> Workspace:
    """A self-contained workspace for one demonstration built over ws.

    It holds the demonstration ``name``, its automaton ``name_lang`` and
    its group under the group's name in ws, or else ``name_group``; the
    vertex groups of a graph product come along the same way, falling
    back to ``<group>_<vertex>``.  Two groups that would take one name
    raise LoadError.
    """
    bundle = Workspace()
    _bundle_group(bundle, ws, demo.oracle, f"{name}_group")
    bundle.automata[f"{name}_lang"] = demo.language
    bundle.demonstrations[name] = demo
    return bundle
