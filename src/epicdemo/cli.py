"""Command line front end: load block files, run one verb, print a report.

Exit codes: 0 success, 1 verification failure or undecided word, 2 usage
or load error.  Reports are deterministic; ``--porcelain`` switches to
one machine-readable record per line.  The environment variable
``EPIC_MAX_STATES`` caps constructed automaton sizes (default 10^6).
``build_parser`` declares every verb and flag.  A reader built once from
its declared actions reads the exact forms of an argv (``--flag value``,
a bare ``--flag``, the verb words) into the namespace ``parse_args``
gives; every other argv goes to ``parse_args``, which prints all help
and usage messages.
A call reads each file once.  The parses of the files the last call
that loaded files read or wrote are kept for every load of the next
call, and so are the objects linked from them while their references
are the same.  ``wp decide`` reads the closure stream its presentation
keeps and the language stream its demonstration keeps, each built at
the first decide on that object and reducing and filing each word once
for all later decides; the certificate replays on streams built for the
replay alone.  Each group oracle keeps the shortlex spanning tree of the
largest ball asked of it, so a later ``ball`` or ``verify`` within that
radius replays the tree, one ``act`` per element.
The scripts under ``scripts/`` reuse its exit codes, length and
``wp decide`` checks, demonstration lookup and bundle writer.
"""

from __future__ import annotations

import argparse
import functools
import gc
import operator
import os
import sys
from collections import ChainMap
from typing import Optional

from .automata import Letter, Nfa, Word, format_word, parse_word, state_cap
from .constructions import (
    SyncTripleAutomaton,
    autostackable_projection,
    change_generators,
    cross_section_to_demo,
    extension,
    fi_overgroup,
    fi_subgroup,
    graph_product,
)
from .demonstrations import Demonstration, UnknownBuiltinError, builtin_demo
from .errors import EpicError, LoadError
from .graphproduct import VertexGraph
from .groups import EPS_RESERVED, cycles_from_perm
from .wordproblem import (
    BUDGET_EXCEEDED,
    Enumerator,
    Frontier,
    decide_word,
    demonstration_enumerator,
    free_reduce,
    normal_closure_enumerator,
    replay,
)
from .workspace import (Workspace, demo_bundle, link, load_text, parse, read_sources, render,
                        render_automaton)


class UsageError(Exception):
    """Bad names or flag values; maps to exit code 2."""


def _resolve_demo(ws: Workspace, name: str) -> Demonstration:
    """A workspace demonstration, or a builtin for names like Z, FREE2, ZK3."""
    if name in ws.demonstrations:
        return ws.demonstrations[name]
    try:
        return builtin_demo(name)
    except UnknownBuiltinError:
        raise UsageError(f"unknown demonstration {name!r}") from None
    except ValueError as e:  # a builtin name it cannot build, such as zk(0)
        raise UsageError(str(e)) from None


def _resolve(table: dict, what: str, name: str):
    if name not in table:
        raise UsageError(f"unknown {what} {name!r}")
    return table[name]


def _check_lengths(args, *dests: str) -> None:
    """Reject a negative value of each named length flag that was given."""
    for dest in dests:
        if (value := getattr(args, dest, None)) is not None and value < 0:
            raise UsageError(f"--{dest.replace('_', '-')} must not be negative, got {value}")


def _exit_code(run, *args) -> int:
    """Call run(*args), which returns an exit code.  A fault it raises
    prints one ``error:`` line and returns 2 for bad input, 1 otherwise."""
    try:
        return run(*args)
    except (UsageError, LoadError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (EpicError, ValueError, RecursionError) as e:  # RecursionError: nested too deep
        print(f"error: {e}", file=sys.stderr)
        return 1


# -- key predicates ------------------------------------------------------


def parse_key_predicate(spec: str):
    """Small predicate language over element keys.

    Forms: ``perm-even``; ``matrix-zero:R,C[;R,C...]``;
    ``matrix-entry:R,C=V``; ``zk-divisible:I,M``.  Row, column and
    coordinate indices are 0-based into the key's tuple; a key without
    the entry is a usage error.
    """
    kind, _, rest = spec.partition(":")

    def numbers(text, form, *least):
        try:
            values = tuple(int(p) for p in text.split(","))
        except ValueError:
            values = ()
        if len(values) != len(least) or any(v < lo for v, lo in zip(values, least)):
            raise UsageError(f"bad key predicate {spec!r}: expected {form}")
        return values

    def entry(key, *index):
        try:
            value = functools.reduce(operator.getitem, index, key.data)
        except (IndexError, TypeError):
            value = None
        if not isinstance(value, int):
            raise UsageError(f"key predicate {spec!r} reads outside key {key.render()}")
        return value

    if kind == "perm-even":

        def even(key):
            if not key.backend.startswith("perm"):
                raise UsageError(f"key predicate {spec!r} needs a permutation key")
            cycles = cycles_from_perm(tuple(i - 1 for i in key.data))
            return sum(len(c) - 1 for c in cycles) % 2 == 0

        return even
    if kind == "matrix-zero":
        positions = [numbers(part, "R,C with R, C >= 0", 0, 0) for part in rest.split(";")]
        return lambda key: all(entry(key, r, c) == 0 for r, c in positions)
    if kind == "matrix-entry":
        coords, _, value = rest.partition("=")
        r, c, v = numbers(f"{coords},{value}", "R,C=V with R, C >= 0", 0, 0, float("-inf"))
        return lambda key: entry(key, r, c) == v
    if kind == "zk-divisible":
        coord, modulus = numbers(rest, "I,M with I >= 0 and M >= 1", 0, 1)
        return lambda key: entry(key, coord) % modulus == 0
    raise UsageError(f"unknown key predicate {spec!r}")


# -- bundles -------------------------------------------------------------


def _bundle_name(what: str, text: str) -> str:
    """``text``, if it can name something in a bundle: one word without
    whitespace, and not '#', which the reader takes for a comment."""
    if text.split() != [text] or text == "#":
        raise UsageError(f"{what} without whitespace other than '#', got {text!r}")
    return text


def _named_pairs(values, flag: str) -> dict[Letter, Word]:
    """Parse repeated NAME=WORD flags into a map, each NAME given once."""
    out = {}
    for item in values or ():
        name, eq, rhs = item.partition("=")
        if not eq:
            raise UsageError(f"{flag} takes NAME=WORD, got {item!r}")
        name = _bundle_name(f"{flag} takes NAME=WORD with NAME a word", name.strip())
        if name in out:
            raise UsageError(f"{flag} names {name!r} twice")
        try:
            if name == "eps":
                raise ValueError(EPS_RESERVED)
            out[Letter(name)] = parse_word(rhs)
        except ValueError as e:
            raise UsageError(f"{flag} takes NAME=WORD, got {item!r}: {e}") from None
    return out


def _flag_word(flag: str, text: str) -> Word:
    try:
        return parse_word(text)
    except ValueError as e:
        raise UsageError(f"{flag} takes a word, got {text!r}: {e}") from None


def _write_bundle(ws: Workspace, args, build) -> Workspace:
    """Render what build(ws, args) makes under --name, write it to --out
    and return it reloaded."""
    _bundle_name("--name takes a word", args.name)
    built = build(ws, args)
    if isinstance(built, Demonstration):
        text = render(demo_bundle(ws, built, args.name))
    else:  # an automaton, bundled alone
        text = render_automaton(args.name, built)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    # a bundle that does not reload is a bug, not a report line
    reloaded = load([args.out])
    print(f"wrote {args.out}")
    return reloaded


# -- verb handlers -------------------------------------------------------


def _print_lines(lines: list) -> None:
    """Print a report's lines with one call, each ending in a newline; an
    empty report prints nothing."""
    if lines:
        print("\n".join(lines))


def cmd_verify(ws: Workspace, args) -> int:
    demo = _resolve_demo(ws, args.demo)
    search_len = args.search_len if args.search_len is not None else args.max_len
    report = demo.verify_coverage(args.ball, search_len, args.max_len)
    violations = report.identity_violations
    missing = report.sorted_missing()
    failed = bool(violations or (args.strict and missing))
    if args.porcelain:
        lines = [f"violation {format_word(w)}" for w in violations]
        lines += [f"missing {key.render()}" for key in missing]
        lines.append(f"result {'fail' if failed else 'pass'}")
    else:
        lines = [f"identity word accepted: {format_word(w)}" for w in violations]
        lines += [f"uncovered element: {key.render()}" for key in missing]
        lines.append(f"identity violations: {len(violations)}, missing: {len(missing)}")
    _print_lines(lines)
    return 1 if failed else 0


def cmd_enumerate(ws: Workspace, args) -> int:
    if (args.automaton is None) == (args.demo is None):
        raise UsageError("enumerate needs exactly one of --automaton or --demo")
    if args.automaton is not None:
        nfa = _resolve(ws.automata, "automaton", args.automaton)
    else:
        nfa = _resolve_demo(ws, args.demo).language
    _print_lines([format_word(w) for w in nfa.enumerate_words(args.max_len)])
    return 0


def cmd_ball(ws: Workspace, args) -> int:
    if (args.group is None) == (args.demo is None):
        raise UsageError("ball needs exactly one of --group or --demo")
    if args.group is not None:
        oracle = _resolve(ws.groups, "group", args.group)
    else:
        oracle = _resolve_demo(ws, args.demo).oracle
    _print_lines([f"{key.render()} {format_word(witness)}"
                  for key, witness in oracle.ball(args.radius).items()])
    return 0


def _wp_word(presentation, demo: Demonstration, text: str, budget: int) -> Word:
    """The word that text spells, once wp decide's inputs pass its checks:
    demo evaluates inside the presentation's generators, the word is
    over them, and the budget is positive."""
    for letter, image in demo.eval_map.items():
        for y in image:
            if y not in presentation.alphabet:
                raise UsageError(
                    f"demonstration letter {letter.name!r} evaluates through "
                    f"{y.name!r}, which the presentation does not generate")
    word = _flag_word("--word", text)
    for x in word:
        if x not in presentation.alphabet:
            raise UsageError(f"word letter {x.name!r} is outside the presentation alphabet")
    if budget < 1:
        raise UsageError(f"--budget must be positive, got {budget}")
    return word


def _stream(owner, build) -> Enumerator:
    """The stream build(owner) made at the first call, kept on owner for
    every later call while owner lives; a broken stream is built anew.
    The stream does not refer to owner, so keeping it makes no cycle."""
    kept = vars(owner).get("_stream")
    if kept is None or kept.broken:
        kept = vars(owner)["_stream"] = build(owner)
    return kept


def _decide(word: Word, demo: Demonstration, presentation, budget: int, frontier=None):
    """The verdict on word from the streams the demonstration and the
    presentation keep, and whether its certificate replays on fresh
    streams, or None for a verdict that ran out of budget."""
    verdict = decide_word(word, _stream(demo, demonstration_enumerator),
                          _stream(presentation, normal_closure_enumerator), budget, frontier)
    if verdict.kind == BUDGET_EXCEEDED:
        return verdict, None
    return verdict, replay(word, demonstration_enumerator(demo),
                           normal_closure_enumerator(presentation), verdict.certificate)


def cmd_wp_decide(ws: Workspace, args) -> int:
    presentation = _resolve(ws.presentations, "presentation", args.presentation)
    demo = _resolve_demo(ws, args.demo)
    word = _wp_word(presentation, demo, args.word, args.budget)
    frontier = None
    if args.resume and os.path.exists(args.resume):
        with open(args.resume, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            frontier = Frontier.from_json(text)
        except ValueError as e:  # includes json.JSONDecodeError
            raise UsageError(f"bad frontier file {args.resume}: {e}") from None
        target = format_word(free_reduce(word))
        if frontier.word != target:
            raise UsageError(f"frontier file {args.resume} was recorded for "
                             f"{frontier.word!r}, not {target!r}")
    verdict, replayed = _decide(word, demo, presentation, args.budget, frontier)
    if replayed is None:
        if args.resume:
            with open(args.resume, "w", encoding="utf-8") as fh:
                fh.write(verdict.frontier.to_json())
        if args.porcelain:
            print(f"verdict budget_exceeded comparisons={verdict.comparisons} "
                  f"stalled={'yes' if verdict.stalled else 'no'}")
        else:
            print(f"verdict: budget exceeded after {verdict.comparisons} comparisons"
                  + (" (both streams exhausted)" if verdict.stalled else ""))
            if args.resume:
                print(f"frontier written to {args.resume}")
        return 1
    if args.porcelain:
        fields = " ".join(f"{k}={v}" for k, v in sorted(verdict.certificate.items())
                          if k != "kind")
        print(f"verdict {verdict.kind} comparisons={verdict.comparisons} "
              f"replayed={'yes' if replayed else 'no'} {fields}")
    else:
        print(f"verdict: {verdict.kind}")
        for k, v in sorted(verdict.certificate.items()):
            if k != "kind":
                print(f"  {k}: {v}")
        print(f"comparisons: {verdict.comparisons}")
        print(f"certificate replays: {'yes' if replayed else 'no'}")
    return 0 if replayed else 1


def cmd_change_gens(ws: Workspace, args) -> Demonstration:
    target = _named_pairs(args.letter, "--letter")
    phi = _named_pairs(args.image, "--image")
    return change_generators(_resolve_demo(ws, args.demo), target, phi)


def cmd_extension(ws: Workspace, args) -> Demonstration:
    demo_n = _resolve_demo(ws, args.normal)
    demo_q = _resolve_demo(ws, args.quotient)
    oracle = _resolve(ws.groups, "group", args.group)
    in_normal = parse_key_predicate(args.in_normal)
    return extension(demo_n, demo_q, oracle, in_normal, check_len=args.check_len)


def cmd_fi_overgroup(ws: Workspace, args) -> Demonstration:
    transversal = _named_pairs(args.coset_rep, "--coset-rep")
    demo = _resolve_demo(ws, args.demo)
    oracle = _resolve(ws.groups, "group", args.group)
    in_subgroup = parse_key_predicate(args.in_subgroup) if args.in_subgroup else None
    return fi_overgroup(demo, oracle, transversal, in_subgroup=in_subgroup)


def cmd_fi_subgroup(ws: Workspace, args) -> Demonstration:
    demo = _resolve_demo(ws, args.demo)
    table = _resolve(ws.cosettables, "cosettable", args.table)
    in_subgroup = parse_key_predicate(args.in_subgroup) if args.in_subgroup else None
    return fi_subgroup(demo, table, in_subgroup=in_subgroup)


def cmd_graph_product(ws: Workspace, args) -> Demonstration:
    vertices = [_bundle_name("--vertices takes vertex names", v) for v in args.vertices.split()]
    edges = []
    for item in args.edge or ():
        u, dash, v = item.partition("-")
        if not dash:
            raise UsageError(f"--edge takes U-V, got {item!r}")
        edges.append((u, v))
    try:
        graph = VertexGraph.make(vertices, edges)
    except ValueError as e:
        raise UsageError(str(e)) from None
    local = {}
    for item in args.vertex or ():
        v, eq, demo_name = item.partition("=")
        if not eq:
            raise UsageError(f"--vertex takes VERTEX=DEMO, got {item!r}")
        _bundle_name("--vertex takes VERTEX=DEMO with VERTEX a word", v)
        if v in local:
            raise UsageError(f"--vertex names {v!r} twice")
        if v not in graph.vertices:
            raise UsageError(f"--vertex names {v!r}, which --vertices does not list")
        local[v] = demo_name
    for v in graph.vertices:
        if v not in local:
            raise UsageError(f"--vertices lists {v!r}, which no --vertex names")
    return graph_product(graph, {v: _resolve_demo(ws, name) for v, name in local.items()})


def cmd_autostackable_project(ws: Workspace, args) -> Nfa:
    for x in args.base.split():
        _bundle_name("--base takes letters", x)
    base = _flag_word("--base", args.base)
    nfa = _resolve(ws.automata, "automaton", args.automaton)
    return autostackable_projection(SyncTripleAutomaton(nfa, base))


def cmd_cross_section(ws: Workspace, args) -> Demonstration:
    nfa = _resolve(ws.automata, "automaton", args.automaton)
    oracle = _resolve(ws.groups, "group", args.group)
    rep = _flag_word("--rep", args.rep)
    return cross_section_to_demo(nfa, oracle, rep)


# -- parser --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, handler):
    # accepted after the verb too; a verb parser fills its own namespace, so
    # its files get their own dest and main appends them to the top-level ones
    p.add_argument("-f", "--file", dest="verb_files", action="append", default=[],
                   metavar="PATH", help="workspace file; repeatable")
    p.add_argument("--porcelain", action="store_true", default=argparse.SUPPRESS,
                   help="one machine-readable record per line")
    p.set_defaults(handler=handler)


def _add_bundle_flags(p: argparse.ArgumentParser, name: str, build):
    """--name, --out and the common flags of a construct verb, after its own;
    the verb writes what build returns through _write_bundle."""
    p.add_argument("--name", default=name)
    p.add_argument("--out", required=True)

    def write(ws: Workspace, args) -> int:
        _write_bundle(ws, args, build)
        return 0

    _add_common(p, write)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="epicdemo",
        description="Verify and construct demonstrations of non-identity "
                    "elements over block-file workspaces.")
    parser.add_argument("-f", "--file", dest="files", action="append", default=[],
                        metavar="PATH", help="workspace file; repeatable")
    parser.add_argument("--porcelain", action="store_true",
                        help="one machine-readable record per line")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="check a demonstration against its group")
    p.add_argument("--demo", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--ball", type=int, required=True)
    p.add_argument("--search-len", type=int, default=None,
                   help="word length for coverage search (default: --max-len)")
    p.add_argument("--strict", action="store_true",
                   help="missing coverage is a failure, not a bound artifact")
    _add_common(p, cmd_verify)

    p = sub.add_parser("enumerate", help="list accepted words in length-lex order")
    p.add_argument("--automaton")
    p.add_argument("--demo")
    p.add_argument("--max-len", type=int, required=True)
    _add_common(p, cmd_enumerate)

    p = sub.add_parser("ball", help="list group elements with shortest witnesses")
    p.add_argument("--group")
    p.add_argument("--demo")
    p.add_argument("--radius", type=int, required=True)
    _add_common(p, cmd_ball)

    wp = sub.add_parser("wp", help="word problem procedures").add_subparsers(
        dest="wp_verb", required=True)
    p = wp.add_parser("decide", help="dovetail a demonstration against relators")
    p.add_argument("--presentation", required=True)
    p.add_argument("--demo", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--resume", metavar="PATH",
                   help="frontier checkpoint file, read if present, "
                        "written when the budget runs out")
    _add_common(p, cmd_wp_decide)

    build = sub.add_parser("construct", help="closure constructions").add_subparsers(
        dest="construction", required=True)

    p = build.add_parser("change-gens", help="re-express over a new generating set")
    p.add_argument("--demo", required=True)
    p.add_argument("--letter", action="append", metavar="NEW=ORACLEWORD",
                   help="evaluation of a new letter; repeatable")
    p.add_argument("--image", action="append", metavar="OLD=NEWWORD",
                   help="spelling of an old letter in new letters; repeatable")
    _add_bundle_flags(p, "derived", cmd_change_gens)

    p = build.add_parser("extension", help="combine a normal subgroup demo with a quotient demo")
    p.add_argument("--normal", required=True)
    p.add_argument("--quotient", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--in-normal", required=True, metavar="PREDICATE")
    p.add_argument("--check-len", type=int, default=4)
    _add_bundle_flags(p, "extended", cmd_extension)

    p = build.add_parser("fi-overgroup", help="extend a finite index subgroup demo upward")
    p.add_argument("--demo", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--coset-rep", action="append", metavar="LETTER=WORD",
                   help="transversal letter for a nontrivial coset; repeatable")
    p.add_argument("--in-subgroup", metavar="PREDICATE")
    _add_bundle_flags(p, "overgroup", cmd_fi_overgroup)

    p = build.add_parser("fi-subgroup", help="restrict a demo to a finite index subgroup")
    p.add_argument("--demo", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--in-subgroup", metavar="PREDICATE")
    _add_bundle_flags(p, "subgroup", cmd_fi_subgroup)

    p = build.add_parser("graph-product", help="glue vertex demos along a commutation graph")
    p.add_argument("--vertices", required=True, metavar="'U V ...'")
    p.add_argument("--edge", action="append", metavar="U-V")
    p.add_argument("--vertex", action="append", metavar="VERTEX=DEMO", required=True)
    _add_bundle_flags(p, "product", cmd_graph_product)

    p = build.add_parser("autostackable-project",
                         help="project a padded-triple automaton to its first coordinate")
    p.add_argument("--automaton", required=True)
    p.add_argument("--base", required=True, metavar="'A B ...'",
                   help="base alphabet letters, space separated")
    _add_bundle_flags(p, "normalforms", cmd_autostackable_project)

    p = build.add_parser("cross-section", help="turn a cross section into a demonstration")
    p.add_argument("--automaton", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="eps",
                   help="identity representative to remove (default: eps)")
    _add_bundle_flags(p, "section", cmd_cross_section)

    return parser


class _Reader:
    """Reads an argv the way one parser's ``parse_args`` does, from the
    actions the parser declares, for the exact forms alone: an option
    string of a store or append action followed by a value that does not
    start with '-', one of a store_true action, and a subcommand name,
    which hands the rest of the argv to that subcommand's reader.

    ``read`` returns the namespace's values, or None for any other argv:
    help, an abbreviation, ``--flag=value``, a value starting with '-',
    ``--``, an unknown word, a missing required flag or a value its type
    refuses.  Those go to argparse, which prints every help and usage
    message; the reader rejects nothing itself.  It knows the kinds of
    action ``build_parser`` declares, no others."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.options = {}      # option string -> its action
        self.verbs = {}        # subcommand name -> its reader
        self.verb = None       # the subparsers action
        self.defaults = {}     # dest -> the value argparse starts from
        self.required = set()  # actions the argv must give
        for action in parser._actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                self.defaults.setdefault(action.dest, action.default)
            if isinstance(action, argparse._SubParsersAction):
                self.verb = action
                self.verbs = {name: _Reader(p) for name, p in action.choices.items()}
            elif type(action) in (argparse._StoreAction, argparse._StoreTrueAction,
                                  argparse._AppendAction):
                self.options.update(dict.fromkeys(action.option_strings, action))
            if action.required:
                self.required.add(action)
        for dest, value in parser._defaults.items():
            self.defaults.setdefault(dest, value)

    def read(self, argv, at: int = 0) -> Optional[dict]:
        values = dict(self.defaults)
        missing = set(self.required)
        while at < len(argv):
            action = self.options.get(argv[at])
            if action is None:
                verb = self.verbs.get(argv[at])
                rest = verb and verb.read(argv, at + 1)
                if rest is None:
                    return None
                values[self.verb.dest] = argv[at]
                values.update(rest)
                missing.discard(self.verb)
                break
            missing.discard(action)
            if action.nargs == 0:  # store_true
                values[action.dest] = True
                at += 1
                continue
            if at + 1 == len(argv) or argv[at + 1][:1] == "-":
                return None
            value = argv[at + 1]
            if action.type is not None:
                try:
                    value = action.type(value)
                except ValueError:
                    return None
            if type(action) is argparse._AppendAction:
                value = [*(values[action.dest] or ()), value]
            values[action.dest] = value
            at += 2
        return None if missing else values


@functools.cache
def _reader() -> _Reader:
    return _Reader(build_parser())


def _parse_args(argv: Optional[list]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the reader's values when it
    reads argv, argparse's own parse otherwise."""
    if argv is None:
        argv = sys.argv[1:]
    values = _reader().read(argv)
    return build_parser().parse_args(argv) if values is None else argparse.Namespace(**values)


# a token of the CLI call running, None between calls
_call: Optional[object] = None

# (call token, state cap, {(path, text): parsed blocks} of the files the
# call read or wrote, the same map of the last loading call before it),
# all under the cap the call loaded with
_parses: Optional[tuple[object, int, dict, dict]] = None


def load(paths: list) -> Workspace:
    """The workspace of the files.  Within a CLI call, a file that reads
    as one the call read or wrote before, or the last loading call before
    it did, under the same state cap, is linked from that parse, not
    parsed again, and once the workspace links the call keeps the parse
    of every file it read; a load that fails keeps nothing new.  A load
    outside a call parses every file and keeps nothing."""
    global _parses
    sources = read_sources(paths)
    if _call is None:
        return load_text(sources)
    cap = state_cap()
    call, kept_cap, mine, before = _parses or (None, None, {}, {})
    if kept_cap != cap:
        mine, before = {}, {}
    elif call is not _call:  # the call's first load
        mine, before = {}, mine
    files = parse(sources, ChainMap(mine, before))
    ws = link(files)
    _parses = _call, cap, mine, before
    mine.update(zip(sources, files))
    return ws


def _run(args) -> int:
    global _call
    _check_lengths(args, "max_len", "search_len", "ball", "radius", "check_len")
    try:  # read on every automaton built, so a bad value would be blamed on a file or a name
        state_cap()
    except ValueError as e:
        raise UsageError(str(e)) from None
    files = args.files + args.verb_files
    _call = object()
    try:
        return args.handler(load(files) if files else Workspace(), args)
    finally:
        _call = None


def main(argv: Optional[list] = None) -> int:
    # A call frees everything it builds but the parses it keeps by
    # reference counting alone (no reference cycles, see TestNoCyclicGarbage),
    # so the cyclic collector would only rescan its large acyclic structures
    # and find nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _exit_code(_run, _parse_args(argv))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
