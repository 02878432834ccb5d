import contextlib
import io
import pathlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from epicdemo.automata import Letter, Nfa, make_word
from epicdemo.constructions import CosetTable, fi_subgroup, graph_product
from epicdemo import cli
from epicdemo.cli import main as cli_main
from epicdemo.demonstrations import Demonstration, _built, z_demo, zk_demo
from epicdemo.errors import LoadError
from epicdemo.graphproduct import GraphProductOracle, VertexGraph
from epicdemo.groups import FreeAbelianOracle, FreeGroupOracle, PermutationOracle
from epicdemo.workspace import (
    Workspace,
    demo_bundle,
    link,
    load,
    load_text,
    read_sources,
    render,
    render_automaton,
)

from oracles import (canonical_states, keyed_canonical_states, keyed_render_automaton,
                     reference_load_text)
from test_constructions import fi_cases
from test_groups import heisenberg_oracle

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "demo_workspace.epic"


def load_str(text):
    return load_text([(None, text)])


def chain_text(depth):
    """Single-vertex graph products g0 ... g{depth-1}, each using the group
    declared after it, over Z at the bottom."""
    text = "".join(f"group g{i} graphproduct\n  vertices v{i}\n  vertex v{i} uses g{i + 1}\nend\n"
                   for i in range(depth))
    return text + f"group g{depth} zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"


class TestSampleFile:
    def test_counts(self):
        ws = load([DATA])
        assert set(ws.groups) == {"Z", "S3", "H3", "F2", "ZxS3"}
        assert set(ws.automata) == {"powers"}
        assert set(ws.demonstrations) == {"Zdemo"}
        assert set(ws.cosettables) == {"evens"}
        assert set(ws.presentations) == {"plane"}

    def test_parsed_demo_equals_builtin(self):
        ws = load([DATA])
        demo = ws.demonstrations["Zdemo"]
        reference = z_demo()
        assert set(demo.language.enumerate_words(6)) == \
            set(reference.language.enumerate_words(6))
        assert demo.verify_no_identity(8) == []

    def test_coset_table_builds_even_demo(self):
        ws = load([DATA])
        out = fi_subgroup(ws.demonstrations["Zdemo"], ws.cosettables["evens"])
        report = out.verify_coverage(4, 4)
        assert {k.data[0] for k in report.covered} == {-4, -2, 2, 4}

    def test_round_trip_is_stable(self):
        ws = load([DATA])
        text = render(ws)
        again = load_str(text)
        assert render(again) == text
        assert set(again.groups) == set(ws.groups)
        assert again.groups["S3"] == ws.groups["S3"]
        assert again.presentations["plane"] == ws.presentations["plane"]
        assert set(again.demonstrations["Zdemo"].language.enumerate_words(5)) == \
            set(ws.demonstrations["Zdemo"].language.enumerate_words(5))


SAMPLE_TEXT = DATA.read_text()


@st.composite
def mutated_texts(draw, text):
    """The text after one to three token swaps, token replacements,
    deleted lines or a truncation."""
    lines = [line.split() for line in text.splitlines()]
    pool = sorted({t for line in lines for t in line}) + ["0", "-1", "7", "eps", "zz"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["swap", "replace", "delete", "truncate"]))
        spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if kind == "delete" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "truncate":
            text = "\n".join(" ".join(line) for line in lines)
            cut = draw(st.integers(0, len(text)))
            lines = [line.split() for line in text[:cut].split("\n")]
        elif kind == "swap" and spots:
            (i, j), (k, m) = draw(st.sampled_from(spots)), draw(st.sampled_from(spots))
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif spots:
            i, j = draw(st.sampled_from(spots))
            lines[i][j] = draw(st.sampled_from(pool))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def edited_texts(draw, text):
    """The text after one to three edits, each on one line: a token
    replaced, deleted or inserted, or the line duplicated or deleted."""
    lines = [line.split() for line in text.splitlines()]
    pool = sorted({t for line in lines for t in line}) + ["0", "-1", "7", "eps", "zz"]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["replace", "delete", "insert", "duplicate", "drop"]))
        if kind == "duplicate":
            lines.insert(i, list(line))
        elif kind == "drop":
            del lines[i]
        elif kind == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(pool)))
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if kind == "replace":
                line[j] = draw(st.sampled_from(pool))
            else:
                del line[j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def load_outcome(load_text_fn, text):
    """The rendered workspace, or the LoadError's text, path and line."""
    try:
        return render(load_text_fn([("mutated.epic", text)]))
    except LoadError as e:
        return (str(e), e.path, e.line)


def assert_loads_like_reference(text):
    """A LoadError or a rendering that reloads to itself, either way the
    same as from the reference loader."""
    outcome = load_outcome(load_text, text)
    assert outcome == load_outcome(reference_load_text, text)
    if isinstance(outcome, str):
        assert render(load_str(outcome)) == outcome


@pytest.fixture(scope="module")
def bundle_texts(tmp_path_factory):
    """Bundles written by small construct runs, one per verb, over
    permutation, free, zk and matrix groups and a graph product of three."""
    from test_constructions import z_rewriting_fixture

    tmp = tmp_path_factory.mktemp("bundles")
    locals_path = tmp / "locals.epic"
    locals_path.write_text(
        "group C perm degree 3\n  gen r = (1 2 3)\n  gen r2 = (1 3 2)\nend\n"
        "automaton cl\n  alphabet r r2\n  states s0 s1\n  initial s0\n  accept s1\n"
        "  trans s0 r s1\n  trans s0 r2 s1\nend\n"
        "demonstration Cdemo\n  group C\n  automaton cl\nend\n"
        "group B zk rank 1\n  gen c = [1]\n  gen c^-1 = [-1]\nend\n"
        "automaton bl\n  alphabet c c^-1\n  states s0 s1 s2\n  initial s0\n"
        "  accept s1 s2\n  trans s0 c s1\n  trans s1 c s1\n"
        "  trans s0 c^-1 s2\n  trans s2 c^-1 s2\nend\n"
        "demonstration Bdemo\n  group B\n  automaton bl\nend\n")
    center, quotient = z_demo("z"), zk_demo(2, names=("x", "y"))
    heis_path = tmp / "heis.epic"
    heis_path.write_text(
        render(Workspace(groups={"heis": heisenberg_oracle()},
                         automata={"centerlang": center.language,
                                   "quotlang": quotient.language}))
        + "demonstration center\n  group heis\n  automaton centerlang\nend\n"
        + "demonstration quot\n  group heis\n  automaton quotlang\nend\n")
    triples_path = tmp / "triples.epic"
    triples_path.write_text(render_automaton("trip", z_rewriting_fixture().nfa))
    runs = {
        "prod": ["-f", str(locals_path), "construct", "graph-product", "--vertices", "u v w",
                 "--edge", "u-v", "--vertex", "u=Cdemo", "--vertex", "v=FREE2",
                 "--vertex", "w=Bdemo"],
        "renamed": ["construct", "change-gens", "--demo", "Z", "--letter", "b=a",
                    "--letter", "b^-1=a^-1", "--image", "a=b", "--image", "a^-1=b^-1"],
        "evens": ["-f", str(DATA), "construct", "fi-subgroup", "--demo", "Zdemo",
                  "--table", "evens", "--in-subgroup", "zk-divisible:0,2"],
        "heisdemo": ["-f", str(heis_path), "construct", "extension", "--normal", "center",
                     "--quotient", "quot", "--group", "heis",
                     "--in-normal", "matrix-zero:0,1;1,2"],
        "normalforms": ["-f", str(triples_path), "construct", "autostackable-project",
                        "--automaton", "trip", "--base", "a a^-1"],
        "section": ["-f", str(tmp / "normalforms.epic"), "-f", str(DATA), "construct",
                    "cross-section", "--automaton", "normalforms", "--group", "Z"],
    }
    texts = []
    for name, argv in runs.items():
        out = tmp / f"{name}.epic"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv + ["--name", name, "--out", str(out)]) == 0
        texts.append(out.read_text())
    return texts


def call(argv, out=None):
    """Exit code, stdout, stderr and the bundle written to out (None for
    none) of one CLI call."""
    if out is not None and out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    bundle = out.read_bytes() if out is not None and out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), bundle


def cold_call(argv, out=None):
    """call(argv, out) with no file parse or builtin kept from an earlier
    call, and so none of the objects linked from them or the streams they
    keep for ``wp decide``."""
    cli._parses = None
    _built.cache_clear()
    return call(argv, out)


def kept_workspace(paths):
    """The workspace that the kept parses of the files, as they read now,
    link to: the objects the last call that loaded them linked."""
    return link(cli._parses[2][source] for source in read_sources(paths))


def back_to_back(argv, out=None):
    """call(argv, out) with whatever the calls before it kept, then as a
    cold call."""
    return call(argv, out), cold_call(argv, out)


class TestMutatedSample:
    @settings(deadline=None, max_examples=300)
    @given(mutated_texts(SAMPLE_TEXT))
    def test_load_error_or_render_fixpoint(self, text):
        assert_loads_like_reference(text)

    @settings(deadline=None, max_examples=500, derandomize=True)
    @given(text=edited_texts(SAMPLE_TEXT))
    def test_edited_sample_loads_or_fails_cleanly(self, tmp_path_factory, text):
        """An edited sample file loads and renders to a fixpoint, or raises
        LoadError; verify on it exits 0, 1 or 2 with at most one error line."""
        path = tmp_path_factory.getbasetemp() / "edited.epic"
        path.write_text(text)
        try:
            rendered = render(load([str(path)]))
        except LoadError:
            pass
        else:
            assert render(load_str(rendered)) == rendered
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["-f", str(path), "verify", "--demo", "Zdemo",
                             "--max-len", "3", "--ball", "2"])
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2) and len(lines) <= 1
        assert all(line.startswith("error: ") for line in lines)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(text=edited_texts(SAMPLE_TEXT))
    def test_edited_samples_back_to_back_run_as_cold_calls(self, tmp_path_factory, text):
        """The edited samples, written one after another to one path:
        change-gens and verify on each give what a call with nothing kept
        gives, and a bundle change-gens writes verifies as the demonstration
        it came from.  The last call loads the path, so the first call of the
        next example finds the workspace of the text before it."""
        base = tmp_path_factory.getbasetemp()
        path, out = base / "edited-in-turn.epic", base / "renamed.epic"
        path.write_text(text)
        warm, cold = back_to_back(["-f", str(path), "construct", "change-gens", "--demo", "Zdemo",
                                   "--letter", "b=a", "--letter", "b^-1=a^-1", "--image", "a=b",
                                   "--image", "a^-1=b^-1", "--out", str(out)], out)
        assert warm == cold
        verify = ["verify", "--demo", "Zdemo", "--max-len", "3", "--ball", "2"]
        if cold[0] == 0:
            _, renamed, _, _ = call(["-f", str(out), *verify[:2], "derived", *verify[3:]])
            _, verified, _, _ = call(["-f", str(path), *verify])
            assert renamed.splitlines()[-1] == verified.splitlines()[-1]
        warm, cold = back_to_back(["-f", str(path), *verify])
        assert warm == cold

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.data())
    def test_one_of_two_files_edited_back_to_back_runs_as_cold_calls(self, tmp_path_factory,
                                                                     data):
        """The sample split in two files, their blocks referring across the
        split, one of them edited: the parse of the other, kept from the
        call before, links as a fresh parse does, and every fault reads
        as a cold call's."""
        head, tail = SAMPLE_TEXT.split("group S3", 1)
        texts = [head, "group S3" + tail]
        edited = data.draw(st.integers(0, 1))
        texts[edited] = data.draw(edited_texts(texts[edited]))
        argv = []
        for name, text in zip(("split-head", "split-tail"), texts):
            path = tmp_path_factory.getbasetemp() / f"{name}.epic"
            path.write_text(text)
            argv += ["-f", str(path)]
        warm, cold = back_to_back([*argv, "ball", "--group", "ZxS3", "--radius", "1"])
        assert warm == cold

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.data())
    def test_edited_bundles_back_to_back_run_as_cold_calls(self, bundle_texts, tmp_path_factory,
                                                           data):
        """The same edits on rendered construct bundles, written one after
        another to one path: verify or enumerate on each gives what a call
        with nothing kept gives."""
        bundle = data.draw(st.sampled_from(bundle_texts))
        path = tmp_path_factory.getbasetemp() / "edited-bundle.epic"
        path.write_text(data.draw(edited_texts(bundle)))
        first = bundle.split(None, 2)
        if first[0] == "automaton":
            argv = ["enumerate", "--automaton", first[1], "--max-len", "3"]
        else:
            demo = next(line.split()[1] for line in bundle.splitlines()
                        if line.startswith("demonstration "))
            argv = ["verify", "--demo", demo, "--max-len", "3", "--ball", "2"]
        warm, cold = back_to_back(["-f", str(path), *argv])
        assert warm == cold

    def test_bundles_cover_every_group_kind(self, bundle_texts):
        flavors = {line.split()[2] for text in bundle_texts for line in text.splitlines()
                   if line.startswith("group ")}
        assert flavors == {"perm", "matrix", "zk", "free", "graphproduct"}

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_mutated_bundle_matches_reference_loader(self, bundle_texts, data):
        assert_loads_like_reference(
            data.draw(mutated_texts(data.draw(st.sampled_from(bundle_texts)))))


LINE_SHAPES = [
    "", "   ", "# a comment", "  # an indented comment", "#pad", "end # note", "end #",
    "  alphabet x #pad", "  states s0 s1 trans end", "  states s0 s0", "  initial s0",
    "  initial s0 s0", "  accept s1 end", "  accept s1 s1",
    "  trans s0 x s1", "  trans s0 #pad s1", "  trans s0 x s1 # note", "  trans trans x end",
    "  trans end eps s0", "  trans s0 x", "  trans s0 x s1 s0", "  trans",
]
# line ends to str.splitlines and spaces to str.split: '\x0b', '\x1c' and
# '\x85' are both
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85"]
SPACES = [" ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u3000"]


@st.composite
def shaped_texts(draw):
    """An automaton block of drawn line shapes, joined by drawn line breaks,
    its spaces replaced by drawn whitespace."""
    lines = ["automaton a"] + draw(st.lists(st.sampled_from(LINE_SHAPES), max_size=12))
    if draw(st.booleans()):
        lines.append("end")
    text = ""
    for line in lines:
        text += "".join(draw(st.sampled_from(SPACES)) if c == " " else c for c in line)
        text += draw(st.sampled_from(LINE_BREAKS))
    return text


class TestReaderDifferential:
    @settings(deadline=None, max_examples=500)
    @given(shaped_texts())
    def test_line_shapes_load_like_reference(self, text):
        assert_loads_like_reference(text)

    @pytest.mark.parametrize("text", [
        "automaton a\r\n  alphabet x\r\n  states s0 s1\r\n  initial s0\r\n"
        "  accept s1\r\n  trans s0 x s1\r\nend\r\n",
        "automaton a\n  alphabet x\x0b  states s0\x1c  initial s0\x85  accept s0\nend\n",
        "automaton a\n\n  # inside\n  alphabet x\n  states trans end\n  initial trans\n"
        "  accept end\n  trans trans x end\n  trans end eps trans\nend # note\n",
        "automaton a\n  alphabet x #pad\n  states s0\n  initial s0\n  accept s0\n"
        "  trans s0 #pad s0\nend\n",
        "automaton a\n  alphabet x\n  states s0\n  initial s0\n  bogus\n  trans s0 x\nend\n",
        "automaton a\n  alphabet x\n  states s0\n  trans s0 x s0 s0\n  alphabet eps\nend\n",
        "automaton a\n  alphabet eps\n  trans s0\nend\n",
        "automaton a\n  trans s0 y s1\n  trans s0 x\n  alphabet x\n  states s0\nend\n",
        "automaton a\n  accept q8\n  alphabet x y\n  initial q9\n  alphabet y\nend\n",
        "automaton a\n  accept q8\n  states q0\n  initial q9\n  trans q0 x q7\nend\n",
    ], ids=["crlf", "line-break-whitespace", "comments-and-keyword-states", "pad",
            "unknown-line-before-short-trans", "long-trans-before-eps", "eps-before-short-trans",
            "bad-label-before-short-trans", "repeated-letter-after-undeclared-states",
            "undeclared-accept-before-initial"])
    def test_line_shape_loads_like_reference(self, text):
        assert_loads_like_reference(text)

    def test_repeated_state_and_transition_load_once(self):
        """A state declared twice and a repeated trans line load as
        ``Nfa(...)`` of the same fields, each edge filed once."""
        text = ("automaton a\n  alphabet x\n  states s0 s1\n  states s1\n  initial s0 s0\n"
                "  accept s1\n  trans s0 x s1\n  trans s1 x s1\n  trans s0 x s1\n"
                "  trans s1 eps s0\n  trans s1 eps s0\nend\n")
        nfa = load_str(text).automata["a"]
        x = Letter("x")
        fields = Nfa((x,), frozenset({"s0", "s1"}),
                     frozenset({("s0", x, "s1"), ("s1", x, "s1"), ("s1", None, "s0")}),
                     frozenset({"s0"}), frozenset({"s1"}))
        assert nfa == fields and hash(nfa) == hash(fields)
        assert nfa._index.states == ("s0", "s1")
        assert nfa._index.edges == [{x: [1]}, {x: [1], None: [0]}]
        assert_loads_like_reference(text)


class TestComments:
    def test_inline_hash_drops_tail(self):
        ws = load_str(
            "automaton a\n"
            "  alphabet x # the only letter\n"
            "  states q0 q1\n"
            "  initial q0\n"
            "  accept q1\n"
            "  trans q0 x q1 # sole edge\n"
            "end\n")
        assert ws.automata["a"].accepts(make_word("x"))

    def test_pad_letter_survives(self):
        ws = load_str(
            "automaton a\n"
            "  alphabet (x|#pad|y) #pad\n"
            "  states q0 q1\n"
            "  initial q0\n"
            "  accept q1\n"
            "  trans q0 (x|#pad|y) q1\n"
            "end\n")
        assert Letter("#pad") in ws.automata["a"].alphabet
        text = render(ws)
        assert load_str(text).automata["a"].alphabet == ws.automata["a"].alphabet


class TestAutomatonBlocks:
    def test_eps_transition(self):
        ws = load_str(
            "automaton a\n"
            "  alphabet x\n"
            "  states q0 q1\n"
            "  initial q0\n"
            "  accept q1\n"
            "  trans q0 eps q1\n"
            "end\n")
        assert ws.automata["a"].accepts(())

    def test_eps_letter_rejected(self):
        with pytest.raises(LoadError, match="reserved"):
            load_str("automaton a\n  alphabet eps\n  states q\n  initial q\n"
                     "  accept q\nend\n")

    def test_undeclared_state_rejected(self):
        with pytest.raises(LoadError, match="undeclared state"):
            load_str("automaton a\n  alphabet x\n  states q0\n  initial q0\n"
                     "  accept q0\n  trans q0 x q9\nend\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(LoadError, match="transition label 'y' is not in the alphabet"):
            load_str("automaton a\n  alphabet x\n  states q0\n  initial q0\n"
                     "  accept q0\n  trans q0 y q0\nend\n")

    def test_labels_resolve_against_the_whole_alphabet(self):
        ws = load_str("automaton a\n  states q0\n  initial q0\n  accept q0\n"
                      "  trans q0 y q0\n  trans q0 eps q0\n  alphabet x y\nend\n")
        assert ws.automata["a"].accepts(make_word("y", "y"))
        assert not ws.automata["a"].accepts(make_word("x"))

    def test_unterminated_block(self):
        with pytest.raises(LoadError, match="unterminated"):
            load_str("automaton a\n  alphabet x\n")

    @pytest.mark.parametrize("text, message", [
        ("automaton a\n  alphabet x\n  states q0\n  initial q0\n  accept q9\nend\n",
         "5: undeclared state 'q9'"),
        ("automaton a\n  alphabet x\n  states q0\n  accept q0\n  initial q9\nend\n",
         "5: undeclared state 'q9'"),
        ("automaton a\n  alphabet x x\n  states q0\n  initial q0\n  accept q0\nend\n",
         "2: duplicate letter 'x' in alphabet"),
    ], ids=["accept", "initial", "alphabet"])
    def test_fault_names_its_line(self, text, message):
        with pytest.raises(LoadError) as caught:
            load_str(text)
        assert str(caught.value) == message

    def test_line_numbers_in_errors(self):
        try:
            load_str("automaton a\n  alphabet x\n  states q0\n  initial q0\n"
                     "  accept q0\n  trans q0 y q0\nend\n")
        except LoadError as e:
            assert e.line == 6
        else:
            pytest.fail("expected a LoadError")


class TestGroupBlocks:
    def test_perm_multi_cycle(self):
        ws = load_str("group g perm degree 4\n  gen x = (1 2)(3 4)\nend\n")
        oracle = ws.groups["g"]
        assert oracle.gens[Letter("x")] == (1, 0, 3, 2)

    def test_identity_generator_renders_and_reloads(self):
        oracle = PermutationOracle(3, {Letter("e"): (0, 1, 2)})
        ws = Workspace(groups={"g": oracle})
        text = render(ws)
        assert "gen e = ()" in text
        assert load_str(text).groups["g"] == oracle

    def test_matrix_round_trip(self):
        ws = Workspace(groups={"heis": heisenberg_oracle()})
        text = render(ws)
        assert load_str(text).groups["heis"] == heisenberg_oracle()

    def test_free_round_trip(self):
        oracle = FreeGroupOracle(2, ("u", "v"))
        text = render(Workspace(groups={"f": oracle}))
        again = load_str(text).groups["f"]
        assert again.names == ("u", "v")
        assert again == oracle

    def test_bad_flavor_rejected(self):
        with pytest.raises(LoadError, match="flavor"):
            load_str("group g nilpotent\nend\n")

    @pytest.mark.parametrize("text, match, line", [
        ("group g matrix dim 2\n  gen x = [[2,0],[0,1]]\nend\n", "determinant", 2),
        ("group g zk rank 1\n  gen a = 5\nend\n", "not a vector of integers", 2),
        ("group g matrix dim 1\n  gen a = 5\nend\n", "not a matrix of integers", 2),
        ("group g zk rank 1\n  gen a = [[1]]\nend\n", "not a vector of integers", 2),
        ("group g zk rank 1\n  gen a = [1.5]\nend\n", "not a vector of integers", 2),
        ("group g zk rank 1\n  gen a = [1]\n  gen a = [2]\nend\n", "'a' defined twice", 3),
        ("group g free rank 2\n  names a b^-1\nend\n", "inverse marker", 2),
    ], ids=["determinant", "zk-scalar", "matrix-scalar", "zk-nested", "zk-float", "duplicate",
            "free-inverse-name"])
    def test_bad_generator_error_carries_line(self, text, match, line):
        with pytest.raises(LoadError, match=match) as caught:
            load_str(text)
        assert caught.value.line == line

    @pytest.mark.parametrize("text", [
        "group g perm degree 2\n  gen eps = (1 2)\nend\n",
        "group g zk rank 1\n  gen eps = [1]\nend\n",
        "group g matrix dim 1\n  gen eps = [[1]]\nend\n",
        "group g free rank 2\n  names a eps\nend\n",
    ], ids=["perm", "zk", "matrix", "free"])
    def test_eps_generator_rejected_at_its_line(self, text):
        with pytest.raises(LoadError) as caught:
            load_str(text)
        assert str(caught.value) == "2: 'eps' is reserved and cannot be an alphabet letter"

    @pytest.mark.parametrize("text, message", [
        ("group g zk rank 2\n  gen a = [1, 0]\n  gen b = [1]\nend\n",
         "3: generator 'b' has length 1, rank is 2"),
        ("group g matrix dim 2\n  gen a = [[1,0],[0,1]]\n  gen b = [[1]]\nend\n",
         "3: generator 'b' is not 2x2"),
        ("group g perm degree 2\n  gen a = (1 2)\n  gen b = (1 3)\nend\n",
         "3: cycle point out of range for degree 2: [1, 3]"),
        ("group g free rank 2\n  names a a\nend\n", "2: duplicate letter 'a' in alphabet"),
        ("group g zk rank 0\n  gen a = [1]\nend\n", "1: rank must be positive"),
        ("group g perm degree 0\n  gen a = ()\nend\n", "1: degree must be positive"),
        ("group g free rank 2\n  names a\nend\n", "1: need exactly one name per generator"),
    ], ids=["zk-length", "matrix-shape", "perm-point", "free-duplicate", "zk-rank",
            "perm-degree", "free-count"])
    def test_fault_names_its_line(self, text, message):
        # a generator's own fault names its line; the header's, the header
        with pytest.raises(LoadError) as caught:
            load_str(text)
        assert str(caught.value) == message

    def test_deeply_nested_value_is_a_load_error(self):
        text = "[" * 5000 + "]" * 5000
        with pytest.raises(LoadError, match="cannot parse") as caught:
            load_str(f"group g matrix dim 1\n  gen a = {text}\nend\n")
        assert caught.value.line == 2

    @pytest.mark.parametrize("flavor, form", [
        ("matrix", "group NAME matrix dim N"),
        ("zk", "group NAME zk rank K"),
        ("free", "group NAME free rank K"),
    ], ids=["matrix", "zk", "free"])
    def test_short_header_names_expected_form(self, flavor, form):
        with pytest.raises(LoadError) as caught:
            load_str(f"group g {flavor}\nend\n")
        assert str(caught.value).endswith(f"{flavor} header: {form}")
        assert caught.value.line == 1

    def test_large_unimodular_matrix_loads_fast(self):
        # dense, determinant 1: the product of the all-ones lower and upper
        # unitriangular 12x12 matrices; cofactor expansion would make 12! calls
        rows = [[min(i, j) + 1 for j in range(12)] for i in range(12)]
        start = time.perf_counter()
        ws = load_str(f"group g matrix dim 12\n  gen x = {rows}\nend\n")
        assert time.perf_counter() - start < 1.0
        assert ws.groups["g"].gens[Letter("x")][11][11] == 12


GP_TEXT = (
    "group prod graphproduct\n"
    "  vertices u v\n"
    "  edge u v\n"
    "  vertex u uses left\n"
    "  vertex v uses right\n"
    "end\n"
    "group left zk rank 1\n"
    "  gen a = [1]\n"
    "  gen a^-1 = [-1]\n"
    "end\n"
    "group right zk rank 1\n"
    "  gen b = [1]\n"
    "  gen b^-1 = [-1]\n"
    "end\n")


class TestGraphProductBlocks:
    def test_forward_references_link(self):
        ws = load_str(GP_TEXT)
        oracle = ws.groups["prod"]
        assert oracle.graph.adjacent("u", "v")
        assert not oracle.is_identity(make_word("a", "b"))
        assert oracle.is_identity(make_word("a", "b", "a^-1", "b^-1"))

    def test_render_orders_dependencies_first(self):
        ws = load_str(GP_TEXT)
        text = render(ws)
        assert text.index("group left") < text.index("group prod") < text.index("group right")
        assert render(load_str(text)) == text

    def test_alphabet_collision_rejected(self):
        text = GP_TEXT.replace("uses right", "uses left")
        with pytest.raises(LoadError, match="two vertex alphabets"):
            load_str(text)

    def test_circular_reference_rejected(self):
        text = (
            "group g1 graphproduct\n  vertices u\n  vertex u uses g2\nend\n"
            "group g2 graphproduct\n  vertices v\n  vertex v uses g1\nend\n")
        with pytest.raises(LoadError, match="circular"):
            load_str(text)

    def test_cycle_names_only_its_members(self):
        text = (
            "group g0 graphproduct\n  vertices t\n  vertex t uses g1\nend\n"
            "group g1 graphproduct\n  vertices u\n  vertex u uses g2\nend\n"
            "group g2 graphproduct\n  vertices v\n  vertex v uses g1\nend\n")
        with pytest.raises(LoadError, match="circular") as caught:
            load_str(text)
        message = str(caught.value)
        assert "g1" in message and "g2" in message and "g0" not in message

    def test_deep_chain_links_in_one_pass(self):
        """Each product uses the group declared after it, the order a
        sweep over the file links one block per pass."""
        start = time.perf_counter()
        ws = load_str(chain_text(2000))
        assert time.perf_counter() - start < 0.5
        assert ws.groups["g0"].alphabet == (Letter("a"), Letter("a^-1"))

    def test_deep_chain_renders_and_reloads(self):
        ws = load_str(chain_text(2000))
        text = render(ws)
        again = load_str(text)
        assert render(again) == text
        assert "group g0 graphproduct\n  vertices v0\n  vertex v0 uses g1\nend\n" in text
        assert "  vertex v1999 uses g2000\nend\n" in text
        # compared level by level: == on a product compares its vertex groups
        # recursively, one frame per level
        assert again.groups["g2000"] == ws.groups["g2000"]
        assert all(again.groups[f"g{i}"].graph == ws.groups[f"g{i}"].graph for i in range(2000))

    Z = "group Z zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"

    @pytest.mark.parametrize("text, match, line", [
        (Z + "group P graphproduct\n  vertices u\n  vertex u uses Z\n  vertex w uses Z\nend\n",
         r"oracles for unknown vertices: \['w'\]", 8),
        (Z + "# the product\n\ngroup P graphproduct\n  vertices u\n  edge u q\n"
         "  vertex u uses Z\nend\n", "edge endpoint not a vertex", 9),
        ("group Z zk rank 1\n  gen a = [1]\nend\n"
         "group P graphproduct\n  vertices u\n  edge u u\n  vertex u uses Z\nend\n",
         "self-loop at 'u'", 6),
        (Z + "group P graphproduct\n  vertices u\n  vertices u\n  vertex u uses Z\nend\n",
         "vertex names must be distinct", 7),
    ], ids=["extra", "edge", "loop", "repeated-vertex"])
    def test_structure_fault_names_its_line(self, text, match, line):
        with pytest.raises(LoadError, match=match) as caught:
            load_str(text)
        assert caught.value.line == line

    def test_undefined_vertex_group_rejected(self):
        text = ("group g graphproduct\n  vertices u\n  vertex u uses ghost\nend\n")
        with pytest.raises(LoadError, match="ghost"):
            load_str(text)


class TestReferences:
    def test_undefined_group_in_demo(self):
        with pytest.raises(LoadError, match="undefined group 'ghost'"):
            load_str("automaton a\n  alphabet x\n  states q0 q1\n  initial q0\n"
                     "  accept q1\n  trans q0 x q1\nend\n"
                     "demonstration d\n  group ghost\n  automaton a\nend\n")

    def test_undefined_automaton_in_demo(self):
        with pytest.raises(LoadError, match="undefined automaton"):
            load_str("group g zk rank 1\n  gen x = [1]\nend\n"
                     "demonstration d\n  group g\n  automaton ghost\nend\n")

    def test_duplicate_name_rejected(self):
        with pytest.raises(LoadError, match="duplicate group name"):
            load_str("group g zk rank 1\n  gen x = [1]\nend\n"
                     "group g zk rank 1\n  gen y = [1]\nend\n")

    def test_eval_letter_mismatch_reported(self):
        with pytest.raises(LoadError) as caught:
            load_str("group g zk rank 1\n  gen x = [1]\nend\n"
                     "automaton a\n  alphabet x\n  states q0 q1\n  initial q0\n"
                     "  accept q1\n  trans q0 x q1\nend\n"
                     "demonstration d\n  group g\n  letter y = x\n  automaton a\nend\n")
        assert str(caught.value) == \
            "13: evaluation map covers ['x', 'y'] but the language alphabet is ['x']"

    GX = ("group g zk rank 1\n  gen x = [1]\nend\n"
          "automaton a\n  alphabet x\n  states q0 q1\n  initial q0\n"
          "  accept q1\n  trans q0 x q1\nend\n")

    @pytest.mark.parametrize("text, match, line", [
        ("group p graphproduct\n  vertices u\n  vertex u uses g\n  vertex u uses p\nend\n"
         + GX, "group of vertex 'u' given twice", 4),
        ("group f free rank 2\n  names a b\n  names c d\nend\n", "names given twice", 3),
        ("demonstration d\n  group g\n  group g\n  automaton a\nend\n" + GX,
         "group given twice", 3),
        ("demonstration d\n  group g\n  automaton a\n  automaton a\nend\n" + GX,
         "automaton given twice", 4),
        ("demonstration d\n  group g\n  letter x = x\n  letter x = x x\n  automaton a\nend\n"
         + GX, "letter 'x' given twice", 4),
    ], ids=["vertex", "names", "demo-group", "demo-automaton", "demo-letter"])
    def test_repeated_line_rejected(self, text, match, line):
        with pytest.raises(LoadError, match=match) as caught:
            load_str(text)
        assert caught.value.line == line

    def test_eval_letter_outside_the_group_names_its_line(self):
        with pytest.raises(LoadError) as caught:
            load_str("demonstration d\n  group g\n  automaton a\n  letter x = zz\nend\n" + self.GX)
        assert str(caught.value) == \
            "4: letter 'x' evaluates through 'zz' which the oracle does not know"

    def test_first_faulty_block_in_file_order_is_reported(self):
        with pytest.raises(LoadError, match="unknown demonstration line 'bogus'") as caught:
            load_str("demonstration d\n  group g\n  bogus\n  automaton a\nend\n"
                     "automaton a\n  alphabet x\n  states q0\n  trans q0 x q9\nend\n")
        assert caught.value.line == 3

    def test_default_eval_map_is_identity(self):
        ws = load_str("group g zk rank 1\n  gen x = [1]\nend\n"
                      "automaton a\n  alphabet x\n  states q0 q1\n  initial q0\n"
                      "  accept q1\n  trans q0 x q1\nend\n"
                      "demonstration d\n  group g\n  automaton a\nend\n")
        demo = ws.demonstrations["d"]
        assert demo.eval_map[Letter("x")] == (Letter("x"),)


class TestDemoBundle:
    def test_fallback_names(self):
        demo = z_demo()
        bundle = demo_bundle(Workspace(), demo, "x")
        assert bundle.demonstrations == {"x": demo}
        assert bundle.automata == {"x_lang": demo.language}
        assert bundle.groups == {"x_group": demo.oracle}
        assert render(bundle).endswith("demonstration x\n  group x_group\n"
                                       "  letter a = a\n  letter a^-1 = a^-1\n"
                                       "  automaton x_lang\nend\n")

    def test_workspace_names_win_and_vertex_groups_fall_back(self):
        left, right = z_demo("a"), z_demo("b")
        product = graph_product(VertexGraph.make(("u", "v"), []), {"u": left, "v": right})
        bundle = demo_bundle(Workspace(groups={"A": left.oracle}), product, "p")
        assert bundle.groups == {"p_group": product.oracle, "A": left.oracle,
                                 "p_group_v": right.oracle}
        text = render(bundle)
        assert ("group p_group graphproduct\n  vertices u v\n"
                "  vertex u uses A\n  vertex v uses p_group_v\nend\n") in text
        assert "demonstration p\n  group p_group\n" in text
        assert text.endswith("  automaton p_lang\nend\n")
        assert render(load_text([(None, text)])) == text

    def test_collision_is_load_error(self):
        """Vertex u's group keeps its workspace name, which vertex v falls back to."""
        left, right = z_demo("a"), z_demo("b")
        product = graph_product(VertexGraph.make(("u", "v"), []), {"u": left, "v": right})
        ws = Workspace(groups={"p_group_v": left.oracle})
        with pytest.raises(LoadError, match="name 'p_group_v' would collide inside the bundle"):
            demo_bundle(ws, product, "p")


class TestRenderReferences:
    """A reference renders as the name holding the object itself, else as
    the first equal group."""

    def test_equal_twins_keep_their_own_names(self):
        """B equals A, which comes first; every reference to B still reads B."""
        x, x_inv = Letter("x"), Letter("x^-1")
        twin_a, twin_b = (FreeAbelianOracle(1, {x: (1,), x_inv: (-1,)}) for _ in "AB")
        lang = Nfa((x, x_inv), frozenset({0, 1}), frozenset({(0, x, 1), (0, x_inv, 1)}),
                   frozenset({0}), frozenset({1}))
        ws = Workspace(
            groups={"A": twin_a, "B": twin_b,
                    "P": GraphProductOracle(VertexGraph.make(("u",), []), {"u": twin_b})},
            automata={"xl": lang},
            demonstrations={"D": Demonstration(twin_b, {x: (x,), x_inv: (x_inv,)}, lang)},
            cosettables={"T": CosetTable(twin_b, ("H",), {"H": ()},
                                         {("H", x): "H", ("H", x_inv): "H"})})
        text = render(ws)
        assert "  vertex u uses B\nend\n" in text
        assert "demonstration D\n  group B\n" in text
        assert "cosettable T group B subgroupof 1\n" in text
        assert render(load_str(text)) == text

    def test_equal_separate_vertex_groups_take_one_name(self):
        empty = Nfa((), frozenset({0}), frozenset(), frozenset({0}), frozenset())
        trivial = {v: Demonstration(PermutationOracle(1, {}), {}, empty) for v in ("u", "v")}
        product = graph_product(VertexGraph.make(("u", "v"), []), trivial)
        bundle = demo_bundle(Workspace(groups={"T": PermutationOracle(1, {})}), product, "p")
        assert bundle.groups == {"p_group": product.oracle, "T": trivial["u"].oracle}
        text = render(bundle)
        assert "  vertex u uses T\n  vertex v uses T\nend\n" in text
        assert render(load_str(text)) == text

    def test_unnamed_reference_is_load_error(self):
        with pytest.raises(LoadError, match="no workspace name holds or equals"):
            render(Workspace(demonstrations={"x": z_demo()}))


class TestCosetTableBlocks:
    def test_count_mismatch(self):
        with pytest.raises(LoadError, match="promises 3 cosets"):
            load_str("group g zk rank 1\n  gen a = [1]\nend\n"
                     "cosettable t group g subgroupof 3\n"
                     "  coset H rep eps\n  coset C rep a\n"
                     "  action H a C\n  action C a H\nend\n")

    def test_unknown_coset_in_action(self):
        with pytest.raises(LoadError, match="unknown coset"):
            load_str("group g zk rank 1\n  gen a = [1]\nend\n"
                     "cosettable t group g subgroupof 1\n"
                     "  coset H rep eps\n  action H a X\nend\n")


    @pytest.mark.parametrize("action", ["action H b X", "action X b H"])
    def test_unknown_coset_names_the_action_line(self, action):
        with pytest.raises(LoadError) as caught:
            load_str("group g zk rank 2\n  gen a = [1, 0]\n  gen b = [0, 1]\nend\n"
                     "cosettable t group g subgroupof 1\n"
                     f"  coset H rep eps\n  action H a H\n  {action}\nend\n")
        assert str(caught.value) == "8: action references unknown coset 'X'"

    def test_action_letter_outside_the_group_names_its_line(self):
        with pytest.raises(LoadError) as caught:
            load_str("group g zk rank 1\n  gen a = [1]\nend\n"
                     "cosettable t group g subgroupof 1\n"
                     "  coset H rep eps\n  action H a H\n  action H zz H\nend\n")
        assert str(caught.value) == "7: action letter 'zz' is not a generator of 'g'"


class TestPresentationBlocks:
    def test_relators_stored_reduced(self):
        ws = load_str("presentation p\n  alphabet a\n  relator a a a^-1\nend\n")
        assert ws.presentations["p"].relators == (make_word("a"),)
        assert "relator a\n" in render(ws)

    @pytest.mark.parametrize("text, message", [
        ("presentation p\n  alphabet a b\n  relator a b\n  relator a c\nend\n",
         "bad.epic:4: letter 'c' is outside the alphabet"),
        ("presentation p\n  alphabet a\n  relator a a\n  alphabet b^-1\nend\n",
         "bad.epic:4: generator name 'b^-1' must not carry an inverse marker"),
        ("presentation p\n  alphabet a b\n  alphabet c a\n  relator a\nend\n",
         "bad.epic:3: duplicate generator name"),
        ("presentation p\n  alphabet a a\n  relator a eps\nend\n",
         "bad.epic:2: duplicate generator name"),
        ("presentation p\n  alphabet a\n  relator a eps\n  alphabet b^-1\nend\n",
         "bad.epic:3: 'eps' is reserved for the empty word and cannot mix with letters"),
        ("presentation p\n  alphabet a eps\nend\n",
         "bad.epic:2: 'eps' is reserved and cannot be an alphabet letter"),
    ], ids=["foreign-relator-letter", "inverse-marked-generator", "duplicate-generator",
            "alphabet-before-relator-word", "relator-word-before-alphabet", "eps-generator"])
    def test_error_names_the_line_at_fault(self, text, message):
        with pytest.raises(LoadError) as caught:
            load_text([("bad.epic", text)])
        assert str(caught.value) == message


class TestCanonicalStates:
    def test_tuple_states_render_and_reload(self):
        g = VertexGraph.make(("u", "v"), [("u", "v")])
        from test_groups import c2_oracle
        from epicdemo.demonstrations import finite_demo
        demo = graph_product(g, {"u": finite_demo(c2_oracle("a")),
                                 "v": finite_demo(c2_oracle("b"))})
        text = render_automaton("glued", demo.language)
        ws = load_str(text)
        assert set(ws.automata["glued"].enumerate_words(4)) == \
            set(demo.language.enumerate_words(4))

    def test_second_render_is_fixpoint(self):
        demo = z_demo()
        gp = graph_product(VertexGraph.make(("u", "v"), []),
                           {"u": z_demo("a"), "v": z_demo("b")})
        for nfa in (demo.language, gp.language):
            text1 = render_automaton("m", nfa)
            text2 = render_automaton("m", load_str(text1).automata["m"])
            assert text2 == text1

    def test_names_follow_discovery_order(self):
        names = canonical_states(z_demo().language)
        assert sorted(names.values()) == ["s0", "s1", "s2"]
        assert names["s"] == "s0"  # the lone initial state


# state names of every kind the constructions produce, with natural-key ties
# ("q1"/"q01", "1"/"01") that only the input order separates
STATE_POOL = ["q", "q1", "q01", "q10", "q2", "1", "01", "s", 0, 1, 2, 10, 11,
              (0, "p"), (1, 2), ((0, 1), 2), ("a", (1,)), (10, "q")]


@st.composite
def mixed_state_nfas(draw):
    states = draw(st.lists(st.sampled_from(STATE_POOL), min_size=1, max_size=8,
                           unique_by=repr))
    a, b = Letter("a"), Letter("b")
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from([a, b, None]),
                  st.sampled_from(states)),
        max_size=16))
    initials = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3))
    accepting = draw(st.lists(st.sampled_from(states), max_size=3))
    return Nfa((a, b), frozenset(states), frozenset(transitions),
               frozenset(initials), frozenset(accepting))


class TestRenderDifferential:
    @settings(deadline=None, max_examples=300)
    @given(mixed_state_nfas())
    def test_render_matches_keyed_reference(self, nfa):
        assert canonical_states(nfa) == keyed_canonical_states(nfa)
        assert render_automaton("m", nfa) == keyed_render_automaton("m", nfa)

    @settings(deadline=None, max_examples=200)
    @given(fi_cases())
    def test_fi_subgroup_shape_matches_keyed_reference(self, case):
        # a home copy and a fin copy share each source and label that
        # close a walk: ties that the key decides
        nfa = fi_subgroup(*case).language
        assert canonical_states(nfa) == keyed_canonical_states(nfa)
        assert render_automaton("m", nfa) == keyed_render_automaton("m", nfa)

    def test_sample_fi_subgroup_matches_keyed_reference(self):
        ws = load([DATA])
        nfa = fi_subgroup(ws.demonstrations["Zdemo"], ws.cosettables["evens"]).language
        assert render_automaton("m", nfa) == keyed_render_automaton("m", nfa)

    def test_tied_natural_keys_order_by_raw_text(self):
        # 'q1'/'q01' and '1'/'01' are equal in natural order: the raw text
        # separates them, not the iteration order of the sets
        a, b = Letter("a"), Letter("b")
        reached = Nfa((a, b), frozenset(["s", "q1", "q01", "1", "01"]),
                      frozenset([("s", a, "q1"), ("s", a, "q01"), ("s", b, "1"),
                                 ("s", b, "01"), ("q1", a, "01")]),
                      frozenset(["s"]), frozenset(["q01"]))
        unreached = Nfa((a,), frozenset(["q1", "q01", "1", "01", "x"]),
                        frozenset([("x", a, "x")]), frozenset(["q1", "q01"]),
                        frozenset(["01"]))
        for nfa in (reached, unreached):
            assert canonical_states(nfa) == keyed_canonical_states(nfa)
            assert render_automaton("m", nfa) == keyed_render_automaton("m", nfa)
        assert canonical_states(reached) == {"s": "s0", "q01": "s1", "q1": "s2",
                                             "01": "s3", "1": "s4"}
        assert canonical_states(unreached) == {"q01": "s0", "q1": "s1", "01": "s2",
                                               "1": "s3", "x": "s4"}
