import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from epicdemo import cli, workspace
from epicdemo.cli import build_parser, main, parse_key_predicate, UsageError
from epicdemo.demonstrations import _built, builtin_demo, z_demo, zk_demo
from epicdemo.automata import format_word, make_word
from epicdemo.wordproblem import Enumerator
from epicdemo.workspace import load, render, render_automaton

from test_groups import s3_oracle
from test_constructions import z_rewriting_fixture
from test_workspace import call, chain_text, cold_call, kept_workspace

DATA = str(pathlib.Path(__file__).resolve().parent.parent / "data" / "demo_workspace.epic")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_builtin_z_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--demo", "Z",
                           "--max-len", "12", "--ball", "12")
        assert code == 0
        assert "identity violations: 0, missing: 0" in out

    def test_broken_demo_lists_empty_word(self, capsys, tmp_path):
        path = tmp_path / "broken.epic"
        path.write_text(
            "group g zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"
            "automaton l\n  alphabet a a^-1\n  states q\n  initial q\n"
            "  accept q\n  trans q a q\n  trans q a^-1 q\nend\n"
            "demonstration bad\n  group g\n  automaton l\nend\n")
        code, out, _ = run(capsys, "-f", str(path), "verify", "--demo", "bad",
                           "--max-len", "3", "--ball", "2")
        assert code == 1
        assert "identity word accepted: eps" in out

    def test_missing_coverage_needs_strict_to_fail(self, capsys):
        args = ("verify", "--demo", "Z", "--max-len", "3", "--ball", "5")
        code, out, _ = run(capsys, *args)
        assert code == 0 and "missing: 4" in out
        code, _, _ = run(capsys, *args, "--strict")
        assert code == 1

    # reports of the two-walk verify (identity pass to --max-len, then a
    # coverage pass to --search-len) on every word over a, a^-1 in Z
    LOOSE = ("group g zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"
             "automaton l\n  alphabet a a^-1\n  states q\n  initial q\n"
             "  accept q\n  trans q a q\n  trans q a^-1 q\nend\n"
             "demonstration loose\n  group g\n  automaton l\nend\n")
    MISSING = {"1": "-2 -3 -4 -5 2 3 4 5", "2": "-3 -4 -5 3 4 5", "4": "-5 5"}

    @pytest.mark.parametrize("porcelain", [False, True], ids=["report", "porcelain"])
    @pytest.mark.parametrize("search_len", ["1", "2", "4"])
    def test_one_walk_matches_two_pass_report(self, capsys, tmp_path, search_len, porcelain):
        path = tmp_path / "loose.epic"
        path.write_text(self.LOOSE)
        code, out, _ = run(capsys, "-f", str(path), "verify", "--demo", "loose",
                           "--max-len", "2", "--ball", "5", "--search-len", search_len,
                           *(["--porcelain"] if porcelain else []))
        words = ["eps", "a a^-1", "a^-1 a"]
        missing = [f"zk1[{k}]" for k in self.MISSING[search_len].split()]
        if porcelain:
            lines = ([f"violation {w}" for w in words] + [f"missing {k}" for k in missing]
                     + ["result fail"])
        else:
            lines = ([f"identity word accepted: {w}" for w in words]
                     + [f"uncovered element: {k}" for k in missing]
                     + [f"identity violations: 3, missing: {len(missing)}"])
        assert code == 1
        assert out == "".join(line + "\n" for line in lines)

    def test_missing_keys_listed_in_text_order(self, capsys, tmp_path):
        path = tmp_path / "far.epic"
        path.write_text(self.LOOSE.replace("trans q a q\n  trans q a^-1 q", "trans q a q"))
        code, out, _ = run(capsys, "-f", str(path), "--porcelain", "verify",
                           "--demo", "loose", "--max-len", "0", "--ball", "10")
        missing = [line.split()[1] for line in out.splitlines() if line.startswith("missing")]
        assert missing == [f"zk1[{n}]" for n in sorted(str(n) for n in range(-10, 11) if n)]
        assert missing[:3] == ["zk1[-1]", "zk1[-10]", "zk1[-2]"]
        assert missing[10:13] == ["zk1[1]", "zk1[10]", "zk1[2]"]

    def test_porcelain_after_verb(self, capsys):
        code, out, _ = run(capsys, "verify", "--demo", "Z", "--porcelain",
                           "--max-len", "4", "--ball", "4")
        assert code == 0
        assert out.strip().splitlines()[-1] == "result pass"


class TestEnumerateAndBall:
    def test_enumerate_listing(self, capsys):
        code, out, _ = run(capsys, "-f", DATA, "enumerate",
                           "--automaton", "powers", "--max-len", "3")
        assert code == 0
        assert out.splitlines() == ["a", "a^-1", "a a", "a^-1 a^-1",
                                    "a a a", "a^-1 a^-1 a^-1"]

    def test_enumerate_demo_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--demo", "FREE2", "--max-len", "1")
        assert code == 0
        assert out.splitlines() == ["a", "a^-1", "b", "b^-1"]

    def test_exactly_one_source_required(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-len", "2")
        assert code == 2
        assert "exactly one" in err

    def test_ball_lists_witnesses(self, capsys):
        code, out, _ = run(capsys, "ball", "--demo", "Z", "--radius", "2")
        assert code == 0
        assert "zk1[0] eps" in out
        assert "zk1[2] a a" in out

    def test_reports_are_reproducible(self, capsys):
        argv = ("-f", DATA, "enumerate", "--automaton", "powers", "--max-len", "4")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_second_call_starts_clean(self, capsys, tmp_path):
        # both files define group g, so a carried-over -f would fail the load
        first = tmp_path / "first.epic"
        first.write_text("group g zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n")
        second = tmp_path / "second.epic"
        second.write_text("group g perm degree 2\n  gen t = (1 2)\nend\n"
                          "automaton w\n  alphabet t\n  states q0 q1\n  initial q0\n"
                          "  accept q1\n  trans q0 t q1\nend\n")
        code, out, _ = run(capsys, "-f", str(first), "ball", "--group", "g", "--radius", "1")
        assert code == 0
        assert "zk1[-1] a^-1" in out
        assert run(capsys, "-f", str(second), "enumerate", "--automaton", "w",
                   "--max-len", "1") == (0, "t\n", "")
        args = build_parser().parse_args(["enumerate", "--automaton", "w", "--max-len", "1"])
        assert args.files == []

    def test_files_before_and_after_verb_are_one_list(self, capsys, tmp_path):
        first = tmp_path / "A.epic"
        first.write_text("group gA zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n")
        second = tmp_path / "B.epic"
        second.write_text("group gB perm degree 2\n  gen t = (1 2)\nend\n")
        code, out, err = run(capsys, "-f", str(first), "ball", "--group", "gA",
                             "--radius", "1", "-f", str(second))
        assert code == 0, err
        assert "zk1[-1] a^-1" in out
        # files load in command-line order, so the clash is reported in the later file
        clash = tmp_path / "C.epic"
        clash.write_text("group gA perm degree 2\n  gen t = (1 2)\nend\n")
        code, _, err = run(capsys, "-f", str(first), "ball", "--group", "gA",
                           "--radius", "1", "-f", str(clash))
        assert code == 2
        assert f"{clash}:1:" in err and "duplicate group name 'gA'" in err


# groups beside the sample workspace whose balls pass 1,000 lines: S7 on
# its adjacent transpositions, and the free product of Z and F2
BIG_GROUPS = """
group S7 perm degree 7
  gen p = (1 2)
  gen q = (2 3)
  gen r = (3 4)
  gen s = (4 5)
  gen t = (5 6)
  gen u = (6 7)
end

group ZfreeF2 graphproduct
  vertices u v
  vertex u uses Z
  vertex v uses F2
end
"""


def printed(capsys, lines) -> str:
    """What one print call per line writes."""
    capsys.readouterr()
    for line in lines:
        print(line)
    return capsys.readouterr().out


class TestReportBytes:
    """Reports are written whole; their bytes are those of printing each
    line on its own, with missing keys in ``sorted`` order."""

    @pytest.fixture
    def big(self, tmp_path):
        path = tmp_path / "big.epic"
        path.write_text(BIG_GROUPS)
        return [DATA, str(path)]

    # (group, backend, a radius whose ball has more than 1,000 elements)
    BALLS = [("ZfreeF2", "gp", 5), ("F2", "free", 6), ("Z", "zk", 500), ("H3", "mat", 7),
             ("S7", "perm", 8)]

    @pytest.mark.parametrize("large", [False, True], ids=["radius0", "large"])
    @pytest.mark.parametrize("group,backend,radius", BALLS, ids=[b for _, b, _ in BALLS])
    def test_ball(self, capsys, big, group, backend, radius, large):
        radius = radius if large else 0
        oracle = load(big).groups[group]
        assert oracle.backend.startswith(backend)
        ball = oracle.ball(radius)
        assert len(ball) > 1000 if large else len(ball) == 1
        want = printed(capsys, [f"{k.render()} {format_word(w)}" for k, w in ball.items()])
        code, out, err = run(capsys, "-f", big[0], "-f", big[1], "ball", "--group", group,
                             "--radius", str(radius))
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("max_len", [4, 0], ids=["words", "empty"])
    def test_enumerate(self, capsys, max_len):
        words = builtin_demo("FREE2").language.enumerate_words(max_len)
        assert len(words) == (4 + 12 + 36 + 108 if max_len else 0)
        want = printed(capsys, [format_word(w) for w in words])
        code, out, err = run(capsys, "enumerate", "--demo", "FREE2", "--max-len", str(max_len))
        assert (code, out, err) == (0, want, "")

    # Z's own demonstration, clean, and every word over a, a^-1, which
    # accepts the identity: both miss most of a ball of radius 40
    @pytest.mark.parametrize("porcelain", [False, True], ids=["report", "porcelain"])
    @pytest.mark.parametrize("demo", ["Z", "loose"])
    def test_verify_with_missing_elements(self, capsys, tmp_path, demo, porcelain):
        path = tmp_path / "loose.epic"
        path.write_text(TestVerify.LOOSE)
        ws = load([str(path)])
        found = ws.demonstrations[demo] if demo == "loose" else builtin_demo(demo)
        report = found.verify_coverage(40, 3, 3)
        violations, missing = report.identity_violations, sorted(report.missing)
        assert bool(violations) == (demo == "loose") and len(missing) > 70
        failed = "fail" if violations else "pass"
        if porcelain:
            lines = ([f"violation {format_word(w)}" for w in violations]
                     + [f"missing {k.render()}" for k in missing] + [f"result {failed}"])
        else:
            lines = ([f"identity word accepted: {format_word(w)}" for w in violations]
                     + [f"uncovered element: {k.render()}" for k in missing]
                     + [f"identity violations: {len(violations)}, missing: {len(missing)}"])
        want = printed(capsys, lines)
        code, out, err = run(capsys, "-f", str(path), "verify", "--demo", demo, "--max-len",
                             "3", "--ball", "40", *(["--porcelain"] if porcelain else []))
        assert (code, out, err) == (int(bool(violations)), want, "")


class TestUsageErrors:
    def test_unknown_demo(self, capsys):
        code, _, err = run(capsys, "verify", "--demo", "nope",
                           "--max-len", "2", "--ball", "2")
        assert code == 2
        assert "unknown demonstration" in err

    @pytest.mark.parametrize("name, message", [
        ("zk(30)", "rank 30 too large for default generator names"),
        ("zk(0)", "rank must be positive"),
        ("free(0)", "rank must be positive"),
        ("finite", "unknown demonstration 'finite'"),
        ("zq(2)", "unknown demonstration 'zq(2)'"),
    ])
    def test_builtin_name_error_is_reported(self, capsys, name, message):
        code, out, err = run(capsys, "ball", "--demo", name, "--radius", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_free_group_past_default_names_is_reported_as_zk(self, capsys):
        code, out, err = run(capsys, "ball", "--demo", "free(30)", "--radius", "1")
        assert (code, out, err) == (2, "", "error: rank 30 too large for default generator names\n")

    @pytest.mark.parametrize("files", [[], ["-f", DATA]], ids=["builtin", "file"])
    @pytest.mark.parametrize("value, message", [
        ("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0")])
    def test_bad_state_cap_is_blamed_on_the_variable(self, capsys, monkeypatch, files,
                                                     value, message):
        monkeypatch.setenv("EPIC_MAX_STATES", value)
        code, out, err = run(capsys, *files, "ball", "--demo", "ZK2", "--radius", "1")
        assert (code, out, err) == (2, "", f"error: EPIC_MAX_STATES {message}\n")

    def test_unknown_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_load_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.epic"
        path.write_text("automaton a\n  alphabet x\n  bogus line\nend\n")
        code, _, err = run(capsys, "-f", str(path), "enumerate",
                           "--automaton", "a", "--max-len", "1")
        assert code == 2
        assert ":3:" in err

    def test_deeply_nested_generator_is_load_error(self, capsys, tmp_path):
        path = tmp_path / "deep.epic"
        path.write_text("group g matrix dim 1\n  gen a = " + "[" * 5000 + "]" * 5000 + "\nend\n")
        code, out, err = run(capsys, "-f", str(path), "ball", "--group", "g", "--radius", "1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}:2: cannot parse") and err.count("\n") == 1
        assert len(err) < 200  # an excerpt of the value, not all 10,000 characters

    @pytest.mark.parametrize("kind", ["missing", "directory", "unwritable-out"])
    def test_unreadable_file_is_usage_error(self, capsys, tmp_path, kind):
        if kind == "unwritable-out":
            code, out, err = run(capsys, "construct", "change-gens", "--demo", "Z",
                                 "--letter", "b=a", "--letter", "b^-1=a^-1",
                                 "--image", "a=b", "--image", "a^-1=b^-1",
                                 "--out", str(tmp_path / "nodir" / "out.epic"))
        else:
            path = tmp_path / "nonexist.epic" if kind == "missing" else tmp_path
            code, out, err = run(capsys, "-f", str(path), "ball", "--demo", "Z", "--radius", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        "zk-divisible:0,0", "zk-divisible:3,2", "zk-divisible:x", "zk-divisible:-1,2",
        "zk-divisible:0", "matrix-zero:0", "matrix-zero:0,0", "matrix-zero:0,-1",
        "matrix-entry:0,0", "matrix-entry:0,0=x", "perm-even"])
    def test_malformed_key_predicate_is_usage_error(self, capsys, tmp_path, spec):
        code, out, err = run(capsys, "-f", DATA, "construct", "fi-subgroup",
                             "--demo", "Zdemo", "--table", "evens", "--in-subgroup", spec,
                             "--name", "evens2", "--out", str(tmp_path / "evens.epic"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "key predicate" in err

    CHANGE_GENS = ("construct", "change-gens", "--demo", "Z", "--image", "a=b",
                   "--image", "a^-1=b^-1")
    GRAPH_PRODUCT = ("construct", "graph-product", "--vertex", "u=Z", "--vertex", "v=FREE2")

    CHANGE_GENS_LETTERS = CHANGE_GENS + ("--letter", "b=a", "--letter", "b^-1=a^-1")

    @pytest.mark.parametrize("argv, match", [
        (CHANGE_GENS + ("--letter", "=a", "--letter", "b^-1=a^-1"), "--letter takes NAME=WORD"),
        (CHANGE_GENS + ("--letter", "b=a eps", "--letter", "b^-1=a^-1"), "'eps' is reserved"),
        (GRAPH_PRODUCT + ("--vertices", "u v", "--edge", "u-"), "edge endpoint not a vertex"),
        (GRAPH_PRODUCT + ("--vertices", "u u"), "vertex names must be distinct"),
        (CHANGE_GENS_LETTERS + ("--name", "x y"), "--name takes a word"),
        (CHANGE_GENS_LETTERS + ("--name", "#"), "--name takes a word"),
        (CHANGE_GENS_LETTERS + ("--name", ""), "--name takes a word"),
        (CHANGE_GENS + ("--letter", "eps=a", "--letter", "b^-1=a^-1"),
         "--letter takes NAME=WORD, got 'eps=a': 'eps' is reserved"),
        (("-f", DATA, "construct", "fi-overgroup", "--demo", "Zdemo", "--group", "Z",
          "--coset-rep", "eps=a"), "--coset-rep takes NAME=WORD, got 'eps=a': 'eps' is reserved"),
        (CHANGE_GENS + ("--letter", "b=a^-1", "--letter", "b=a", "--letter", "b^-1=a^-1"),
         "--letter names 'b' twice"),
        (("construct", "graph-product", "--vertices", "u", "--vertex", "u=Z",
          "--vertex", "u=FREE2"), "--vertex names 'u' twice"),
        (("construct", "change-gens", "--demo", "Z", "--letter", "#=a", "--letter", "b=a^-1",
          "--image", "a=#", "--image", "a^-1=b"),
         "--letter takes NAME=WORD with NAME a word without whitespace other than '#', got '#'"),
        (("construct", "change-gens", "--demo", "Z", "--letter", "b=a", "--letter", "b^-1=a^-1",
          "--image", "#=b", "--image", "a^-1=b^-1"),
         "--image takes NAME=WORD with NAME a word without whitespace other than '#', got '#'"),
        (("-f", DATA, "construct", "fi-overgroup", "--demo", "Zdemo", "--group", "Z",
          "--coset-rep", "#=a"),
         "--coset-rep takes NAME=WORD with NAME a word without whitespace other than '#'"),
        (("construct", "graph-product", "--vertices", "u #", "--vertex", "u=Z",
          "--vertex", "#=FREE2"),
         "--vertices takes vertex names without whitespace other than '#', got '#'"),
        (("construct", "graph-product", "--vertices", "u", "--vertex", "u=Z",
          "--vertex", "#=FREE2"),
         "--vertex takes VERTEX=DEMO with VERTEX a word without whitespace other than '#'"),
        (("construct", "graph-product", "--vertices", "u", "--vertex", "u=Z",
          "--vertex", "w=Z"), "--vertex names 'w', which --vertices does not list"),
        (("-f", DATA, "construct", "autostackable-project", "--automaton", "powers",
          "--base", "a #"), "--base takes letters without whitespace other than '#', got '#'"),
        (("construct", "graph-product", "--vertices", "u v", "--vertex", "u=Z"),
         "--vertices lists 'v', which no --vertex names"),
    ], ids=["letter-without-name", "letter-with-eps", "edge-without-end", "repeated-vertex",
            "name-with-space", "name-hash", "name-empty", "letter-named-eps",
            "coset-rep-named-eps", "letter-twice", "vertex-twice", "letter-named-hash",
            "image-named-hash", "coset-rep-named-hash", "vertices-hash", "vertex-named-hash",
            "vertex-not-in-vertices", "base-hash", "vertex-without-demo"])
    def test_malformed_flag_value_is_usage_error(self, capsys, tmp_path, argv, match):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.epic"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and match in err
        assert not (tmp_path / "out.epic").exists()

    def test_letter_named_eps_shares_the_loader_message(self, capsys, tmp_path):
        code, out, err = run(capsys, *self.CHANGE_GENS, "--letter", "eps=a",
                             "--letter", "b^-1=a^-1", "--out", str(tmp_path / "out.epic"))
        assert code == 2
        assert out == ""
        assert err == ("error: --letter takes NAME=WORD, got 'eps=a': "
                       "'eps' is reserved and cannot be an alphabet letter\n")

    @pytest.mark.parametrize("flag, argv", [
        ("--word", ["wp", "decide", "--presentation", "plane", "--demo", "ZK2"]),
        ("--rep", ["construct", "cross-section", "--automaton", "powers", "--group", "Z"]),
        ("--base", ["construct", "autostackable-project", "--automaton", "powers"]),
    ], ids=["word", "rep", "base"])
    def test_malformed_word_flag_is_usage_error(self, capsys, tmp_path, flag, argv):
        out_path = tmp_path / "out.epic"
        if argv[0] == "construct":
            argv = argv + ["--out", str(out_path)]
        code, out, err = run(capsys, "-f", DATA, *argv, flag, "a eps")
        assert code == 2
        assert out == ""
        assert err == (f"error: {flag} takes a word, got 'a eps': 'eps' is reserved "
                       "for the empty word and cannot mix with letters\n")
        assert not out_path.exists()


def verb_paths(parser, path=()):
    """(verb words, parser) of every leaf of the parser's subcommand tree."""
    verbs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not verbs:
        return [(path, parser)]
    return [leaf for name, sub in verbs[0].choices.items()
            for leaf in verb_paths(sub, path + (name,))]


LEAVES = verb_paths(build_parser())
TOP_FLAGS = [a for a in build_parser()._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)]
WORDS = st.sampled_from(["Z", "ZK2", "a b^-1", "x=y", "eps", "", "verify", "out.epic"])
INTS = st.sampled_from(["0", "3", "12", " 7", "+2", "1_0"])
NOT_INTS = st.sampled_from(["x", "3.5", "", "0x10"])


@st.composite
def argvs(draw):
    """(argv, exact): an argv from the parser's own flags, the top-level
    ones before the verb words, a leaf's in any order, repeated or
    missing, then mutated; exact says it has every required flag, every
    int value reads as one and no mutation was drawn."""
    exact = True

    def flags(actions):
        nonlocal exact
        chosen = [a for a in actions if a.required and draw(st.integers(0, 9))]
        exact = exact and all(a in chosen for a in actions if a.required)
        out = []
        for action in draw(st.permutations(chosen + draw(st.lists(st.sampled_from(actions),
                                                                   max_size=4)))):
            out.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs == 0:
                continue
            if action.type is int:
                bad = draw(st.integers(0, 9)) == 0
                exact = exact and not bad
                out.append(draw(NOT_INTS if bad else INTS))
            else:
                out.append(draw(WORDS))
        return out

    path, leaf = draw(st.sampled_from(LEAVES))
    mutations = draw(st.just([]) | st.lists(st.sampled_from(
        ["abbreviate", "equals", "help", "negative", "--", "unknown verb", "cut"]), max_size=2))
    path = list(path)
    if "unknown verb" in mutations:
        path[draw(st.integers(0, len(path) - 1))] = draw(
            st.sampled_from(["bogus", path[0][:-1], path[-1].upper()]))
    argv = flags(TOP_FLAGS) + path + flags(
        [a for a in leaf._actions if a.option_strings and not isinstance(a, argparse._HelpAction)])
    for mutation in mutations:
        options = [i for i, t in enumerate(argv) if t.startswith("--") and len(t) > 3]
        valued = [i for i in range(1, len(argv))
                  if argv[i - 1].startswith("-") and not argv[i].startswith("-")]
        if mutation == "abbreviate" and options:
            i = draw(st.sampled_from(options))
            argv[i] = argv[i][:draw(st.integers(3, len(argv[i]) - 1))]
        elif mutation == "equals" and valued:
            i = draw(st.sampled_from(valued))
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        elif mutation == "negative" and valued:
            argv[draw(st.sampled_from(valued))] = draw(st.sampled_from(["-5", "-1", "-x"]))
        elif mutation == "cut" and argv:
            del argv[draw(st.integers(0, len(argv) - 1)):]
        elif mutation in ("help", "--"):
            token = draw(st.sampled_from(["-h", "--help"])) if mutation == "help" else "--"
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv, exact and not mutations


def parse_or_exit(parse, argv):
    """(namespace values or None, exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as e:
            return None, e.code, out.getvalue(), err.getvalue()


class TestArgvReader:
    """``main`` reads the exact forms of an argv itself and hands every
    other argv to argparse, which prints help and every usage message."""

    @settings(deadline=None, max_examples=400, derandomize=True)
    @given(argvs())
    def test_reader_agrees_with_argparse(self, case):
        argv, exact = case
        read = cli._reader().read(argv)
        expected, code, out, err = parse_or_exit(build_parser().parse_args, argv)
        if expected is None:
            assert read is None
            assert parse_or_exit(main, argv)[1:] == (code, out, err)
        else:
            assert read is None or read == expected
            assert read is not None or not exact


class TestWpDecide:
    def test_in_wp(self, capsys):
        code, out, _ = run(capsys, "-f", DATA, "wp", "decide",
                           "--presentation", "plane", "--demo", "ZK2",
                           "--word", "a b a^-1 b^-1")
        assert code == 0
        assert "verdict: in_wp" in out
        assert "certificate replays: yes" in out

    def test_not_in_wp_porcelain(self, capsys):
        code, out, _ = run(capsys, "-f", DATA, "--porcelain", "wp", "decide",
                           "--presentation", "plane", "--demo", "ZK2",
                           "--word", "a b")
        assert code == 0
        record = out.strip()
        assert record.startswith("verdict not_in_wp ")
        assert "replayed=yes" in record

    def test_budget_checkpoints_and_resumes(self, capsys, tmp_path):
        state = tmp_path / "frontier.json"
        base = ("-f", DATA, "wp", "decide", "--presentation", "plane",
                "--demo", "ZK2", "--word", "a b", "--resume", str(state))
        code, out, _ = run(capsys, *base, "--budget", "3")
        assert code == 1
        assert "budget exceeded" in out
        saved = json.loads(state.read_text())
        assert saved["comparisons"] == 3
        code, out, _ = run(capsys, *base, "--budget", "1000000")
        assert code == 0
        assert "verdict: not_in_wp" in out
        assert "comparisons: 42" in out

    @pytest.mark.parametrize("text, match", [
        ('{"word": "a b"}', "missing iteration"),
        ('{"word": "a b", "iteration": 0, "cursor": 99, "pending": [], "comparisons": 0}',
         "out of range"),
        ('{"word": "a b", "iteration": "1", "cursor": 0, "pending": [], "comparisons": 0}',
         "integers"),
        ('{"word": "a b", "iteration": 1, "cursor": 0, "pending": [1], "comparisons": 0}',
         "certificates"),
        ('{"word": "a b", "iteration": 1, "cursor": 0, "pending": [{"kind": "in_wp"}], '
         '"comparisons": 0}', "certificates"),
        ('{"word": "a b", "iteration": 1, "cursor": 0, "pending": [{"kind": "not_in_wp", '
         '"language_index": "0", "closure_index": 1, "language_word": "a", '
         '"closure_word": "b"}], "comparisons": 0}', "certificates"),
        ('{"word": "a b", "iteration": 1, "cursor": 0, "pending": [{"kind": "in_wp", '
         '"index": 7, "closure_word": "a"}], "comparisons": 0}', "certificates"),
        ('{"word": "a b", "iteration"', "bad frontier file"),
        ('[]', "JSON object"),
    ], ids=["missing-key", "cursor-past-iteration", "string-field", "bad-pending",
            "certificate-without-fields", "certificate-string-index",
            "certificate-index-past-iteration", "invalid-json", "not-an-object"])
    def test_bad_resume_file_is_usage_error(self, capsys, tmp_path, text, match):
        state = tmp_path / "frontier.json"
        state.write_text(text)
        code, out, err = run(capsys, "-f", DATA, "wp", "decide", "--presentation", "plane",
                             "--demo", "ZK2", "--word", "a b", "--resume", str(state))
        assert code == 2
        assert match in err and "Traceback" not in err
        assert out == ""

    def test_frontier_for_another_word_is_usage_error(self, capsys, tmp_path):
        state = tmp_path / "frontier.json"
        state.write_text('{"word": "a", "iteration": 0, "cursor": 0, "pending": [], '
                         '"comparisons": 0}')
        code, out, err = run(capsys, "-f", DATA, "wp", "decide", "--presentation", "plane",
                             "--demo", "ZK2", "--word", "a b", "--resume", str(state))
        assert code == 2
        assert "recorded for 'a', not 'a b'" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1 and out == ""

    def test_contradicting_streams_exit_one(self, capsys, tmp_path):
        """A language that reaches the identity meets the closure stream:
        the word gets both certificates, and the inputs are at fault."""
        bad = tmp_path / "bad.epic"
        bad.write_text(
            "group P zk rank 2\n  gen a = [1,0]\n  gen a^-1 = [-1,0]\n"
            "  gen b = [0,1]\n  gen b^-1 = [0,-1]\nend\n"
            "automaton cancel\n  alphabet a a^-1 b b^-1\n  states s0 s1 s2\n"
            "  initial s0\n  accept s2\n  trans s0 a s1\n  trans s1 a^-1 s2\nend\n"
            "demonstration Bad\n  group P\n  automaton cancel\nend\n")
        code, out, err = run(capsys, "-f", DATA, "-f", str(bad), "wp", "decide",
                             "--presentation", "plane", "--demo", "Bad", "--word", "eps")
        assert (code, out) == (1, "")
        assert err.startswith("error: streams certify both membership and non-membership")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("porcelain", [False, True], ids=["report", "porcelain"])
    def test_both_streams_ending_stalls(self, capsys, tmp_path, porcelain):
        """No relators and a one-word language: both streams end after two
        comparisons, and no budget can settle the word."""
        path = tmp_path / "stall.epic"
        path.write_text(
            "group Z zk rank 1\n  gen a = [1]\nend\n"
            "automaton just_a\n  alphabet a\n  states s0 s1\n  initial s0\n"
            "  accept s1\n  trans s0 a s1\nend\n"
            "demonstration A\n  group Z\n  automaton just_a\nend\n"
            "presentation free\n  alphabet a\nend\n")
        state = tmp_path / "frontier.json"
        code, out, err = run(capsys, "-f", str(path), *(["--porcelain"] if porcelain else []),
                             "wp", "decide", "--presentation", "free", "--demo", "A",
                             "--word", "a a", "--resume", str(state))
        assert (code, err) == (1, "")
        if porcelain:
            assert out == "verdict budget_exceeded comparisons=2 stalled=yes\n"
        else:
            assert out == ("verdict: budget exceeded after 2 comparisons "
                           f"(both streams exhausted)\nfrontier written to {state}\n")
        assert json.loads(state.read_text())["comparisons"] == 2

    def test_nonpositive_budget_is_usage_error(self, capsys):
        code, _, err = run(capsys, "-f", DATA, "wp", "decide", "--presentation", "plane",
                           "--demo", "ZK2", "--word", "a b", "--budget", "0")
        assert code == 2
        assert "--budget must be positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, argv", [
        ("--max-len", ["verify", "--demo", "Z", "--max-len", "-1", "--ball", "2"]),
        ("--ball", ["verify", "--demo", "Z", "--max-len", "2", "--ball", "-1"]),
        ("--search-len", ["verify", "--demo", "Z", "--max-len", "2", "--ball", "2",
                          "--search-len", "-1"]),
        ("--radius", ["ball", "--demo", "Z", "--radius", "-1"]),
        ("--max-len", ["enumerate", "--demo", "Z", "--max-len", "-3"]),
        ("--check-len", ["construct", "extension", "--normal", "N", "--quotient", "Q",
                         "--group", "G", "--in-normal", "identity", "--check-len", "-1",
                         "--out", "unused.epic"]),
    ], ids=["verify-max-len", "verify-ball", "verify-search-len", "ball-radius",
            "enumerate-max-len", "extension-check-len"])
    def test_negative_length_is_usage_error(self, capsys, flag, argv):
        code, out, err = run(capsys, "-f", DATA, *argv)
        assert code == 2
        assert err == f"error: {flag} must not be negative, got {argv[argv.index(flag) + 1]}\n"
        assert out == ""

    def test_word_outside_alphabet(self, capsys):
        code, _, err = run(capsys, "-f", DATA, "wp", "decide",
                           "--presentation", "plane", "--demo", "ZK2",
                           "--word", "c")
        assert code == 2
        assert "outside the presentation alphabet" in err

    def test_replay_reads_streams_of_its_own(self, capsys):
        """decide reads the closure stream the presentation keeps, replay
        one built for it: a word overwritten in the kept stream is cited,
        and the replay refuses it."""
        argv = ["-f", DATA, "--porcelain", "wp", "decide", "--presentation", "plane",
                "--demo", "ZK2", "--word", "a b a^-1 b^-1"]
        try:
            assert run(capsys, *argv) == (0, "verdict in_wp comparisons=6 replayed=yes "
                                             "closure_word=a b a^-1 b^-1 index=1\n", "")
            closure = cli._stream(kept_workspace([DATA]).presentations["plane"],
                                  cli.normal_closure_enumerator)
            closure._cache[1] = make_word("a", "b", "b^-1", "b", "a^-1", "b^-1")
            assert run(capsys, *argv) == (1, "verdict in_wp comparisons=6 replayed=no "
                                             "closure_word=a b b^-1 b a^-1 b^-1 index=1\n", "")
        finally:
            cli._parses = None  # the overwritten stream goes with its presentation

    def test_raising_pull_leaves_no_broken_stream_kept(self, monkeypatch):
        """A pull that raises out of a call, an interrupt say, breaks the
        closure stream the presentation keeps: a generator that raised would
        end at index 20, and the word, certified at closure index 971, would
        run out of budget.  The next call builds the stream anew."""
        argv = ["-f", DATA, "--porcelain", "wp", "decide", "--presentation", "plane",
                "--demo", "ZK2", "--word", "a b a^-1 b^-1 a b a^-1 b^-1"]
        built = cli.normal_closure_enumerator

        def interrupted(presentation):
            def words():
                whole = built(presentation)
                for i in range(20):
                    yield whole.get(i)
                raise KeyboardInterrupt

            return Enumerator(words())

        cli._parses = None  # a presentation that keeps no stream yet
        monkeypatch.setattr(cli, "normal_closure_enumerator", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        monkeypatch.undo()
        after = call(argv)
        assert after == (0, "verdict in_wp comparisons=945756 replayed=yes "
                            "closure_word=a b a^-1 b^-1 a b a^-1 b^-1 index=971\n", "", None)
        assert after == cold_call(argv)

    def test_mismatched_demo_alphabet(self, capsys):
        code, _, err = run(capsys, "-f", DATA, "wp", "decide",
                           "--presentation", "plane", "--demo", "ZK3",
                           "--word", "a b")
        assert code == 2
        assert "does not generate" in err


class TestKeyPredicates:
    def test_perm_even(self):
        even = parse_key_predicate("perm-even")
        oracle = s3_oracle()
        assert even(oracle.evaluate(make_word("(123)")))
        assert not even(oracle.evaluate(make_word("(12)")))
        assert even(oracle.identity_key)

    def test_matrix_forms(self):
        from test_groups import heisenberg_oracle
        oracle = heisenberg_oracle()
        central = parse_key_predicate("matrix-zero:0,1;1,2")
        assert central(oracle.evaluate(make_word("z")))
        assert not central(oracle.evaluate(make_word("x")))
        top_left = parse_key_predicate("matrix-entry:0,0=1")
        assert top_left(oracle.identity_key)

    def test_zk_divisible(self):
        even = parse_key_predicate("zk-divisible:0,2")
        oracle = z_demo().oracle
        assert even(oracle.evaluate(make_word("a", "a")))
        assert not even(oracle.evaluate(make_word("a")))

    def test_unknown_spec(self):
        with pytest.raises(UsageError):
            parse_key_predicate("halting:0")


class TestConstructVerbs:
    REQUIRED = {
        "change-gens": ["--demo", "Z"],
        "extension": ["--normal", "N", "--quotient", "Q", "--group", "G",
                      "--in-normal", "perm-even"],
        "fi-overgroup": ["--demo", "Z", "--group", "G"],
        "fi-subgroup": ["--demo", "Z", "--table", "T"],
        "graph-product": ["--vertices", "u", "--vertex", "u=Z"],
        "autostackable-project": ["--automaton", "A", "--base", "a"],
        "cross-section": ["--automaton", "A", "--group", "G"],
    }

    @pytest.mark.parametrize("verb, name", [
        ("change-gens", "derived"), ("extension", "extended"), ("fi-overgroup", "overgroup"),
        ("fi-subgroup", "subgroup"), ("graph-product", "product"),
        ("autostackable-project", "normalforms"), ("cross-section", "section")])
    def test_bundle_flags(self, capsys, verb, name):
        argv = ["construct", verb, *self.REQUIRED[verb]]
        args = build_parser().parse_args(argv + ["--out", "x.epic"])
        assert (args.name, args.out) == (name, "x.epic")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_bundle_name_collision_is_load_error(self, capsys, tmp_path):
        """The builtin Z of vertex v falls back to product_group_v, which the
        workspace already gives to the group of D."""
        fixture = tmp_path / "locals.epic"
        fixture.write_text(
            "group product_group_v zk rank 1\n  gen b = [1]\n  gen b^-1 = [-1]\nend\n"
            "automaton bl\n  alphabet b b^-1\n  states s0 s1\n  initial s0\n"
            "  accept s1\n  trans s0 b s1\nend\n"
            "demonstration D\n  group product_group_v\n  automaton bl\nend\n")
        out_path = tmp_path / "X.epic"
        code, out, err = run(capsys, "-f", str(fixture), "construct", "graph-product",
                             "--vertices", "u v", "--vertex", "u=D", "--vertex", "v=Z",
                             "--name", "product", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == "error: name 'product_group_v' would collide inside the bundle\n"
        assert not out_path.exists()

    def test_vertex_group_takes_first_equal_workspace_name(self, capsys, tmp_path):
        """P's vertex uses B, which equals A; the bundle names it A, like any group."""
        fixture = tmp_path / "twins.epic"
        fixture.write_text(
            "group A zk rank 1\n  gen x = [1]\n  gen x^-1 = [-1]\nend\n"
            "group B zk rank 1\n  gen x = [1]\n  gen x^-1 = [-1]\nend\n"
            "group P graphproduct\n  vertices u\n  vertex u uses B\nend\n"
            "automaton xl\n  alphabet x x^-1\n  states s0 s1\n  initial s0\n"
            "  accept s1\n  trans s0 x s1\n  trans s0 x^-1 s1\nend\n"
            "demonstration D\n  group P\n  automaton xl\nend\n")
        out_path = tmp_path / "out.epic"
        code, _, err = run(capsys, "-f", str(fixture), "construct", "change-gens",
                           "--demo", "D", "--letter", "y=x", "--letter", "y^-1=x^-1",
                           "--image", "x=y", "--image", "x^-1=y^-1", "--out", str(out_path))
        assert code == 0, err
        text = out_path.read_text()
        assert "group P graphproduct\n  vertices u\n  vertex u uses A\nend\n" in text

    def test_fallback_name_ignores_workspace_references(self, capsys, tmp_path):
        """The workspace's product_group uses a Z^2 group, not the new product's FREE2."""
        fixture = tmp_path / "other.epic"
        fixture.write_text(
            "group Z2 zk rank 2\n  gen a = [1,0]\n  gen a^-1 = [-1,0]\n"
            "  gen b = [0,1]\n  gen b^-1 = [0,-1]\nend\n"
            "group product_group graphproduct\n  vertices u\n  vertex u uses Z2\nend\n")
        out_path = tmp_path / "product.epic"
        code, _, err = run(capsys, "-f", str(fixture), "construct", "graph-product",
                           "--vertices", "u", "--vertex", "u=FREE2", "--out", str(out_path))
        assert code == 0, err
        code, out, _ = run(capsys, "-f", str(out_path), "verify", "--demo", "product",
                           "--max-len", "4", "--ball", "1")
        assert code == 0
        assert "identity violations: 0" in out

    def test_change_gens_bundle(self, capsys, tmp_path):
        out_path = tmp_path / "renamed.epic"
        code, out, _ = run(capsys, "construct", "change-gens", "--demo", "Z",
                           "--letter", "b=a", "--letter", "b^-1=a^-1",
                           "--image", "a=b", "--image", "a^-1=b^-1",
                           "--name", "renamed", "--out", str(out_path))
        assert code == 0
        assert f"wrote {out_path}" in out
        code, out, _ = run(capsys, "-f", str(out_path), "verify",
                           "--demo", "renamed", "--max-len", "6", "--ball", "6",
                           "--strict")
        assert code == 0

    def test_fi_subgroup_bundle(self, capsys, tmp_path):
        out_path = tmp_path / "evens.epic"
        code, _, _ = run(capsys, "-f", DATA, "construct", "fi-subgroup",
                         "--demo", "Zdemo", "--table", "evens",
                         "--in-subgroup", "zk-divisible:0,2",
                         "--name", "evens2", "--out", str(out_path))
        assert code == 0
        ws = load([str(out_path)])
        words = ws.demonstrations["evens2"].language.enumerate_words(4)
        keys = {ws.demonstrations["evens2"].evaluate(w) for w in words}
        assert {k.data[0] for k in keys} == {-4, -2, 2, 4}

    def test_fi_subgroup_rejects_bad_predicate_table(self, capsys, tmp_path):
        bad = tmp_path / "bad.epic"
        bad.write_text(
            "group Z zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"
            "cosettable wrong group Z subgroupof 2\n"
            "  coset H rep eps\n  coset C rep a a\n"
            "  action H a C\n  action C a H\n"
            "  action H a^-1 C\n  action C a^-1 H\nend\n")
        code, _, err = run(capsys, "-f", str(bad), "construct", "fi-subgroup",
                           "--demo", "Z", "--table", "wrong",
                           "--in-subgroup", "zk-divisible:0,2",
                           "--name", "x", "--out", str(tmp_path / "x.epic"))
        assert code == 1
        assert "disagree with the action" in err

    def test_fi_subgroup_rejects_table_of_another_group(self, capsys, tmp_path):
        """The table evens is declared over Z, not over the cyclic group C3."""
        fixture = tmp_path / "c3.epic"
        fixture.write_text(
            "group C3 perm degree 3\n  gen a = (1 2 3)\n  gen a^-1 = (1 3 2)\nend\n"
            "automaton c3l\n  alphabet a a^-1\n  states s0 s1 s2\n  initial s0\n"
            "  accept s1 s2\n  trans s0 a s1\n  trans s1 a s2\nend\n"
            "demonstration C3demo\n  group C3\n  automaton c3l\nend\n")
        out_path = tmp_path / "x.epic"
        code, out, err = run(capsys, "-f", DATA, "-f", str(fixture), "construct", "fi-subgroup",
                             "--demo", "C3demo", "--table", "evens", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == "error: the coset table and the demonstration have different groups\n"
        assert not out_path.exists()

    def test_graph_product_bundle(self, capsys, tmp_path):
        fixture = tmp_path / "locals.epic"
        fixture.write_text(
            "group B zk rank 1\n  gen b = [1]\n  gen b^-1 = [-1]\nend\n"
            "automaton bl\n  alphabet b b^-1\n  states s0 s1 s2\n  initial s0\n"
            "  accept s1 s2\n  trans s0 b s1\n  trans s1 b s1\n"
            "  trans s0 b^-1 s2\n  trans s2 b^-1 s2\nend\n"
            "demonstration Bdemo\n  group B\n  automaton bl\nend\n")
        out_path = tmp_path / "plane.epic"
        code, _, _ = run(capsys, "-f", str(fixture), "construct", "graph-product",
                         "--vertices", "u v", "--edge", "u-v",
                         "--vertex", "u=Z", "--vertex", "v=Bdemo",
                         "--name", "plane", "--out", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "-f", str(out_path), "verify", "--demo", "plane",
                           "--max-len", "6", "--ball", "3", "--strict")
        assert code == 0

    def test_output_does_not_depend_on_hash_seed(self, tmp_path):
        """Sets and maps of letters hash like strings, so their iteration
        order varies with PYTHONHASHSEED; no output may follow it."""
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        fixture = tmp_path / "locals.epic"
        fixture.write_text(
            "group C perm degree 3\n  gen r = (1 2 3)\n  gen r2 = (1 3 2)\nend\n"
            "automaton cl\n  alphabet r r2\n  states s0 s1\n  initial s0\n  accept s1\n"
            "  trans s0 r s1\n  trans s0 r2 s1\nend\n"
            "demonstration Cdemo\n  group C\n  automaton cl\nend\n"
            "group B zk rank 1\n  gen c = [1]\n  gen c^-1 = [-1]\nend\n"
            "automaton bl\n  alphabet c c^-1\n  states s0 s1 s2\n  initial s0\n"
            "  accept s1 s2\n  trans s0 c s1\n  trans s1 c s1\n"
            "  trans s0 c^-1 s2\n  trans s2 c^-1 s2\nend\n"
            "demonstration Bdemo\n  group B\n  automaton bl\nend\n")
        undefined = tmp_path / "undefined.epic"
        undefined.write_text("group P graphproduct\n  vertices u v w\n  vertex u uses Xray\n"
                             "  vertex v uses Yankee\n  vertex w uses Zulu\nend\n")
        # s1 and s01 are equal in natural order and entered on one letter
        tied = tmp_path / "tied.epic"
        tied.write_text("group Z zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"
                        "automaton X\n  alphabet a a^-1\n  states s0 s1 s01\n  initial s0\n"
                        "  accept s0 s1 s01\n  trans s0 a s1\n  trans s0 a s01\n"
                        "  trans s01 a^-1 s01\nend\n")
        section = tmp_path / "section.epic"
        runs = []
        for seed in ("0", "1", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            bundle = tmp_path / f"product{seed}.epic"
            steps = [
                (0, ["-f", str(fixture), "construct", "graph-product", "--vertices", "u v w",
                     "--edge", "u-v", "--vertex", "u=Cdemo", "--vertex", "v=FREE2",
                     "--vertex", "w=Bdemo", "--name", "prod", "--out", str(bundle)]),
                (0, ["-f", str(bundle), "verify", "--demo", "prod", "--max-len", "4",
                     "--ball", "3"]),
                (0, ["-f", str(bundle), "ball", "--demo", "prod", "--radius", "3"]),
                (2, ["-f", str(undefined), "ball", "--group", "P", "--radius", "1"]),
                (0, ["-f", str(tied), "construct", "cross-section", "--automaton", "X",
                     "--group", "Z", "--out", str(section)]),
            ]
            outputs = []
            for code, argv in steps:
                done = subprocess.run([sys.executable, "-m", "epicdemo.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                assert done.returncode == code, done.stderr
                outputs.append((done.stdout + done.stderr).replace(str(bundle), "BUNDLE"))
            runs.append((outputs, bundle.read_bytes(), section.read_bytes()))
        assert "undefined groups ['Xray', 'Yankee', 'Zulu']" in runs[0][0][-2]
        assert runs[1:] == runs[:1] * 3

    def test_project_then_cross_section(self, capsys, tmp_path):
        fixture = tmp_path / "triples.epic"
        fixture.write_text(render_automaton("trip", z_rewriting_fixture().nfa))
        projected = tmp_path / "projected.epic"
        code, _, _ = run(capsys, "-f", str(fixture), "construct",
                         "autostackable-project", "--automaton", "trip",
                         "--base", "a a^-1", "--name", "normalforms",
                         "--out", str(projected))
        assert code == 0
        section = tmp_path / "section.epic"
        code, _, _ = run(capsys, "-f", str(projected), "-f", DATA, "construct",
                         "cross-section", "--automaton", "normalforms",
                         "--group", "Z", "--name", "section",
                         "--out", str(section))
        assert code == 0
        ws = load([str(section)])
        got = set(ws.demonstrations["section"].language.enumerate_words(6))
        assert got == set(z_demo().language.enumerate_words(6))

    def test_extension_bundle(self, capsys, tmp_path):
        from test_groups import heisenberg_oracle
        from epicdemo.workspace import Workspace, render
        center = z_demo("z")
        quotient = zk_demo(2, names=("x", "y"))
        ws = Workspace(groups={"heis": heisenberg_oracle()},
                       automata={"centerlang": center.language,
                                 "quotlang": quotient.language})
        fixture = tmp_path / "heis.epic"
        fixture.write_text(
            render(ws)
            + "\ndemonstration center\n  group heis\n  automaton centerlang\nend\n"
            + "\ndemonstration quot\n  group heis\n  automaton quotlang\nend\n")
        out_path = tmp_path / "heisdemo.epic"
        code, _, err = run(capsys, "-f", str(fixture), "construct", "extension",
                           "--normal", "center", "--quotient", "quot",
                           "--group", "heis", "--in-normal", "matrix-zero:0,1;1,2",
                           "--name", "heisdemo", "--out", str(out_path))
        assert code == 0, err
        code, out, _ = run(capsys, "-f", str(out_path), "verify",
                           "--demo", "heisdemo", "--max-len", "8", "--ball", "2",
                           "--search-len", "8", "--strict")
        assert code == 0

    def test_fi_overgroup_bundle(self, capsys, tmp_path):
        fixture = tmp_path / "dinf.epic"
        fixture.write_text(
            "group dinf matrix dim 2\n"
            "  gen a = [[1,1],[0,1]]\n"
            "  gen a^-1 = [[1,-1],[0,1]]\n"
            "  gen s = [[-1,0],[0,1]]\n"
            "end\n"
            "automaton powers\n  alphabet a a^-1\n  states s0 s1 s2\n"
            "  initial s0\n  accept s1 s2\n  trans s0 a s1\n  trans s1 a s1\n"
            "  trans s0 a^-1 s2\n  trans s2 a^-1 s2\nend\n"
            "demonstration trans\n  group dinf\n  automaton powers\nend\n")
        out_path = tmp_path / "dinfdemo.epic"
        code, _, err = run(capsys, "-f", str(fixture), "construct", "fi-overgroup",
                           "--demo", "trans", "--group", "dinf",
                           "--coset-rep", "s=s",
                           "--in-subgroup", "matrix-entry:0,0=1",
                           "--name", "dinfdemo", "--out", str(out_path))
        assert code == 0, err
        code, out, _ = run(capsys, "-f", str(out_path), "verify",
                           "--demo", "dinfdemo", "--max-len", "10", "--ball", "4",
                           "--strict")
        assert code == 0

    def test_fi_overgroup_rejects_subgroup_demo_accepting_empty_word(self, capsys, tmp_path):
        fixture = tmp_path / "zeps.epic"
        fixture.write_text(
            "group Z zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"
            "automaton powers_or_empty\n  alphabet a a^-1\n  states s0 s1 s2\n"
            "  initial s0\n  accept s0 s1 s2\n  trans s0 a s1\n  trans s1 a s1\n"
            "  trans s0 a^-1 s2\n  trans s2 a^-1 s2\nend\n"
            "demonstration Zeps\n  group Z\n  automaton powers_or_empty\nend\n")
        out_path = tmp_path / "out.epic"
        code, out, err = run(capsys, "-f", str(fixture), "construct", "fi-overgroup",
                             "--demo", "Zeps", "--group", "Z", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: the subgroup demonstration accepts the empty word\n"
        assert not out_path.exists()

    def test_change_gens_rejects_image_for_unused_letter(self, capsys, tmp_path):
        out_path = tmp_path / "out.epic"
        code, out, err = run(capsys, "construct", "change-gens", "--demo", "Z",
                             "--letter", "b=a", "--letter", "b^-1=a^-1",
                             "--image", "a=b", "--image", "a^-1=b^-1", "--image", "q=b",
                             "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: image given for 'q', which the demonstration does not use\n"
        assert not out_path.exists()


class TestNoCyclicGarbage:
    """A CLI call frees what it builds by reference counting alone: under
    ``gc.DEBUG_SAVEALL`` a collection after the call finds nothing."""

    S3 = ("group G perm degree 3\n  gen r = (1 2 3)\n  gen r2 = (1 3 2)\n  gen t = (1 2)\nend\n"
          "automaton nl\n  alphabet r r2\n  states s0 s1\n  initial s0\n  accept s1\n"
          "  trans s0 r s1\n  trans s0 r2 s1\nend\n"
          "automaton ql\n  alphabet t\n  states s0 s1\n  initial s0\n  accept s1\n"
          "  trans s0 t s1\nend\n"
          "automaton sect\n  alphabet a a^-1\n  states s0 s1 s2\n  initial s0\n"
          "  accept s0 s1 s2\n  trans s0 a s1\n  trans s1 a s1\n"
          "  trans s0 a^-1 s2\n  trans s2 a^-1 s2\nend\n"
          "demonstration N\n  group G\n  automaton nl\nend\n"
          "demonstration Q\n  group G\n  automaton ql\nend\n")

    VERBS = {
        "verify": ["verify", "--demo", "Zdemo", "--max-len", "6", "--ball", "6"],
        "enumerate": ["enumerate", "--automaton", "powers", "--max-len", "4"],
        "ball": ["ball", "--group", "ZxS3", "--radius", "2"],
        "wp-decide": ["wp", "decide", "--presentation", "plane", "--demo", "ZK2",
                      "--word", "a b a^-1 b^-1", "--budget", "100000"],
        "change-gens": ["construct", "change-gens", "--demo", "Z", "--letter", "b=a",
                        "--letter", "b^-1=a^-1", "--image", "a=b", "--image", "a^-1=b^-1"],
        "extension": ["construct", "extension", "--normal", "N", "--quotient", "Q",
                      "--group", "G", "--in-normal", "perm-even"],
        "fi-overgroup": ["construct", "fi-overgroup", "--demo", "N", "--group", "G",
                         "--coset-rep", "t=t", "--in-subgroup", "perm-even"],
        "fi-subgroup": ["construct", "fi-subgroup", "--demo", "Zdemo", "--table", "evens",
                        "--in-subgroup", "zk-divisible:0,2"],
        "graph-product": ["construct", "graph-product", "--vertices", "u v", "--edge", "u-v",
                          "--vertex", "u=Zdemo", "--vertex", "v=N"],
        "autostackable-project": ["construct", "autostackable-project", "--automaton", "trip",
                                  "--base", "a a^-1"],
        "cross-section": ["construct", "cross-section", "--automaton", "sect", "--group", "Z"],
    }

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_call_leaves_no_cyclic_garbage(self, capsys, tmp_path, verb):
        fixture = tmp_path / "fixture.epic"
        fixture.write_text(self.S3 + render_automaton("trip", z_rewriting_fixture().nfa))
        argv = ["-f", DATA, "-f", str(fixture), *self.VERBS[verb]]
        if self.VERBS[verb][0] == "construct":
            argv += ["--out", str(tmp_path / "out.epic")]
        code, _, err = run(capsys, *argv)  # warm: first-call caches are not garbage
        assert code == 0, err
        flags = gc.get_debug()
        gc.collect()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            run(capsys, *argv)
            gc.collect()
            garbage = [getattr(o, "__qualname__", type(o).__name__) for o in gc.garbage]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == []

    def test_write_then_read_leaves_no_cyclic_garbage(self, tmp_path):
        """A call that links the bundle the call before it wrote, from that
        call's parse, frees what it builds by reference counting too."""
        (product, prod), (subgroup, sub), _ = path_pipeline(tmp_path, 3)
        for argv, out in ((product, prod), (subgroup, sub)):  # warm
            assert call(argv, out)[0] == 0
        flags = gc.get_debug()
        gc.collect()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            results = [call(argv, out) for argv, out in ((product, prod), (subgroup, sub))]
            gc.collect()
            garbage = [getattr(o, "__qualname__", type(o).__name__) for o in gc.garbage]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert [r[0] for r in results] == [0, 0]
        assert garbage == []

    def test_dropped_streams_leave_no_cyclic_garbage(self, capsys, tmp_path):
        """The streams decide leaves on a workspace's presentation and
        demonstration, and on a builtin, are freed with them: when a call
        on other files replaces the kept parses, and when the builtin is
        evicted."""
        a, b = tmp_path / "a.epic", tmp_path / "b.epic"
        a.write_text(pathlib.Path(DATA).read_text())
        b.write_text(a.read_text() + "# another file\n")
        decide = ["--porcelain", "wp", "decide", "--presentation", "plane",
                  "--word", "a b a^-1 b^-1"]
        for argv in (["-f", str(a), *decide, "--demo", "Zdemo"],
                     ["-f", str(a), *decide, "--demo", "ZK2"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and "replayed=yes" in out
        flags = gc.get_debug()
        gc.collect()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            code, out, err = run(capsys, "-f", str(b), *decide, "--demo", "Zdemo")
            assert (code, err) == (0, "") and "replayed=yes" in out
            _built.cache_clear()
            gc.collect()
            garbage = [getattr(o, "__qualname__", type(o).__name__) for o in gc.garbage]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == []


class TestCollectorState:
    """main turns the cyclic collector off for the call and leaves it as it
    found it, however the call ends."""

    CALLS = {
        "exit-0": (["verify", "--demo", "Z", "--max-len", "4", "--ball", "4"], 0),
        "exit-1": (["verify", "--demo", "Z", "--max-len", "3", "--ball", "5", "--strict"], 1),
        "load-error": (["-f", DATA, "-f", DATA, "ball", "--demo", "Zdemo", "--radius", "1"], 2),
        "usage-error": (["ball", "--demo", "NOPE", "--radius", "1"], 2),
        "argparse-exit": (["no-such-verb"], SystemExit),
        "escaping-exception": (["-f", DATA, "ball", "--demo", "Zdemo", "--radius", "1"], RuntimeError),
    }

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("case", list(CALLS))
    def test_collector_state_is_restored(self, capsys, monkeypatch, case, collecting):
        argv, expected = self.CALLS[case]
        if expected is RuntimeError:
            def load(files):
                raise RuntimeError("escapes main")
            monkeypatch.setattr("epicdemo.cli.load", load)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if isinstance(expected, int):
                code = main(argv)
            else:
                with pytest.raises(expected):
                    main(argv)
                code = expected
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert (code, after) == (expected, collecting)


@pytest.fixture
def splits(monkeypatch):
    """The path of every file split into blocks, in order."""
    split, paths = workspace._split_blocks, []
    monkeypatch.setattr(workspace, "_split_blocks",
                        lambda path, text: paths.append(path) or split(path, text))
    return paths


def spy_loads(monkeypatch):
    """The workspace of each ``cli.load`` from now on, in order."""
    loaded, real = [], cli.load
    monkeypatch.setattr(cli, "load", lambda paths: loaded.append(real(paths)) or loaded[-1])
    return loaded


def object_ids(ws):
    """The identity of each object the workspace names, by kind and name."""
    return {kind: {name: id(obj) for name, obj in table.items()}
            for kind, table in vars(ws).items()}


class TestKeptWorkspace:
    """A call that links the objects the call before it linked gives what
    it gives with nothing kept: the same exit code, output and bundle bytes."""

    ZK = "group g zk rank 1\n  gen a = [{}]\n  gen a^-1 = [-{}]\nend\n"
    BALL = ["ball", "--group", "g", "--radius", "1"]

    @pytest.mark.parametrize("verb", list(TestNoCyclicGarbage.VERBS))
    def test_second_call_reuses_and_matches_a_cold_call(self, monkeypatch, tmp_path, splits,
                                                        verb):
        """The second call splits none of its files again, a construct
        verb's bundle included, as the parses the first call kept stay
        visible to every load of the second; its workspace names the first
        call's objects."""
        fixture = tmp_path / "fixture.epic"
        fixture.write_text(TestNoCyclicGarbage.S3
                           + render_automaton("trip", z_rewriting_fixture().nfa))
        out = tmp_path / "out.epic"
        argv = ["-f", DATA, "-f", str(fixture), *TestNoCyclicGarbage.VERBS[verb]]
        construct = TestNoCyclicGarbage.VERBS[verb][0] == "construct"
        if construct:
            argv += ["--out", str(out)]
        loaded = spy_loads(monkeypatch)
        first = call(argv, out)
        assert first[0] == 0, first[2]
        del splits[:]
        second = call(argv, out)
        assert splits == []
        assert object_ids(loaded[len(loaded) // 2]) == object_ids(loaded[0])
        assert second == first == cold_call(argv, out)

    def test_wp_decides_back_to_back_match_cold_calls(self, tmp_path):
        """A deep word fills the streams the presentation and ZK2 keep far
        past what the shallow words, a budget cut, its resumption and the
        uncut run after it read; each gives what it gives as a cold call,
        down to the frontier file."""
        state = tmp_path / "frontier.json"
        base = ["-f", DATA, "--porcelain", "wp", "decide", "--presentation", "plane",
                "--demo", "ZK2"]
        resume = ["--resume", str(state)]
        sequence = [
            ["--word", "a a b a^-1 a^-1 b^-1", "--budget", "10000000"],
            ["--word", "a b a^-1 b^-1"],
            ["--word", "b a"],
            ["--word", "eps"],
            ["--word", "a a b", "--budget", "25", *resume],
            ["--word", "a a b", "--budget", "1000000", *resume],
            ["--word", "a a b", "--budget", "1000025"],
        ]

        def frontier():
            return state.read_bytes() if state.exists() else None

        cli._parses = None
        warm, kept = [], set()
        for args in sequence:
            before = frontier()
            warm.append((before, call(base + args), frontier()))
            plane = kept_workspace([DATA]).presentations["plane"]
            kept.add(id(cli._stream(plane, cli.normal_closure_enumerator)))
        assert len(kept) == 1  # every call read the stream the first one built
        assert [w[1][0] for w in warm] == [0, 0, 0, 0, 1, 0, 0]
        assert warm[4][2] is not None and warm[5][1][1] == warm[6][1][1]
        for args, (before, result, after) in zip(sequence, warm):
            if before is None:
                state.unlink(missing_ok=True)
            else:
                state.write_bytes(before)
            assert (cold_call(base + args), frontier()) == (result, after)

    def test_file_rewritten_to_the_same_length_loads_again(self, tmp_path):
        path = tmp_path / "g.epic"
        path.write_text(self.ZK.format(1, 1))
        argv = ["-f", str(path), *self.BALL]
        first = call(argv)
        stat = path.stat()
        path.write_text(self.ZK.format(2, 2))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        second = call(argv)
        assert second != first
        assert "zk1[2] a" in second[1]
        assert second == cold_call(argv)

    def test_ball_then_verify_on_a_rewritten_group(self, tmp_path):
        """The oracle linked from the rewritten file starts with no ball
        tree: verify searches its ball anew, where a replay of the first
        oracle's tree would miss the negative powers, and every call prints
        what a cold call prints."""
        path = tmp_path / "g.epic"
        demo = ("automaton pos\n  alphabet a a^-1\n  states s0 s1\n  initial s0\n"
                "  accept s1\n  trans s0 a s1\n  trans s1 a s1\nend\n"
                "demonstration D\n  group g\n  automaton pos\nend\n")
        ball = ["-f", str(path), "ball", "--group", "g", "--radius", "3"]
        verify = ["-f", str(path), "verify", "--demo", "D", "--max-len", "3", "--ball", "3",
                  "--strict"]
        path.write_text(self.ZK.format(1, 1).replace("[-1]", "[1]") + demo)
        first = call(ball)
        assert first[0] == 0
        assert "_ball_tree" in vars(kept_workspace([str(path)]).groups["g"])
        path.write_text(self.ZK.format(1, 1) + demo)
        warm = [call(verify), call(ball)]
        assert [c[0] for c in warm] == [1, 0]
        assert warm[1] != first
        assert warm == [cold_call(verify), cold_call(ball)]

    def test_file_made_malformed_then_restored(self, tmp_path):
        path = tmp_path / "g.epic"
        good = self.ZK.format(1, 1)
        path.write_text(good)
        argv = ["-f", str(path), *self.BALL]
        first = call(argv)
        assert first[0] == 0
        path.write_text(good.replace("[1]", "[1"))
        broken = call(argv)
        assert broken[0] == 2 and broken[1] == ""
        assert len(broken[2].splitlines()) == 1 and broken[2].startswith(f"error: {path}:2:")
        path.write_text(good)
        assert call(argv) == first
        path.write_text(good.replace("[1]", "[1"))
        assert cold_call(argv) == broken
        path.write_text(good)
        assert call(argv) == first

    @pytest.mark.parametrize("argv, fault", [
        # the sample's automaton block at line 12 has 3 states: a load error
        (["-f", DATA, "enumerate", "--automaton", "powers", "--max-len", "2"],
         (2, f"error: {DATA}:12: ")),
        (["ball", "--demo", "ZK2", "--radius", "1"], (1, "error: ")),
        (["-f", DATA, "ball", "--demo", "zk(2)", "--radius", "1"], (2, f"error: {DATA}:12: ")),
    ], ids=["workspace", "builtin", "builtin-with-workspace"])
    def test_lowered_state_cap(self, monkeypatch, argv, fault):
        first = call(argv)
        assert first[0] == 0
        monkeypatch.setenv("EPIC_MAX_STATES", "2")
        lowered = call(argv)
        code, prefix = fault
        assert lowered[:2] == (code, "") and lowered[2].startswith(prefix)
        assert "cap is 2" in lowered[2] and len(lowered[2].splitlines()) == 1
        assert lowered == cold_call(argv)
        monkeypatch.delenv("EPIC_MAX_STATES")
        assert call(argv) == first

    def test_builtin_is_keyed_on_family_and_rank(self):
        assert builtin_demo("ZK2") is builtin_demo("zk(2)")
        assert builtin_demo("ZK2") is not builtin_demo("FREE2")

    def test_handler_cannot_add_a_name_for_the_next_call(self, tmp_path):
        path = tmp_path / "g.epic"
        path.write_text(self.ZK.format(1, 1))
        args = build_parser().parse_args(["-f", str(path), *self.BALL])
        handler = args.handler

        def adding(ws, args):
            ws.groups["extra"] = ws.groups["g"]
            return handler(ws, args)

        args.handler = adding
        assert cli._run(args) == 0
        argv = ["-f", str(path), "ball", "--group", "extra", "--radius", "1"]
        second = call(argv)
        assert second == (2, "", "error: unknown group 'extra'\n", None)
        assert second == cold_call(argv)


def path_pipeline(tmp_path, n):
    """The argv and bundle path of three calls, each but the first reading
    the bundle the call before it wrote: a graph product of n copies of Z
    on a path, its subgroup of even exponent sum, and a change of
    generators on the product."""
    names = [f"x{i}" for i in range(n)]
    local = tmp_path / "locals.epic"
    local.write_text("".join(
        f"group Z{x} zk rank 1\n  gen {x} = [1]\n  gen {x}^-1 = [-1]\nend\n"
        f"automaton L{x}\n  alphabet {x} {x}^-1\n  states s0 s1 s2\n  initial s0\n"
        f"  accept s1 s2\n  trans s0 {x} s1\n  trans s1 {x} s1\n  trans s0 {x}^-1 s2\n"
        f"  trans s2 {x}^-1 s2\nend\n"
        f"demonstration D{x}\n  group Z{x}\n  automaton L{x}\nend\n" for x in names))
    table = tmp_path / "table.epic"
    table.write_text("cosettable T group prod_group subgroupof 2\n  coset H rep eps\n"
                     f"  coset C rep {names[0]}\n" + "".join(
                         f"  action {c} {y} {d}\n" for x in names for y in (x, f"{x}^-1")
                         for c, d in (("H", "C"), ("C", "H"))) + "end\n")
    prod, sub, cg = (tmp_path / f"{name}.epic" for name in ("prod", "sub", "cg"))
    product = ["-f", str(local), "construct", "graph-product", "--vertices", " ".join(names),
               *(f"--edge={u}-{v}" for u, v in zip(names, names[1:])),
               *(f"--vertex={x}=D{x}" for x in names), "--name", "prod", "--out", str(prod)]
    subgroup = ["-f", str(prod), "-f", str(table), "construct", "fi-subgroup", "--demo", "prod",
                "--table", "T", "--name", "sub", "--out", str(sub)]
    renamed = ["-f", str(prod), "construct", "change-gens", "--demo", "prod", "--name", "cg",
               "--out", str(cg)]
    for x in names:
        renamed += [f"--letter=y{x}={x}", f"--letter=y{x}^-1={x}^-1", f"--image={x}=y{x}",
                    f"--image={x}^-1=y{x}^-1"]
    return [(product, prod), (subgroup, sub), (renamed, cg)]


class TestConstructRendersFromTheIndex:
    """A construct verb renders the automaton it built from the integer
    edge index its builder handed over: nothing on the way writes the
    automaton's transitions out."""

    def test_pipeline_writes_no_transitions_out(self, monkeypatch, tmp_path, capsys):
        seen = []
        render_automaton = workspace.render_automaton

        def rendered(name, nfa):
            seen.append((name, "transitions" in vars(nfa)))
            return render_automaton(name, nfa)

        monkeypatch.setattr(workspace, "render_automaton", rendered)
        for argv, _ in path_pipeline(tmp_path, 3):  # graph-product, fi-subgroup, change-gens
            assert main(argv) == 0
        assert seen == [("prod_lang", False), ("sub_lang", False), ("cg_lang", False)]

    def test_linked_bundle_keeps_the_index_it_was_read_into(self, monkeypatch, tmp_path):
        """The graph-product bundle's reload reads its automaton straight
        into the index, states in the order its states line declares them,
        and fi-subgroup and change-gens link that parse without writing
        its states or transitions out."""
        steps = path_pipeline(tmp_path, 3)  # graph-product, fi-subgroup, change-gens
        loaded = spy_loads(monkeypatch)
        for argv, _ in steps:
            assert main(argv) == 0
        reloaded = loaded[1].automata["prod_lang"]
        assert all(ws.automata["prod_lang"] is reloaded for ws in loaded[2::2])
        assert not {"states", "transitions"} & set(vars(reloaded))
        text = steps[0][1].read_text()
        block = text[text.index("automaton prod_lang"):]
        declared = next(line.split()[1:] for line in block.splitlines()
                        if line.split()[:1] == ["states"])
        assert reloaded._index.states == tuple(declared)


class TestOverCapConstruct:
    """A construct whose output has more states than EPIC_MAX_STATES exits
    1 with the one line of the cap error and writes no bundle: the cap
    holds for the automata a builder makes."""

    CAP_ERROR = "error: automaton has {} states, cap is {} (set EPIC_MAX_STATES to raise it)\n"

    def test_graph_product(self, monkeypatch, tmp_path):
        (product, prod), _, _ = path_pipeline(tmp_path, 4)
        monkeypatch.setenv("EPIC_MAX_STATES", "40")
        assert call(product, prod) == (1, "", self.CAP_ERROR.format(55, 40), None)

    def test_change_gens(self, monkeypatch, tmp_path):
        # each x is spelled in two new letters, so each edge on x gains a state
        (product, prod), _, _ = path_pipeline(tmp_path, 4)
        assert call(product, prod)[0] == 0
        out = tmp_path / "cg.epic"
        argv = ["-f", str(prod), "construct", "change-gens", "--demo", "prod", "--out", str(out)]
        for x in [f"x{i}" for i in range(4)]:
            argv += ["--letter", f"y{x}={x} {x}", "--letter", f"z{x}={x}^-1",
                     "--image", f"{x}=y{x} z{x}", "--image", f"{x}^-1=z{x}"]
        assert call(argv, out)[0] == 0
        monkeypatch.setenv("EPIC_MAX_STATES", "55")
        assert call(argv, out) == (1, "", self.CAP_ERROR.format(91, 55), None)


class TestKeptParses:
    """A call links the parse of every file that the call before it read
    or wrote, and gives what it gives with nothing kept."""

    ZK = TestKeptWorkspace.ZK
    BALL = TestKeptWorkspace.BALL

    def test_pipeline_matches_fresh_processes(self, tmp_path, splits):
        """Each call after the first links the bundle the call before it
        wrote or read, and its stdout, its bundle and the render of its
        workspace are a fresh process's."""
        steps = path_pipeline(tmp_path, 4)
        cli._parses = None
        warm = []
        for argv, out in steps:
            del splits[:]
            result = call(argv, out)
            files = [a for flag, a in zip(argv, argv[1:]) if flag == "-f"]
            warm.append((result, render(kept_workspace(files)), list(splits)))
        (_, prod), (_, sub), (_, cg) = steps
        table = str(tmp_path / "table.epic")
        assert [w[2] for w in warm] == [[str(tmp_path / "locals.epic"), str(prod)],
                                        [table, str(sub)], [str(cg)]]
        assert set(cli._parses[2]) == {(str(prod), prod.read_text()),
                                       (str(cg), cg.read_text())}
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        show = "import sys; from epicdemo import load, render; print(render(load(sys.argv[1:])))"
        for (argv, out), (result, rendered, _) in zip(steps, warm):
            out.unlink()
            done = subprocess.run([sys.executable, "-m", "epicdemo.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stdout, done.stderr, out.read_bytes()) == result
            files = [a for flag, a in zip(argv, argv[1:]) if flag == "-f"]
            shown = subprocess.run([sys.executable, "-c", show, *files], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert shown.stdout == rendered + "\n"

    def test_next_call_links_what_the_reload_linked(self, monkeypatch, tmp_path):
        """fi-subgroup reads the graph-product bundle the call before it
        wrote, and links the demonstration and the oracle that that call's
        reload of the bundle linked."""
        (product, prod), (subgroup, sub), _ = path_pipeline(tmp_path, 3)
        loaded = spy_loads(monkeypatch)
        assert call(product, prod)[0] == 0
        _, reloaded = loaded
        warm = call(subgroup, sub)
        linked = loaded[2]
        assert linked.demonstrations["prod"] is reloaded.demonstrations["prod"]
        assert linked.groups["prod_group"] is reloaded.groups["prod_group"]
        assert warm == cold_call(subgroup, sub)

    def test_rewritten_group_relinks_what_refers_to_it(self, monkeypatch, tmp_path):
        """A group file rewritten between two calls: the demonstration,
        graph product and coset table of another, unchanged file link to
        the new oracle, while its automaton is still the one kept."""
        groups, uses = tmp_path / "groups.epic", tmp_path / "uses.epic"
        groups.write_text(self.ZK.format(1, 1))
        uses.write_text("automaton L\n  alphabet a a^-1\n  states s0 s1\n  initial s0\n"
                        "  accept s1\n  trans s0 a s1\n  trans s1 a s1\nend\n"
                        "demonstration D\n  group g\n  automaton L\nend\n"
                        "group P graphproduct\n  vertices u\n  vertex u uses g\nend\n"
                        "cosettable T group g subgroupof 1\n  coset H rep eps\n"
                        "  action H a H\n  action H a^-1 H\nend\n")
        argv = ["-f", str(groups), "-f", str(uses), "ball", "--demo", "D", "--radius", "1"]
        loaded = spy_loads(monkeypatch)
        first = call(argv)
        groups.write_text(self.ZK.format(2, 2))
        second = call(argv)
        before, after = loaded
        oracle = after.groups["g"]
        assert oracle is not before.groups["g"]
        assert after.demonstrations["D"].oracle is oracle
        assert after.groups["P"].vertex_oracles["u"] is oracle
        assert after.cosettables["T"].oracle is oracle
        assert after.automata["L"] is before.automata["L"]
        assert second != first and second == cold_call(argv)

    def test_file_rewritten_to_the_same_length_is_parsed_again(self, tmp_path, splits):
        a, b = tmp_path / "a.epic", tmp_path / "b.epic"
        a.write_text(self.ZK.format(1, 1))
        b.write_text(self.ZK.format(1, 1).replace("group g", "group h"))
        argv = ["-f", str(a), "-f", str(b), *self.BALL]
        first = call(argv)
        stat = a.stat()
        a.write_text(self.ZK.format(2, 2))
        os.utime(a, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert a.stat().st_size == stat.st_size
        del splits[:]
        second = call(argv)
        assert splits == [str(a)]  # b is linked from the first call's parse
        assert second != first and "zk1[2] a" in second[1]
        assert second == cold_call(argv)

    def test_changed_state_cap_parses_again(self, monkeypatch, tmp_path, splits):
        (product, prod), (subgroup, sub), _ = path_pipeline(tmp_path, 3)
        assert call(product, prod)[0] == 0
        states = len(load([str(prod)]).automata["prod_lang"].states)
        monkeypatch.setenv("EPIC_MAX_STATES", str(states - 1))
        del splits[:]
        lowered = call(subgroup, sub)
        assert str(prod) in splits
        line = prod.read_text().splitlines().index("automaton prod_lang") + 1
        assert lowered[:2] == (2, "") and lowered[2].startswith(f"error: {prod}:{line}: ")
        assert f"cap is {states - 1}" in lowered[2]
        assert lowered == cold_call(subgroup, sub)
        monkeypatch.delenv("EPIC_MAX_STATES")
        assert call(subgroup, sub) == cold_call(subgroup, sub)

    @pytest.mark.parametrize("bad, line", [
        # a duplicate of a kept file's name is met before a later parse fault
        ("group g zk rank 1\n  gen a = [1]\nend\ngroup k zk rank 1\n  gen a = [1\nend\n", 1),
        ("group k zk rank 1\n  gen a = [1\nend\n", 2),
        ("group k zk rank 1\n  gen a = [1]\n", 1),
        ("group k graphproduct\n  vertices u\n  vertex u uses nowhere\nend\n", 1),
    ], ids=["duplicate-first", "parse", "unterminated", "reference"])
    def test_faulty_file_is_reported_as_cold_and_not_kept(self, tmp_path, bad, line):
        good, other = tmp_path / "good.epic", tmp_path / "other.epic"
        good.write_text(self.ZK.format(1, 1))
        argv = ["-f", str(good), "-f", str(other), *self.BALL]
        other.write_text("")
        assert call(argv)[0] == 0
        kept = cli._parses
        other.write_text(bad)
        broken = call(argv)
        assert broken[0] == 2 and broken[2].startswith(f"error: {other}:{line}:")
        assert cli._parses is kept  # a failed load keeps nothing new
        assert broken == cold_call(argv)
        other.write_text("")
        assert call(argv) == cold_call(argv)

    def test_kept_file_clashes_with_a_name_before_it(self, tmp_path):
        """A kept file's names are checked against the files before it."""
        first, kept = tmp_path / "first.epic", tmp_path / "kept.epic"
        first.write_text("")
        kept.write_text(self.ZK.format(1, 1))
        argv = ["-f", str(first), "-f", str(kept), *self.BALL]
        assert call(argv)[0] == 0
        first.write_text(self.ZK.format(2, 2))
        clash = call(argv)
        assert clash[2] == f"error: {kept}:1: duplicate group name 'g'\n"
        assert clash == cold_call(argv)

    def test_load_outside_a_call_keeps_nothing(self, tmp_path):
        (product, prod), _, _ = path_pipeline(tmp_path, 2)
        assert call(product, prod)[0] == 0
        kept = cli._parses
        assert render(cli.load([str(prod)])) == render(load([str(prod)]))
        assert cli._parses is kept

    def test_split_fault_of_a_later_file_comes_first(self, tmp_path):
        """Every file is split before any block is parsed, kept or not."""
        first, second = tmp_path / "first.epic", tmp_path / "second.epic"
        first.write_text("group k zk rank 1\n  gen a = [1\nend\n")
        second.write_text("end\n")
        argv = ["-f", str(first), "-f", str(second), *self.BALL]
        assert call(argv)[2] == f"error: {second}:1: expected a block keyword, got 'end'\n"
        assert call(argv) == cold_call(argv)


class TestMutatedConstructCalls:
    """Each construct verb's call on the sample workspace, one flag value
    changed: the call fails with one error line, or writes a bundle that
    reloads and, for a demonstration, passes verify with no identity
    word accepted."""

    CALLS = {verb: [*argv, "--name", "built"] for verb, argv in TestNoCyclicGarbage.VERBS.items()
             if argv[0] == "construct"}
    CALLS["extension"] += ["--check-len", "4"]
    VALUES = [
        # names, the workspace's and the builtins'
        "Z", "Zdemo", "N", "Q", "G", "S3", "ZxS3", "F2", "H3", "evens", "powers", "trip",
        "sect", "nl", "ZK2", "FREE2", "zk(2)", "nosuch",
        # words and NAME=WORD pairs
        "a", "a^-1", "eps", "a a", "b", "r", "t", "a a^-1", "b=a", "a=b", "t=t", "t=r",
        "r=r2", "a=eps", "b^-1=a", "eps=a", "=a", "a=",
        # predicates, lengths, vertices and edges
        "perm-even", "zk-divisible:0,2", "zk-divisible:0,0", "matrix-zero:0,1",
        "matrix-entry:0,0=1", "bogus", "-1", "0", "1", "7", "u v", "u", "u u", "u-v",
        "u-w", "u-u", "u=Z", "v=Zdemo", "w=N", "u=nosuch",
        # bundle names
        "#", "two words", "",
    ]

    @settings(deadline=None, max_examples=250, derandomize=True)
    @given(verb=st.sampled_from(sorted(CALLS)), pick=st.integers(0, 15),
           value=st.sampled_from(VALUES))
    def test_fails_cleanly_or_writes_a_sound_bundle(self, tmp_path_factory, verb, pick, value):
        fixture = tmp_path_factory.getbasetemp() / "mutated-fixture.epic"
        if not fixture.exists():
            fixture.write_text(TestNoCyclicGarbage.S3
                               + render_automaton("trip", z_rewriting_fixture().nfa))
        out = tmp_path_factory.getbasetemp() / "mutated-out.epic"
        argv = ["-f", DATA, "-f", str(fixture), *self.CALLS[verb], "--out", str(out)]
        flags = [k for k in range(4, len(argv) - 2) if argv[k].startswith("--")]
        at = flags[pick % len(flags)] + 1
        argv[at] = value
        try:
            code, stdout, stderr, bundle = call(argv, out)
        except SystemExit as e:  # argparse's own usage error, for a value that is no int
            assert e.code == 2 and argv[at - 1] == "--check-len"
            return
        if code:
            assert code in (1, 2) and bundle is None and stdout == ""
            assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr
            return
        assert (stdout, stderr) == (f"wrote {out}\n", "") and bundle is not None
        for name in load([str(out)]).demonstrations:
            checked = call(["-f", str(out), "--porcelain", "verify", "--demo", name,
                            "--max-len", "4", "--ball", "2"])
            assert checked[0] == 0 and "violation" not in checked[1], checked


class TestDeepGraphProduct:
    def test_evaluation_too_deep_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "chain.epic"
        path.write_text(chain_text(2000))
        code, out, err = run(capsys, "-f", str(path), "ball", "--group", "g0", "--radius", "1")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
