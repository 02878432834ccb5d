import importlib.util
import itertools
import json
import os
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCoverageGrowth:
    def test_unknown_demo_is_one_line_usage_error(self, capsys):
        assert load_script("coverage_growth").main(["--demo", "nope"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: unknown demonstration 'nope'\n" and out == ""

    def test_missing_file_is_one_line_usage_error(self, capsys, tmp_path):
        assert load_script("coverage_growth").main(["-f", str(tmp_path / "none.epic")]) == 2
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and out == ""

    def test_builtin_demo_runs_clean(self, capsys):
        assert load_script("coverage_growth").main(["--demo", "zk2", "--max-radius", "2"]) == 0
        assert "identity violations up to length 4: 0" in capsys.readouterr().out

    def test_identity_words_are_violations(self, capsys, tmp_path):
        """Every non-empty word over a a^-1 as a demonstration of Z: the
        words of length 2, 4 and 6 that cancel (2 + 6 + 20) are violations,
        and a radius of 0 checks only the empty word, which is not accepted."""
        path = tmp_path / "every.epic"
        path.write_text(
            "group Z zk rank 1\n  gen a = [1]\n  gen a^-1 = [-1]\nend\n"
            "automaton every\n  alphabet a a^-1\n  states s0 s1\n  initial s0\n"
            "  accept s1\n  trans s0 a s1\n  trans s0 a^-1 s1\n"
            "  trans s1 a s1\n  trans s1 a^-1 s1\nend\n"
            "demonstration Every\n  group Z\n  automaton every\nend\n")
        script = load_script("coverage_growth")
        base = ["-f", str(path), "--demo", "Every"]
        assert script.main(base + ["--max-radius", "3"]) == 1
        assert capsys.readouterr().out.endswith("identity violations up to length 6: 28\n")
        assert script.main(base + ["--max-radius", "0"]) == 0
        assert capsys.readouterr().out.endswith("identity violations up to length 0: 0\n")


class TestBenchRecord:
    def test_next_file_follows_the_highest_number(self, tmp_path):
        for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_2.txt"):
            (tmp_path / name).write_text("{}")
        assert load_script("bench_record").next_path(str(tmp_path)) == \
            str(tmp_path / "BENCH_4.json")
        assert load_script("bench_record").next_path(str(tmp_path / "none")) == \
            str(tmp_path / "none" / "BENCH_1.json")

    def test_medians_per_metric(self):
        runs = [{"metrics": {"wall_s": {"value": v, "unit": "s"}}} for v in (3.0, 1.0, 2.0)]
        assert load_script("bench_record").medians(runs) == \
            {"wall_s": {"median": 2.0, "unit": "s"}}

    def test_no_seeds_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            load_script("bench_record").main(["--seeds", "0"])
        assert caught.value.code == 2

    def test_roots_take_turns_run_by_run(self, tmp_path, capsys):
        """Two checkouts, stubbed runs: each (workload, trace, seed) visits
        both roots before the next, starting at the other root than the run
        before it, and each root's medians go to its own file, numbered in
        --root order."""
        script = load_script("bench_record")
        calls = []

        def bench(root, workload, seed, seconds, trace):
            calls.append((workload, trace, seed, os.path.basename(root)))
            value = seed + (10 if root.endswith("new") else 0) + trace / 2
            return {"correct": True, "failed": 0, "attempted": 4,
                    "metrics": {"wall_s": {"value": value, "unit": "s"}}}

        script.bench, script.ROOT = bench, str(tmp_path)
        (tmp_path / "BENCH_3.json").write_text("{}")
        old, new = tmp_path / "old", tmp_path / "new"
        assert script.main(["--root", str(old), "--root", str(new),
                            "--seconds", "1", "--seeds", "2"]) == 0
        turns = itertools.cycle([("old", "new"), ("new", "old")])
        assert calls == [(workload, trace, seed, root)
                         for workload in script.WORKLOADS for trace in (0, 1)
                         for seed in (1, 2) for root in next(turns)]
        out = capsys.readouterr().out
        assert out.split() == [str(tmp_path / "BENCH_4.json"), str(tmp_path / "BENCH_5.json")]
        for name, wall in (("BENCH_4.json", 1.5), ("BENCH_5.json", 11.5)):
            record = json.loads((tmp_path / name).read_text())
            assert record["seeds"] == [1, 2] and record["correct"] is True
            for workload in script.WORKLOADS:
                got = record["workloads"][workload]
                assert got["end_to_end"] == {"wall_s": {"median": wall, "unit": "s"}}
                assert got["per_layer"] == {"wall_s": {"median": wall + 0.5, "unit": "s"}}
                assert (got["attempted"], got["failed"]) == (16, 0)

    def test_one_out_per_root(self, capsys):
        with pytest.raises(SystemExit) as caught:
            load_script("bench_record").main(["--root", ".", "--root", ".", "--out", "x.json"])
        assert caught.value.code == 2
        assert "give --out once per --root: 2 times, not 1" in capsys.readouterr().err


class TestOutputDigest:
    def test_one_line_per_job_whatever_the_work_directory(self, tmp_path):
        """Seed 1 of the construct workload: every job exits 0 and writes a
        bundle, and the lines do not depend on where the inputs are."""
        from epicdemo.cli import main
        script = load_script("output_digest")
        first = list(script.job_lines(main, "construct", 1, str(tmp_path / "a")))
        assert list(script.job_lines(main, "construct", 1, str(tmp_path / "b"))) == first
        jobs = script.load_workloads().build("construct", 1, str(tmp_path / "c")).jobs
        fields = [line.split() for line in first]
        assert [f[:4] for f in fields] == [["construct", "1", job.jid, "0"] for job in jobs]
        assert all(len(f) == 7 and all(len(h) == 32 for h in f[4:]) for f in fields)


class TestWpRace:
    @pytest.mark.parametrize("argv, message", [
        (["--budget", "0"], "error: --budget must be positive, got 0\n"),
        (["--word", "a eps"], "error: --word takes a word, got 'a eps': "
                              "'eps' is reserved for the empty word and cannot mix with letters\n"),
        (["--word", "a b", "--word", "c"],
         "error: word letter 'c' is outside the presentation alphabet\n"),
    ], ids=["budget-zero", "eps-in-word", "foreign-letter"])
    def test_bad_value_is_one_line_usage_error(self, capsys, argv, message):
        assert load_script("wp_race").main(argv) == 2
        out, err = capsys.readouterr()
        assert err == message and out == ""

    def test_words_race_within_the_budget(self, capsys):
        assert load_script("wp_race").main(["--word", "a b a^-1 b^-1", "--word", "a b"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[-3], row[-1]) for row in rows] == [("in_wp", "yes"), ("not_in_wp", "yes")]


class TestMakeHeisenbergBundle:
    def test_unwritable_out_is_one_line_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.epic"
        assert load_script("make_heisenberg_bundle").main(["--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, shown", [
        (["--max-len", "3", "--search-len", "3"], 2),
        (["--max-len", "1", "--search-len", "2"], 0),
    ], ids=["within-max-len", "beyond-max-len"])
    def test_identity_words_fail_the_bundle(self, capsys, tmp_path, argv, shown):
        """Every non-empty word over z z^-1: the count shows the violations
        of at most --max-len letters (z z^-1 and z^-1 z), and any violation
        up to --search-len letters fails the bundle."""
        from epicdemo import Demonstration, Letter, Nfa
        script = load_script("make_heisenberg_bundle")
        z, zi = Letter("z"), Letter("z^-1")
        every = Nfa((z, zi), frozenset({0, 1}),
                    frozenset({(p, x, 1) for p in (0, 1) for x in (z, zi)}),
                    frozenset({0}), frozenset({1}))
        script.build = lambda ws, args: Demonstration(ws.groups["heis"], {z: (z,), zi: (zi,)},
                                                      every)
        assert script.main(["--out", str(tmp_path / "x.epic"), "--ball", "0", *argv]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"reloaded: identity violations {shown}, covered 0, missing 0")


@pytest.mark.parametrize("script, argv, message", [
    ("coverage_growth", ["--stretch", "-1"], "--stretch must not be negative, got -1"),
    ("coverage_growth", ["--max-radius", "-3"], "--max-radius must not be negative, got -3"),
    ("coverage_growth", ["--demo", "zk(0)"], "rank must be positive"),
    ("wp_race", ["--budget", "-5"], "--budget must be positive, got -5"),
    ("wp_race", ["--word", "a b", "--word", "a c"],
     "word letter 'c' is outside the presentation alphabet"),
    ("make_heisenberg_bundle", ["--max-len", "-1"], "--max-len must not be negative, got -1"),
    ("make_heisenberg_bundle", ["--ball", "-2"], "--ball must not be negative, got -2"),
    ("make_heisenberg_bundle", ["--search-len", "-3"],
     "--search-len must not be negative, got -3"),
], ids=["stretch", "max-radius", "unbuildable-demo", "budget", "later-word",
        "max-len", "ball", "search-len"])
def test_bad_value_returns_2_with_one_error_line(capsys, tmp_path, script, argv, message):
    """Every bad value is rejected as the CLI rejects it, before any output:
    exit 2, one error line, nothing on stdout, no --out written."""
    out_path = tmp_path / "out.epic"
    if script == "make_heisenberg_bundle":
        argv = argv + ["--out", str(out_path)]
    assert load_script(script).main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""
    assert not out_path.exists()
