import importlib.util
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
        with pytest.raises(SystemExit) as caught:
            load_script("coverage_growth").main(["--demo", "nope"])
        assert caught.value.code == 2
        out, err = capsys.readouterr()
        assert err == "error: unknown builtin demonstration 'nope'\n" and out == ""

    def test_missing_file_is_one_line_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as caught:
            load_script("coverage_growth").main(["-f", str(tmp_path / "none.epic")])
        assert caught.value.code == 2
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and out == ""

    def test_builtin_demo_runs_clean(self, capsys):
        assert load_script("coverage_growth").main(["--demo", "zk2", "--max-radius", "2"]) == 0
        assert "identity violations up to length 4: 0" in capsys.readouterr().out


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
