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
