import json
from importlib import resources

import jsonschema
import pytest

from holoflow.cli import _build_parser, main


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("holoflow") / "schemas" / "report-v1.json"
            ).read_text(encoding="utf-8")
    return json.loads(text)


def _generator_check(tmp_path, f):
    out = tmp_path / "report.json"
    code = main(["generator-check", "--symbol=-z", "--f=" + f,
                 "--space", "h2", "--N", "16", "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_generator_check_constant_seed_reports_null_slope(tmp_path, schema,
                                                         capsys):
    code, doc = _generator_check(tmp_path, "1")
    assert code == 0
    jsonschema.validate(doc, schema)
    assert [r["residual"] for r in doc["residuals"]] == [0.0, 0.0, 0.0]
    assert doc["slope"] is None
    assert doc["slope_reason"]
    assert json.loads(capsys.readouterr().out) == doc


def test_generator_check_slope_is_first_order(tmp_path, schema):
    code, doc = _generator_check(tmp_path, "poly(0.5,1,0.25)")
    assert code == 0
    jsonschema.validate(doc, schema)
    assert doc["slope"] == pytest.approx(1.0, abs=0.05)
    assert doc["slope_reason"] is None


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _flow_status(tmp_path, capsys, *extra):
    out = tmp_path / "trajectory.csv"
    code = main(["flow", "--symbol=-z", "--z0", "0.5,0", "--out", str(out),
                 *extra])
    capsys.readouterr()
    assert code == 0
    return out.read_text(encoding="utf-8").splitlines()[-1]


def test_cached_parser_keeps_no_values_between_calls(tmp_path, capsys):
    assert _flow_status(tmp_path, capsys, "--horizon", "2") == (
        "# status=Completed horizon=2")
    assert _flow_status(tmp_path, capsys) == (
        "# status=Completed horizon=10")


def test_parse_error_then_valid_call(tmp_path, capsys):
    assert main(["check-e", "--bogus", "1"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)
    assert main(["flow", "--z0", "0.5,0"]) == 1
    capsys.readouterr()
    out = tmp_path / "check_e.json"
    assert main(["check-e", "--space", "h2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Satisfied"


def test_help_exits_zero_every_time(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "counterexample" in capsys.readouterr().out


@pytest.mark.parametrize("horizon,expected", [("40", 0), ("0.5", 4)])
def test_counterexample_exit_codes_and_reruns(tmp_path, schema, capsys,
                                              horizon, expected):
    report = tmp_path / "cx.json"
    traj = tmp_path / "cx.csv"
    argv = ["counterexample", "--b", "1.3,0.4", "--z0", "0.2,-0.1",
            "--T", horizon, "--out", str(report),
            "--trajectory-out", str(traj)]
    artifacts = []
    for _ in range(2):
        assert main(argv) == expected
        capsys.readouterr()
        artifacts.append((report.read_bytes(), traj.read_bytes()))
    assert artifacts[0] == artifacts[1]
    doc = json.loads(artifacts[0][0])
    jsonschema.validate(doc, schema)
    if expected == 0:
        assert doc["t_exit"] > 0 and doc["warning"] is None
    else:
        assert doc["t_exit"] is None and doc["warning"]
