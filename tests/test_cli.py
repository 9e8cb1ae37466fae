import json
import math
import time
from importlib import resources

import jsonschema
import pytest

from holoflow import geometry, parse_symbol, semiflow, series
from holoflow.cli import main


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


def _one_error_line(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


def test_config_fills_unset_options_and_flags_win(tmp_path, capsys):
    # the flag --symbol=-z beats the config's z, which would escape
    config = tmp_path / "flags.cfg"
    config.write_text("# flow settings\n\nsymbol = z\n  # indented\n"
                      "horizon = 2\n", encoding="utf-8")
    assert _flow_status(tmp_path, capsys, "--config", str(config)) == (
        "# status=Completed horizon=2")


@pytest.mark.parametrize("text", ["bogus = 1\n", "# ok\nhorizon 2\n", None],
                         ids=["unknown-key", "no-equals", "unreadable"])
def test_config_errors_are_parse_errors(tmp_path, capsys, text):
    config = tmp_path / "flags.cfg"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    out = tmp_path / "trajectory.csv"
    assert main(["flow", "--symbol", "-z", "--z0", "0.5,0", "--config",
                 str(config), "--out", str(out)]) == 1
    _one_error_line(capsys)
    assert not out.exists()


def test_parse_error_then_valid_call(tmp_path, capsys):
    assert main(["check-e", "--bogus", "1"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)
    assert main(["flow", "--z0", "0.5,0"]) == 1
    capsys.readouterr()
    out = tmp_path / "check_e.json"
    assert main(["check-e", "--space", "h2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Satisfied"


def test_help_exits_zero_every_time(capsys):
    for argv in (["--help"], ["flow", "-h"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "counterexample" in text
        assert ("--horizon  integration horizon" in text) == (len(argv) == 2)


@pytest.mark.parametrize("argv", [
    ["flow", "--sym", "-z", "--z0", "0.5,0"],
    ["flow", "--z0", "0.5,0", "--symbol"],
    ["flow", "-z", "--z0", "0.5,0"],
    ["stream", "--symbol", "-z"],
    [],
], ids=["abbreviated", "no-value", "stray", "unknown-command", "empty"])
def test_malformed_command_lines_are_parse_errors(capsys, argv):
    assert main(argv) == 1
    _one_error_line(capsys)


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


@pytest.mark.parametrize("argv", [
    ["flow", "--symbol", "z", "--z0", "0.5,0", "--horizon", "inf"],
    ["flow", "--symbol", "z", "--z0", "nan,0"],
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "8", "--t", "inf"],
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "8", "--t", "nan"],
    ["classify", "--symbol", "-z", "--escape-tmax", "nan"],
    ["counterexample", "--dw-tol", "nan"],
    ["check-e", "--space", "hpbeta:p=2,beta=pow:nan"],
    ["check-e", "--space", "hpbeta:p=2,beta=geom:inf"],
    ["flow", "--symbol", "z", "--z0", "0.1,0", "--domain", "disc:0,0,inf"],
    ["flow", "--symbol", "z", "--z0", "0.1,0", "--domain", "disc:0,0,nan"],
    ["flow", "--symbol", "1e999*z", "--z0", "0.1,0"],
    ["evolve", "--symbol", "-z", "--f", "1e999", "--N", "8"],
], ids=["flow-horizon-inf", "flow-z0-nan", "evolve-t-inf", "evolve-t-nan",
        "classify-tmax-nan", "counterexample-dwtol-nan", "check-e-pow-nan",
        "check-e-geom-inf", "domain-radius-inf", "domain-radius-nan",
        "symbol-literal-overflow", "seed-literal-overflow"])
def test_non_finite_numbers_are_parse_errors(tmp_path, capsys, argv):
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 1
    _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # a constant whose exponential overflows
    ["flow", "--symbol", "exp(800)", "--z0", "0.1,0"],
    ["classify", "--symbol", "1/exp(800)"],
    ["evolve", "--symbol", "exp(800)", "--f", "z", "--N", "8"],
    ["evolve", "--symbol", "-z", "--f", "exp(800)", "--N", "8"],
    ["generator-check", "--symbol", "-z", "--f", "exp(800)", "--N", "8"],
    ["transfer-check", "--symbol", "exp(800)", "--z0", "0.3,0.2"],
    ["counterexample", "--F", "exp(800)"],
    # non-finite seed coefficients and weights
    ["evolve", "--symbol", "-z", "--f", "exp(2000*z)", "--N", "16"],
    ["generator-check", "--symbol", "-z", "--f", "exp(2000*z)", "--N", "16"],
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "16",
     "--space", "hpbeta:p=2,beta=pow:400"],
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "16",
     "--space", "hpbeta:p=2,beta=geom:1e300"],
    # a norm past the float range, also with a matrix to write
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "16",
     "--space", "hpbeta:p=2,beta=pow:200"],
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "16",
     "--space", "hpbeta:p=2,beta=pow:200", "--matrix-out", "MATRIX"],
    # sizes just past their bounds
    ["flow", "--symbol", "-z", "--z0", "0.1,0",
     "--horizon", repr(semiflow.MAX_HORIZON * 1.001)],
    ["portrait", "--symbol", "-z", "--density", "1",
     "--horizon", repr(semiflow.MAX_HORIZON * 1.001)],
    ["counterexample", "--T", repr(semiflow.MAX_HORIZON * 1.001)],
    ["evolve", "--symbol", "-z", "--f", "z",
     "--N", str(series.MAX_DEGREE + 1)],
    ["generator-check", "--symbol", "-z", "--f", "z",
     "--N", str(series.MAX_DEGREE + 1)],
    ["portrait", "--symbol", "-z", "--density",
     str(geometry.MAX_DENSITY + 1)],
    ["classify", "--symbol", "-z", "--density",
     str(geometry.MAX_DENSITY + 1)],
], ids=lambda argv: " ".join(argv))
def test_numeric_failures_exit_2_without_artifacts(tmp_path, capsys, argv):
    out, traj = tmp_path / "artifact", tmp_path / "trajectory.csv"
    argv = [str(tmp_path / "matrix.csv") if a == "MATRIX" else a
            for a in argv]
    extra = (["--trajectory-out", str(traj)] if argv[0] == "counterexample"
             else [])
    assert main(argv + ["--out", str(out)] + extra) == 2
    _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # a time past the longest run: before, these ran for minutes
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "8", "--t", "1e7"],
    ["classify", "--symbol", "-z*(1-1.2*z^20)", "--escape-tmax", "1e6"],
    # time 0 checks the start point and the tol
    ["transfer-check", "--symbol", "z", "--t", "0", "--z0", "5,0"],
    ["transfer-check", "--symbol", "z", "--t", "0", "--z0", "0.5,0",
     "--tol", "1"],
], ids=lambda argv: " ".join(argv))
def test_run_inputs_are_refused_at_once(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check-e", "--space", "h2", "--out", "MISSING"],
    ["flow", "--symbol", "-z", "--z0", "0.5,0", "--out", "MISSING"],
    ["evolve", "--symbol", "-z", "--f", "z", "--N", "8",
     "--matrix-out", "MISSING", "--out", "OK"],
    ["counterexample", "--trajectory-out", "MISSING", "--out", "OK"],
    # the trajectory is written first and must be taken back
    ["counterexample", "--trajectory-out", "OK", "--out", "MISSING"],
], ids=lambda argv: " ".join(argv))
def test_unwritable_paths_exit_1_without_artifacts(tmp_path, capsys, argv):
    paths = {"MISSING": str(tmp_path / "missing" / "artifact"),
             "OK": str(tmp_path / "artifact")}
    assert main([paths.get(a, a) for a in argv]) == 1
    _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_portrait_counts_overflowing_seeds_as_failed(tmp_path, capsys):
    svg = tmp_path / "portrait.svg"
    assert main(["portrait", "--symbol", "exp(800)", "--density", "1",
                 "--out", str(svg)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "portrait", "out": str(svg), "seeds": 32,
        "completed": 0, "escaped": 0, "failed": 32}


def _run_twice(capsys, argv, artifacts):
    """Exit code, stdout summary and artifact bytes; both runs must agree."""
    runs = []
    for _ in range(2):
        code = main(argv)
        summary = json.loads(capsys.readouterr().out)
        runs.append((code, summary, [p.read_bytes() for p in artifacts]))
    assert runs[0] == runs[1]
    return runs[0]


@pytest.mark.parametrize("symbol,domain,counts", [
    ("(0.3+1i)*z", "unitdisc",
     {"seeds": 32, "completed": 0, "escaped": 32, "failed": 0}),
    ("-z", "halfplane:right",
     {"seeds": 272, "completed": 272, "escaped": 0, "failed": 0}),
])
def test_portrait_golden(tmp_path, capsys, symbol, domain, counts):
    svg = tmp_path / "portrait.svg"
    code, summary, (data,) = _run_twice(capsys, [
        "portrait", "--symbol", symbol, "--domain", domain,
        "--density", "1", "--horizon", "5", "--out", str(svg)], [svg])
    assert code == 0
    assert summary == dict(counts, command="portrait", out=str(svg))
    text = data.decode("utf-8")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize("flags", [["--escape-tmax", "-1"],
                                   ["--escape-tmax", "0"], ["--tol", "1"]])
def test_classify_bad_escape_parameters_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "classify.json"
    assert main(["classify", "--symbol", "z", "--out", str(out)]
                + flags) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
    assert not out.exists()


@pytest.mark.parametrize("symbol,expected,status", [
    ("-z", 0, "Global"),
    ("z", 0, "NotGlobal"),
    ("-z*(1-1.2*z^20)", 4, "Inconclusive"),
])
def test_classify_golden(tmp_path, schema, capsys, symbol, expected,
                         status):
    out = tmp_path / "classify.json"
    code, summary, (data,) = _run_twice(
        capsys, ["classify", "--symbol", symbol, "--out", str(out)], [out])
    assert code == expected
    doc = json.loads(data)
    jsonschema.validate(doc, schema)
    assert doc == summary and doc["status"] == status
    if status == "Global":
        assert doc["b"] == [0, 0] and doc["witness"] is None
    if status == "NotGlobal":
        # every seed of z -> z e^t leaves at t = ln(1/|z0|)
        z0 = complex(*doc["witness"]["z0"])
        assert doc["witness"]["t_escape"] == pytest.approx(
            -math.log(abs(z0)), abs=1e-6)


@pytest.mark.parametrize("symbol,phi0,dphi0", [
    ("-z", 0.0, math.exp(-0.5)),
    ("1-z^2", math.tanh(0.5), 1.0 / math.cosh(0.5) ** 2),
    # symbols free of z: the flow is z + c t
    ("0.1", 0.05, 1.0),
    ("0*z", 0.0, 1.0),
])
def test_evolve_golden(tmp_path, schema, capsys, symbol, phi0, dphi0):
    out = tmp_path / "evolve.json"
    matrix = tmp_path / "matrix.csv"
    code, summary, (data, csv) = _run_twice(capsys, [
        "evolve", "--symbol", symbol, "--f", "1/(1-0.5*z)", "--t", "0.5",
        "--N", "16", "--space", "h2", "--out", str(out),
        "--matrix-out", str(matrix)], [out, matrix])
    assert code == 0
    doc = json.loads(data)
    jsonschema.validate(doc, schema)
    assert doc == summary
    # coefficient 0 of f o phi_t is f(phi_t(0)); f is a geometric series
    # whose degree-16 tail at |phi_t(0)| / 2 < 0.25 is below 1e-9
    assert complex(*doc["coeffs"][0]) == pytest.approx(
        1.0 / (1.0 - 0.5 * phi0), abs=1e-8)
    assert doc["norm"] > 0
    lines = csv.decode("utf-8").splitlines()
    assert lines[0] == "# t=0.5 N=16"
    row0 = [float(x) for x in lines[1].split(",")]
    row1 = [float(x) for x in lines[2].split(",")]
    assert len(lines) == 18 and len(row0) == 34
    # column k holds phi_t^k: row 0 is phi_t(0)^k, and M[1,1] = phi_t'(0)
    for k in range(17):
        assert complex(row0[2 * k], row0[2 * k + 1]) == pytest.approx(
            phi0 ** k, abs=1e-8)
    assert complex(row1[2], row1[3]) == pytest.approx(dphi0, abs=1e-8)


def _evolve_counting_flows(tmp_path, capsys, monkeypatch, symbol, *extra):
    calls = []
    path = semiflow._flow_series_path

    def counted(*args, **kwargs):
        calls.append(args[1])
        return path(*args, **kwargs)

    monkeypatch.setattr(semiflow, "_flow_series_path", counted)
    out = tmp_path / "evolve.json"
    code = main(["evolve", "--symbol", symbol, "--f", "1/(1-0.5*z)",
                 "--t", "0.5", "--N", "48", "--out", str(out), *extra])
    capsys.readouterr()
    return code, len(calls), json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("symbol", ["-z", "1-z^2"])
def test_evolve_matrix_out_integrates_the_flow_once(tmp_path, capsys,
                                                    monkeypatch, symbol):
    matrix = tmp_path / "matrix.csv"
    code, flows, doc = _evolve_counting_flows(
        tmp_path, capsys, monkeypatch, symbol, "--matrix-out", str(matrix))
    assert (code, flows) == (0, 1)
    assert matrix.exists() and doc["matrix"] is not None
    code, flows, plain = _evolve_counting_flows(
        tmp_path, capsys, monkeypatch, symbol)
    assert (code, flows) == (0, 1)
    assert plain["coeffs"] == doc["coeffs"]


def test_evolve_matrix_out_needs_degree_one(tmp_path, capsys):
    out = tmp_path / "evolve.json"
    matrix = tmp_path / "matrix.csv"
    assert main(["evolve", "--symbol=-z", "--f", "z", "--N", "0",
                 "--out", str(out), "--matrix-out", str(matrix)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
    assert not matrix.exists()


@pytest.mark.parametrize("argv,transferred", [
    # the Cayley map conjugates i*z on the upper half-plane to i(1-z^2)/2
    (["--symbol", "i*z", "--z0", "0.3,0.2"], lambda z: 0.5j * (1 - z * z)),
    (["--symbol", "-z", "--map", "mobius:1,0,0,1", "--source", "unitdisc",
      "--target", "unitdisc", "--z0", "0.3,0.2"], lambda z: -z),
])
def test_transfer_check_golden(tmp_path, schema, capsys, argv, transferred):
    out = tmp_path / "transfer.json"
    code, summary, (data,) = _run_twice(
        capsys, ["transfer-check", *argv, "--t", "1", "--out", str(out)],
        [out])
    assert code == 0
    doc = json.loads(data)
    jsonschema.validate(doc, schema)
    assert doc == summary
    assert 0 <= doc["residual"] <= 1e-8
    H = parse_symbol(doc["transferred_symbol"])
    for z in (0j, 0.3 + 0.2j, -0.5j):
        assert H.eval(z) == pytest.approx(transferred(z), abs=1e-12)


@pytest.mark.parametrize("symbol", [
    "exp(800*z)", "z*exp(-900*z)", "-z*exp(800*z)"])
def test_classify_overflowing_symbols_get_a_report(tmp_path, schema, capsys,
                                                   symbol):
    # Re e^(800 z) < 0 at points of the disc, so none is a generator;
    # their evaluation overflows in the boundary scan and the escape hunt
    out = tmp_path / "classify.json"
    code, summary, (data,) = _run_twice(
        capsys, ["classify", "--symbol", symbol, "--out", str(out)], [out])
    doc = json.loads(data)
    jsonschema.validate(doc, schema)
    assert doc == summary
    assert (code, doc["status"]) in ((0, "NotGlobal"), (4, "Inconclusive"))


@pytest.mark.parametrize("constants,message", [
    ("i+z,i,-1,1", "argument must not mention z at position 7"),
    ("i,i,-1", "mobius takes 4 constants at position 0"),
    ("i,i,-1,1)*(2", "mobius map needs 4 constants"),
])
def test_transfer_check_map_constants_follow_the_grammar(tmp_path, capsys,
                                                         constants, message):
    out = tmp_path / "transfer.json"
    assert main(["transfer-check", "--symbol", "i*z", "--z0", "0.3,0.2",
                 "--map", "mobius:" + constants, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv,expected", [
    (["flow", "--z0", "0.1,0"], 0),
    (["classify"], 4),
], ids=["flow", "classify"])
def test_overflowing_denominator_gets_a_report(tmp_path, schema, capsys,
                                               argv, expected):
    # the denominator probes of 1/exp(2000 z) overflow on half the circle
    out = tmp_path / "artifact"
    code, summary, (data,) = _run_twice(
        capsys, argv + ["--symbol", "1/exp(2000*z)", "--out", str(out)],
        [out])
    assert code == expected
    if argv[0] == "flow":
        assert summary["status"] == "Completed"
        assert data.decode("utf-8").endswith("# status=Completed horizon=10\n")
    else:
        doc = json.loads(data)
        jsonschema.validate(doc, schema)
        assert doc == summary and doc["status"] == "Inconclusive"
