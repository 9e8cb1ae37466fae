import json
from importlib import resources

import jsonschema
import pytest

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
