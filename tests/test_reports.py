import json

import jsonschema
import pytest

from ptlab.reports import (
    ExperimentSpec,
    make_report,
    validate_report,
    write_csv,
    write_report,
)


def test_spec_roundtrip():
    spec = ExperimentSpec("demo", {"k": 5, "p": 0.3}, 42, {"graph": "g.el"})
    again = ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again == spec


def test_make_report_validates():
    spec = ExperimentSpec("demo", {}, 0)
    report = make_report("test", spec, [{"name": "g", "n": 5, "m": 4}],
                         {"value": 1})
    validate_report(report)
    assert report["schema_version"] == "1"


def test_bad_report_rejected():
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"schema_version": "2", "command": "x", "spec": {},
                         "graphs": [], "results": {}, "timings": {}})
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"schema_version": "1"})


def test_write_report_validates(tmp_path):
    # make_report builds; the write is where a report is checked, once
    report = make_report("test", ExperimentSpec("demo", {}, 7), [{"name": "g", "n": -1, "m": 0}],
                         {})
    path = tmp_path / "r.json"
    with pytest.raises(jsonschema.ValidationError):
        write_report(report, path)
    assert not path.exists()


def test_write_report_and_csv(tmp_path):
    spec = ExperimentSpec("demo", {}, 7)
    report = make_report("test", spec, [], {"rows": [1, 2]})
    path = tmp_path / "r.json"
    write_report(report, path)
    assert json.loads(path.read_text())["spec"]["seed"] == 7

    csv_path = tmp_path / "r.csv"
    write_csv([[1, 0.5], [2, 0.75]], ["budget", "rate"], csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines == ["budget,rate", "1,0.5", "2,0.75"]
