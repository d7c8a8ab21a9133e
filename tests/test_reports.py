import pytest

from nillab.moebius import CorrelationPoint, CorrelationReport
from nillab.reports import write_correlation_csv, write_json


def test_failed_write_leaves_previous_file_and_no_temp(tmp_path):
    path = tmp_path / "correlation.csv"
    write_correlation_csv(path, CorrelationReport((CorrelationPoint(10, 0.5 + 0.25j),)))
    before = path.read_bytes()
    assert before == b"N,re,im,modulus\n10,0.5,0.25,0.55901699437494745\n"
    # the second row fails to format after the header and first row are written
    broken = CorrelationReport((CorrelationPoint(10, 0.5j), CorrelationPoint(20, None)))
    with pytest.raises(AttributeError):
        write_correlation_csv(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["correlation.csv"]


def test_write_replaces_existing_file(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"b": 1, "a": [0.5]})
    write_json(path, {"b": 2})
    assert path.read_text(encoding="utf-8") == '{\n  "b": 2\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
