"""Tests for repro.experiments.base — the ExperimentResult container."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult


@pytest.fixture
def result():
    r = ExperimentResult(name="demo", description="a demo result")
    r.add_table("tbl", ["a", "b"], [(1, 2.5), (3, 4.5)])
    r.add_series("curve1", [1, 2, 3], [1.0, 2.0, 3.0])
    r.add_series("curve2", [1, 2, 3], [3.0, 2.0, 1.0])
    r.add_note("remember this")
    r.scalars["answer"] = 42.0
    return r


class TestRender:
    def test_contains_all_sections(self, result):
        text = result.render()
        assert "demo" in text
        assert "tbl" in text
        assert "curve1" in text
        assert "answer = 42" in text
        assert "note: remember this" in text

    def test_empty_result_renders(self):
        text = ExperimentResult(name="x", description="y").render()
        assert "x" in text


class TestJsonExport:
    def test_roundtrip(self, result, tmp_path):
        out = tmp_path / "r.json"
        result.save_json(out)
        data = json.loads(out.read_text())
        assert data["name"] == "demo"
        assert data["tables"][0]["headers"] == ["a", "b"]
        assert data["tables"][0]["rows"] == [[1, 2.5], [3, 4.5]]
        assert data["series"][0]["name"] == "curve1"
        assert data["scalars"]["answer"] == 42.0
        assert data["notes"] == ["remember this"]

    def test_to_dict_is_json_safe(self, result):
        json.dumps(result.to_dict())  # must not raise

    def test_axis_labels_round_trip_and_are_omitted_when_empty(self, result):
        assert "xlabel" not in result.to_dict() and "ylabel" not in result.to_dict()
        result.xlabel = "m"
        payload = result.to_dict()
        assert payload["xlabel"] == "m" and "ylabel" not in payload
        back = ExperimentResult.from_dict(payload)
        assert (back.xlabel, back.ylabel) == ("m", "")
        assert back.canonical_json() == result.canonical_json()


class TestSvgExport:
    def test_all_series_plotted(self, result, tmp_path):
        out = tmp_path / "fig.svg"
        result.to_svg(out)
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}polyline")) == 2

    def test_axis_labels_come_from_the_result(self, result, tmp_path):
        result.xlabel, result.ylabel = "step t", "m_t"
        out = tmp_path / "fig.svg"
        ExperimentResult.from_dict(result.to_dict()).to_svg(out)
        root = ET.fromstring(out.read_text())
        texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
        assert {"step t", "m_t"} <= texts

    def test_empty_result_raises(self, tmp_path):
        r = ExperimentResult(name="x", description="y")
        with pytest.raises(ExperimentError):
            r.to_svg(tmp_path / "fig.svg")
