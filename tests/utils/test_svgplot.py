"""Tests for repro.utils.svgplot."""

import math
import xml.etree.ElementTree as ET

import pytest

from repro.errors import ReproError
from repro.utils.svgplot import LinePlot, _nice_ticks

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text: str) -> ET.Element:
    return ET.fromstring(svg_text)


class TestNiceTicks:
    def test_unit_interval(self):
        ticks = _nice_ticks(0.0, 1.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 1.0
        assert len(ticks) >= 3
        steps = {round(b - a, 12) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1  # uniform spacing

    def test_125_progression(self):
        step = _nice_ticks(0, 100)[1] - _nice_ticks(0, 100)[0]
        mantissa = step / (10 ** math.floor(math.log10(step)))
        assert round(mantissa, 6) in (1.0, 2.0, 5.0)

    def test_degenerate_range(self):
        assert _nice_ticks(5.0, 5.0)  # must not raise or return empty


class TestLinePlot:
    def test_valid_xml_with_polylines(self):
        plot = LinePlot(title="t", xlabel="x", ylabel="y")
        plot.add_series("a", [1, 2, 3], [1.0, 4.0, 9.0])
        plot.add_series("b", [1, 2, 3], [2.0, 3.0, 4.0], dashed=True)
        root = parse(plot.render())
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
        assert "a" in texts and "b" in texts and "t" in texts

    def test_points_inside_canvas(self):
        plot = LinePlot(width=400, height=300)
        plot.add_series("s", [0, 50, 100], [-5.0, 0.0, 5.0])
        root = parse(plot.render())
        for poly in root.findall(f".//{SVG_NS}polyline"):
            for pair in poly.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 400 and 0 <= y <= 300

    def test_empty_plot_rejected(self):
        with pytest.raises(ReproError):
            LinePlot().render()

    def test_length_mismatch_rejected(self):
        plot = LinePlot()
        with pytest.raises(ReproError):
            plot.add_series("s", [1], [1.0, 2.0])

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ReproError):
            LinePlot(width=10, height=10)

    def test_title_escaping(self):
        plot = LinePlot(title="a < b & c")
        plot.add_series("s", [1, 2], [1.0, 2.0])
        root = parse(plot.render())  # would raise on bad escaping
        texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
        assert "a < b & c" in texts

    def test_save(self, tmp_path):
        plot = LinePlot()
        plot.add_series("s", [1, 2], [3.0, 4.0])
        out = tmp_path / "plot.svg"
        plot.save(out)
        assert out.read_text().startswith("<svg")

    def test_constant_series_renders(self):
        plot = LinePlot()
        plot.add_series("flat", [1, 2, 3], [5.0, 5.0, 5.0])
        parse(plot.render())
