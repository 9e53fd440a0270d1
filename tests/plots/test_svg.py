"""Tests for the built-in deterministic SVG backend."""

from __future__ import annotations

import math
import xml.dom.minidom

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.plots import Figure, Series, render_figure, render_svg
from repro.plots.svg import MAX_POINTS_PER_SERIES


def _figure(**overrides):
    defaults = dict(
        title="A title",
        xlabel="x axis",
        ylabel="y axis",
        series=(
            Series(label="first", x=np.arange(10.0), y=np.arange(10.0) ** 2),
            Series(label="second", x=np.arange(10.0), y=np.arange(10.0)),
        ),
    )
    defaults.update(overrides)
    return Figure(**defaults)


def _parse(data: bytes) -> xml.dom.minidom.Document:
    return xml.dom.minidom.parseString(data.decode("utf-8"))


class TestDeterminism:
    def test_double_render_is_byte_identical(self):
        figure = _figure()
        assert render_svg(figure) == render_svg(figure)

    def test_output_is_valid_xml_with_series_polylines(self):
        document = _parse(render_svg(_figure()))
        assert len(document.getElementsByTagName("polyline")) == 2

    def test_coordinates_stay_inside_canvas(self):
        document = _parse(render_svg(_figure()))
        for polyline in document.getElementsByTagName("polyline"):
            for pair in polyline.getAttribute("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 720 and 0 <= y <= 440


class TestContent:
    def test_labels_and_title_appear(self):
        text = render_svg(_figure()).decode("utf-8")
        for expected in ("A title", "x axis", "y axis", "first", "second"):
            assert expected in text

    def test_xml_special_characters_escaped(self):
        figure = _figure(title="a < b & c")
        text = render_svg(figure).decode("utf-8")
        assert "a &lt; b &amp; c" in text
        _parse(render_svg(figure))  # still valid XML

    def test_bar_figure_renders_rects_per_value(self):
        figure = Figure(
            title="bars",
            xlabel="x",
            ylabel="y",
            kind="bar",
            categories=("a", "b", "c"),
            series=(
                Series(label="s1", y=[1.0, 2.0, 3.0]),
                Series(label="s2", y=[3.0, 2.0, 1.0]),
            ),
        )
        document = _parse(render_svg(figure))
        rects = document.getElementsByTagName("rect")
        # 6 bars + frame + background + legend box.
        assert len(rects) == 9

    def test_cdf_renders_step_curve(self):
        values = np.array([0.1, 0.2, 0.4])
        fractions = np.array([1 / 3, 2 / 3, 1.0])
        figure = Figure(
            title="cdf",
            xlabel="v",
            ylabel="F",
            kind="cdf",
            series=(Series(label="", x=values, y=fractions),),
        )
        document = _parse(render_svg(figure))
        (polyline,) = document.getElementsByTagName("polyline")
        # Post-steps double the points (minus one).
        assert len(polyline.getAttribute("points").split()) == 2 * values.size - 1

    def test_nan_samples_split_the_polyline(self):
        y = np.array([1.0, 2.0, math.nan, 4.0, 5.0])
        figure = _figure(series=(Series(label="gap", x=np.arange(5.0), y=y),))
        document = _parse(render_svg(figure))
        assert len(document.getElementsByTagName("polyline")) == 2

    def test_long_series_are_decimated(self):
        n = MAX_POINTS_PER_SERIES * 4
        figure = _figure(series=(Series(label="long", x=np.arange(float(n)), y=np.zeros(n)),))
        document = _parse(render_svg(figure))
        (polyline,) = document.getElementsByTagName("polyline")
        assert len(polyline.getAttribute("points").split()) <= MAX_POINTS_PER_SERIES

    def test_constant_series_still_renders(self):
        figure = _figure(series=(Series(label="flat", x=np.arange(3.0), y=np.full(3, 7.0)),))
        _parse(render_svg(figure))

    def test_all_nan_series_rejected(self):
        figure = _figure(series=(Series(label="nan", x=np.arange(3.0), y=np.full(3, math.nan)),))
        with pytest.raises(ConfigurationError, match="no finite"):
            render_svg(figure)



class TestRenderDispatch:
    def test_svg_format_uses_builtin_backend(self):
        assert render_figure(_figure(), format="svg").startswith(b"<?xml")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            render_figure(_figure(), format="pdf")

    def test_non_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="Figure"):
            render_figure("not a figure")  # type: ignore[arg-type]

    def test_png_requires_matplotlib(self):
        from repro.plots import matplotlib_available

        if matplotlib_available():
            data = render_figure(_figure(), format="png")
            assert data.startswith(b"\x89PNG")
            assert data == render_figure(_figure(), format="png")
        else:
            with pytest.raises(ConfigurationError, match="matplotlib is not installed"):
                render_figure(_figure(), format="png")
