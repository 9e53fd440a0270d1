"""Tests for the declarative figure model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.plots import Figure, Series


def _line(label="a", n=5):
    return Series(label=label, x=np.arange(float(n)), y=np.arange(float(n)) ** 2)


class TestSeries:
    def test_coerces_to_float_arrays(self):
        series = Series(label="s", x=[1, 2, 3], y=[4, 5, 6])
        assert series.x.dtype == np.float64
        assert series.y.dtype == np.float64

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="x values"):
            Series(label="s", x=[1.0, 2.0], y=[1.0])

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            Series(label="s", x=[], y=[])

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigurationError, match="numeric"):
            Series(label="s", x=["a"], y=[1.0])


class TestFigure:
    def test_line_figure_requires_x(self):
        with pytest.raises(ConfigurationError, match="needs x"):
            Figure(title="t", xlabel="x", ylabel="y", series=(Series(label="s", y=[1.0]),))

    def test_bar_figure_requires_categories(self):
        with pytest.raises(ConfigurationError, match="categories"):
            Figure(title="t", xlabel="x", ylabel="y", kind="bar", series=(Series(label="s", y=[1.0]),))

    def test_bar_series_must_match_categories(self):
        with pytest.raises(ConfigurationError, match="categories"):
            Figure(
                title="t",
                xlabel="x",
                ylabel="y",
                kind="bar",
                categories=("a", "b"),
                series=(Series(label="s", y=[1.0]),),
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Figure(title="t", xlabel="x", ylabel="y", kind="scatter3d", series=(_line(),))

    def test_no_series_rejected(self):
        with pytest.raises(ConfigurationError, match="no series"):
            Figure(title="t", xlabel="x", ylabel="y", series=())

    def test_valid_figure_builds(self):
        figure = Figure(title="t", xlabel="x", ylabel="y", series=(_line(), _line("b")))
        assert figure.kind == "line"
        assert len(figure.series) == 2
