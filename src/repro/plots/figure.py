"""The declarative figure model plot hooks produce.

Contract: a driver's ``plot`` hook maps its payload dataclass to one
:class:`Figure` — plain data (numpy arrays, strings, no backend objects)
describing *what* to draw, never *how*.  Backends
(:mod:`repro.plots.svg`, :mod:`repro.plots.mpl`) turn a figure into
bytes; because the model carries no timestamps, handles or environment
state, the same figure always renders to the same bytes on a given
backend.  Three kinds cover the paper's figure shapes: ``line`` (Figs.
6–10, 13, 15–17 and the MAC-scaling sweep), ``cdf`` (Figs. 11 and 14,
rendered as empirical step curves) and ``bar`` (Fig. 12 and the tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Figure", "Series", "KINDS"]

#: Figure kinds the backends know how to draw.
KINDS = ("line", "cdf", "bar")


def _as_float_array(name: str, values: Any) -> np.ndarray:
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"series {name} must be numeric, got {type(values).__name__}") from exc
    if array.ndim != 1:
        raise ConfigurationError(f"series {name} must be 1-D, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class Series:
    """One plotted data series.

    Attributes
    ----------
    label:
        Legend entry (empty string hides the series from the legend).
    y:
        The values.  For ``bar`` figures, one value per category.
    x:
        The abscissae for ``line``/``cdf`` figures; ``None`` for bars.
    """

    label: str
    y: np.ndarray
    x: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_array(f"{self.label!r} y", self.y))
        if self.x is not None:
            object.__setattr__(self, "x", _as_float_array(f"{self.label!r} x", self.x))
            if self.x.size != self.y.size:
                raise ConfigurationError(
                    f"series {self.label!r} has {self.x.size} x values but {self.y.size} y values"
                )
        if self.y.size == 0:
            raise ConfigurationError(f"series {self.label!r} is empty")


@dataclass(frozen=True)
class Figure:
    """One renderable figure: titled axes plus a tuple of series.

    Attributes
    ----------
    title / xlabel / ylabel:
        Axis decorations (plain text).
    kind:
        ``line``, ``cdf`` (step-rendered empirical CDF) or ``bar``.
    series:
        The data; ``line``/``cdf`` series carry ``x``, ``bar`` series
        carry one ``y`` value per entry of ``categories``.
    categories:
        Category labels for ``bar`` figures (x-axis groups).
    caption:
        One-line description shown under the figure in the gallery.
    """

    title: str
    xlabel: str
    ylabel: str
    series: tuple[Series, ...]
    kind: str = "line"
    categories: tuple[str, ...] = field(default_factory=tuple)
    caption: str = ""

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        object.__setattr__(self, "categories", tuple(str(c) for c in self.categories))
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown figure kind {self.kind!r}; known: {KINDS}")
        if not self.series:
            raise ConfigurationError(f"figure {self.title!r} has no series")
        if self.kind == "bar":
            if not self.categories:
                raise ConfigurationError(f"bar figure {self.title!r} needs categories")
            for series in self.series:
                if series.y.size != len(self.categories):
                    raise ConfigurationError(
                        f"bar series {series.label!r} has {series.y.size} values for "
                        f"{len(self.categories)} categories"
                    )
        else:
            for series in self.series:
                if series.x is None:
                    raise ConfigurationError(
                        f"{self.kind} series {series.label!r} in figure {self.title!r} needs x values"
                    )
