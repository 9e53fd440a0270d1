"""Optional matplotlib backend for :class:`~repro.plots.figure.Figure`.

Contract: matplotlib is **not** a dependency of this package — it is
imported lazily inside :func:`render_matplotlib` and its absence raises a
:class:`~repro.exceptions.ConfigurationError` telling the caller to use
the built-in SVG backend instead (``--format svg``).  When matplotlib is
present, rendering is headless (the ``Agg`` backend is forced, never a
GUI) and determinism-hardened: a fixed rcParams profile, a constant
``svg.hashsalt`` and suppressed date/creator metadata, so repeated
renders of one figure produce identical bytes for a given matplotlib
version.  PNG output is only available through this backend.
"""

from __future__ import annotations

import io

import numpy as np

from repro.exceptions import ConfigurationError
from repro.plots.figure import Figure

__all__ = ["matplotlib_available", "render_matplotlib"]

#: rcParams pinned for reproducible output (no user style sheets).
_RC_PARAMS = {
    "figure.figsize": (7.2, 4.4),
    "figure.dpi": 100,
    "savefig.dpi": 100,
    "font.family": "sans-serif",
    "font.size": 11,
    "axes.grid": True,
    "grid.color": "#e0e0e0",
    "svg.hashsalt": "repro-plots",
    "path.simplify": False,
}


def matplotlib_available() -> bool:
    """Whether the optional matplotlib backend can be used."""
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True


def _require_matplotlib():
    try:
        import matplotlib
    except ImportError as exc:
        raise ConfigurationError(
            "matplotlib is not installed; install it for PNG output or use the "
            "built-in deterministic SVG backend (--format svg)"
        ) from exc
    matplotlib.use("Agg", force=True)
    import matplotlib.pyplot as plt

    return plt


def render_matplotlib(figure: Figure, *, format: str = "png") -> bytes:
    """Render *figure* to PNG or SVG bytes with headless matplotlib."""
    if format not in ("png", "svg"):
        raise ConfigurationError(f"unsupported matplotlib format {format!r}; use 'png' or 'svg'")
    plt = _require_matplotlib()
    import matplotlib

    with matplotlib.rc_context(_RC_PARAMS):
        fig, axes = plt.subplots()
        try:
            if figure.kind == "bar":
                groups = len(figure.series)
                width = 0.8 / groups
                positions = np.arange(len(figure.categories), dtype=float)
                for index, series in enumerate(figure.series):
                    offset = (index - (groups - 1) / 2.0) * width
                    axes.bar(positions + offset, series.y, width=width, label=series.label or None)
                axes.set_xticks(positions)
                axes.set_xticklabels(figure.categories)
            else:
                for series in figure.series:
                    if figure.kind == "cdf":
                        order = np.argsort(series.x, kind="stable")
                        axes.step(
                            series.x[order], series.y[order], where="post", label=series.label or None
                        )
                    else:
                        axes.plot(series.x, series.y, label=series.label or None)
            axes.set_title(figure.title)
            axes.set_xlabel(figure.xlabel)
            axes.set_ylabel(figure.ylabel)
            if any(series.label for series in figure.series) and len(figure.series) > 1:
                axes.legend(loc="best")
            buffer = io.BytesIO()
            # Date/creator metadata varies per run; null it out so bytes
            # depend only on the figure and the matplotlib version.
            metadata = {"Date": None} if format == "svg" else {"Software": None}
            fig.savefig(buffer, format=format, metadata=metadata)
            return buffer.getvalue()
        finally:
            plt.close(fig)
