"""Shared placement and sweep-geometry helpers for the figure drivers.

Every RSSI/BER-vs-distance driver (fig10, fig13, fig14, fig15, fig16,
fig17) used to roll its own inclusive ``np.arange`` grid, its own
"furthest point still above/below the threshold" scan, and — for the
shadowed Monte-Carlo figures — its own
:class:`~repro.channel.link_budget.BackscatterLinkBudget` construction
around a log-normal :class:`~repro.channel.propagation.PathLossModel`.
These helpers hoist that boilerplate into one place so the drivers state
only their physics.
"""

from __future__ import annotations

import numpy as np

from repro.channel.link_budget import BackscatterLinkBudget
from repro.channel.noise import NoiseModel
from repro.channel.propagation import PathLossModel
from repro.exceptions import ConfigurationError
from repro.utils.knobs import finite_knob, finite_positive_knob

__all__ = ["MAX_GRID_POINTS", "distance_grid", "empirical_cdf", "furthest_reach", "shadowed_backscatter_budget"]


#: Most points a sweep grid may hold: a sweep evaluates its whole grid as
#: one array.  The largest registered default grid, fig10's, has 46.
MAX_GRID_POINTS = 10_000


def distance_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive sweep grid: ``start, start+step, ..., stop`` (the figures' x-axes).

    A step that is not a finite positive number, a stop that is not
    finite, a stop below *start*, or a grid of more than
    :data:`MAX_GRID_POINTS` points raises
    :class:`~repro.exceptions.ConfigurationError`: no sweep can use the
    grid it would give.
    """
    finite_positive_knob("distance grid step", step)
    if finite_knob("distance grid stop", stop) < start:
        raise ConfigurationError(f"distance grid stop {stop!r} lies below its start {start!r}")
    # np.arange's own length, counted before it allocates anything.
    points = np.ceil((stop + step - start) / step)
    if points > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"distance grid {start!r}..{stop!r} in steps of {step!r} has {points:.6g} points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    return np.arange(start, stop + step, step)


def furthest_reach(
    grid: np.ndarray, values: np.ndarray, threshold: float, *, below: bool = False, strict: bool = False
) -> float:
    """Furthest grid point whose value clears *threshold*.

    With ``below=False`` (the RSSI figures) a point clears when
    ``value >= threshold``; with ``below=True`` (the BER figures) when
    ``value <= threshold``.  ``strict=True`` excludes exact threshold hits
    (``<`` / ``>``).  Returns ``0.0`` when no point clears.
    """
    if below:
        mask = values < threshold if strict else values <= threshold
    else:
        mask = values > threshold if strict else values >= threshold
    indices = np.where(mask)[0]
    return float(grid[indices[-1]]) if indices.size else 0.0


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative fraction) — the CDF the figure panels plot."""
    values = np.sort(np.asarray(samples))
    fractions = np.arange(1, values.size + 1) / values.size
    return values, fractions


def shadowed_backscatter_budget(
    tx_power_dbm: float,
    *,
    shadowing_sigma_db: float,
    noise_bandwidth_hz: float | None = None,
    receiver_sensitivity_dbm: float | None = None,
) -> BackscatterLinkBudget:
    """Two-hop budget with log-normal shadowing, as the Monte-Carlo figures use it."""
    kwargs: dict = {
        "source_power_dbm": tx_power_dbm,
        "path_loss": PathLossModel(shadowing_sigma_db=shadowing_sigma_db),
    }
    if noise_bandwidth_hz is not None:
        kwargs["noise"] = NoiseModel(bandwidth_hz=noise_bandwidth_hz)
    if receiver_sensitivity_dbm is not None:
        kwargs["receiver_sensitivity_dbm"] = receiver_sensitivity_dbm
    return BackscatterLinkBudget(**kwargs)
