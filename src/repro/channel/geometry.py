"""Geometry helpers: positions, distances and unit conversions.

The paper reports distances in feet and inches; the propagation models work
in metres.  The Fig. 10 experiment places the Wi-Fi receiver perpendicular
to the midpoint of the Bluetooth-transmitter ↔ tag segment, which
:func:`fig10_geometry` encodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FEET_PER_METER",
    "Position",
    "feet_to_meters",
    "inches_to_meters",
    "fig10_geometry",
]

#: Feet in one metre.
FEET_PER_METER = 3.280839895


def feet_to_meters(feet: float) -> float:
    """Convert feet to metres."""
    return feet / FEET_PER_METER


def inches_to_meters(inches: float) -> float:
    """Convert inches to metres."""
    return inches * 0.0254


@dataclass(frozen=True)
class Position:
    """A point in a 2-D lab coordinate system, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres."""
        return float(np.hypot(self.x - other.x, self.y - other.y))


def fig10_geometry(
    bluetooth_to_tag_feet: float, receiver_offset_feet: float
) -> tuple[Position, Position, Position]:
    """Positions for the Fig. 10 measurement geometry.

    The Bluetooth transmitter and the tag sit ``bluetooth_to_tag_feet``
    apart on the x-axis; the Wi-Fi receiver moves perpendicular from the
    midpoint of that segment.

    Returns
    -------
    (bluetooth, tag, receiver):
        Positions in metres.
    """
    separation_m = feet_to_meters(bluetooth_to_tag_feet)
    offset_m = feet_to_meters(receiver_offset_feet)
    bluetooth = Position(0.0, 0.0)
    tag = Position(separation_m, 0.0)
    receiver = Position(separation_m / 2.0, offset_m)
    return bluetooth, tag, receiver
