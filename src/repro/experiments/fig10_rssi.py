"""Fig. 10 — Wi-Fi RSSI of backscatter-generated packets vs distance.

The paper fixes the Bluetooth transmitter and the backscatter tag 1 ft (a)
or 3 ft (b) apart, moves the Wi-Fi receiver perpendicular to the midpoint
of that segment out to 90 ft, and records the RSSI of the 2 Mbps packets
for Bluetooth transmit powers of 0, 4, 10 and 20 dBm.

The reproduction uses the two-hop backscatter link budget with the Fig. 10
geometry; the expected qualitative findings (higher TX power → more range,
1 ft separation beats 3 ft, 20 dBm reaches ≈90 ft) are asserted by the
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.placement import distance_grid, furthest_reach
from repro.api.registry import register, resolve_engine
from repro.ble.devices import TX_POWER_LEVELS_DBM
from repro.channel.geometry import fig10_geometry
from repro.channel.link_budget import BackscatterLinkBudget
from repro.mc.channel import backscatter_link_batch
from repro.plots.figure import Figure, Series

__all__ = ["RssiCurve", "RssiVsDistanceResult", "run", "summarize"]


@dataclass(frozen=True)
class RssiCurve:
    """One curve of Fig. 10: RSSI vs receiver distance at one TX power.

    Attributes
    ----------
    tx_power_dbm:
        Bluetooth transmit power.
    bluetooth_to_tag_feet:
        Separation of the Bluetooth transmitter and the tag.
    distances_feet:
        Receiver offsets from the midpoint (the figure's x-axis).
    rssi_dbm:
        Predicted RSSI at each distance.
    range_feet:
        Furthest distance at which the RSSI stays above the receiver
        sensitivity used in the experiment.
    """

    tx_power_dbm: float
    bluetooth_to_tag_feet: float
    distances_feet: np.ndarray
    rssi_dbm: np.ndarray
    range_feet: float


@dataclass(frozen=True)
class RssiVsDistanceResult:
    """Both panels of Fig. 10 (1 ft and 3 ft separations)."""

    curves: dict[tuple[float, float], RssiCurve]
    sensitivity_dbm: float

    def curve(self, tx_power_dbm: float, separation_feet: float) -> RssiCurve:
        """Convenience accessor for one (power, separation) curve."""
        return self.curves[(tx_power_dbm, separation_feet)]


def _curve_scalar(budget, hop_in, hop_out):
    """Two-hop budget one receiver offset at a time."""
    rssi = np.empty(hop_in.size)
    for index in range(hop_in.size):
        rssi[index] = budget.evaluate(float(hop_in[index]), float(hop_out[index])).rssi_dbm
    return rssi


def _curve_batch(budget, hop_in, hop_out):
    """Whole distance grid in one vectorised link-budget call."""
    return backscatter_link_batch(budget, hop_in, hop_out).rssi_dbm


_ENGINES = {"scalar": _curve_scalar, "batch": _curve_batch}


def run(
    *,
    tx_powers_dbm: tuple[float, ...] = TX_POWER_LEVELS_DBM,
    separations_feet: tuple[float, ...] = (1.0, 3.0),
    max_distance_feet: float = 90.0,
    step_feet: float = 2.0,
    sensitivity_dbm: float = -94.0,
    wifi_rate_mbps: float = 2.0,
    engine: str = "scalar",
) -> RssiVsDistanceResult:
    """Compute the Fig. 10 RSSI curves.

    ``engine="scalar"`` (default) evaluates the two-hop budget one receiver
    offset at a time; ``"batch"`` evaluates each curve's whole distance grid
    in one vectorised :func:`repro.mc.channel.backscatter_link_batch` call.
    The geometry is deterministic (no shadowing), so the two engines agree
    to floating-point precision.
    """
    trace = resolve_engine("fig10", engine, _ENGINES)
    distances = distance_grid(1.0, max_distance_feet, step_feet)
    curves: dict[tuple[float, float], RssiCurve] = {}
    for separation in separations_feet:
        hops = [fig10_geometry(separation, float(offset)) for offset in distances]
        hop_in = np.array([bluetooth.distance_to(tag) for bluetooth, tag, _ in hops])
        hop_out = np.array([tag.distance_to(receiver) for _, tag, receiver in hops])
        for power in tx_powers_dbm:
            budget = BackscatterLinkBudget(
                source_power_dbm=power, receiver_sensitivity_dbm=sensitivity_dbm
            )
            rssi = trace(budget, hop_in, hop_out)
            curves[(power, separation)] = RssiCurve(
                tx_power_dbm=power,
                bluetooth_to_tag_feet=separation,
                distances_feet=distances,
                rssi_dbm=rssi,
                range_feet=furthest_reach(distances, rssi, sensitivity_dbm),
            )
    return RssiVsDistanceResult(curves=curves, sensitivity_dbm=sensitivity_dbm)


def summarize(result: RssiVsDistanceResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    lines = []
    for power, separation in sorted(result.curves, key=lambda key: (key[1], key[0])):
        curve = result.curves[(power, separation)]
        lines.append(
            f"BT-tag {separation:.0f} ft, {power:4.0f} dBm: "
            f"RSSI {curve.rssi_dbm[0]:6.1f} dBm at {curve.distances_feet[0]:.0f} ft, "
            f"{curve.rssi_dbm[-1]:6.1f} dBm at {curve.distances_feet[-1]:.0f} ft, "
            f"range {curve.range_feet:.0f} ft"
        )
    lines.append("paper: ~90 ft of range at 20 dBm with the devices 1 ft apart")
    return lines


def metrics(result: RssiVsDistanceResult) -> dict[str, float]:
    """Scalar headline metrics for cross-campaign aggregation."""
    return {
        f"range_ft_{power:g}dbm_{separation:g}ft": result.curves[(power, separation)].range_feet
        for power, separation in sorted(result.curves, key=lambda key: (key[1], key[0]))
    }


def plot(result: RssiVsDistanceResult) -> Figure:
    """Declarative figure: one RSSI curve per (separation, TX power)."""
    series = []
    x_low, x_high = np.inf, -np.inf
    for power, separation in sorted(result.curves, key=lambda key: (key[1], key[0])):
        curve = result.curves[(power, separation)]
        x_low = min(x_low, float(curve.distances_feet[0]))
        x_high = max(x_high, float(curve.distances_feet[-1]))
        series.append(
            Series(
                label=f"{separation:g} ft sep, {power:g} dBm",
                x=curve.distances_feet,
                y=curve.rssi_dbm,
            )
        )
    series.append(
        Series(
            label=f"sensitivity {result.sensitivity_dbm:g} dBm",
            x=np.array([x_low, x_high]),
            y=np.array([result.sensitivity_dbm, result.sensitivity_dbm]),
        )
    )
    return Figure(
        title="Fig. 10 — Wi-Fi RSSI vs distance",
        xlabel="Receiver distance (ft)",
        ylabel="RSSI (dBm)",
        series=tuple(series),
        caption="Higher Bluetooth TX power and a closer tag keep the backscattered Wi-Fi above sensitivity further out.",
    )


register(
    name="fig10",
    title="Fig. 10 — Wi-Fi RSSI vs distance and Bluetooth TX power",
    run=run,
    engines=_ENGINES,
    artifact="Fig. 10",
    fast_params={"step_feet": 10.0},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
