"""Fig. 13 — BER of the 802.11g → low-power receiver downlink vs distance.

A Wi-Fi device transmits 36 Mbps OFDM packets whose payload was crafted
(with a known scrambler seed) to AM-encode a repeating bit pattern; the
tag's peak-detector receiver is moved away and the bit error rate recorded.
The paper reports BER below 0.01 out to ≈18 ft with an off-the-shelf
receiver whose sensitivity is −32 dBm at 160 kbps, degrading quickly
beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.placement import distance_grid, furthest_reach
from repro.api.registry import register, resolve_engine
from repro.channel.geometry import feet_to_meters
from repro.core.downlink import InterscatterDownlink
from repro.plots.figure import Figure, Series

__all__ = ["DownlinkBerResult", "run", "summarize"]


@dataclass(frozen=True)
class DownlinkBerResult:
    """BER vs distance series of Fig. 13.

    Attributes
    ----------
    distances_feet:
        Wi-Fi-transmitter → tag distances.
    ber:
        Bit error rate at each distance (analytic model + Monte-Carlo).
    rssi_dbm:
        Received power at the tag at each distance.
    range_below_1pct_feet:
        Furthest distance with BER < 0.01.
    """

    distances_feet: np.ndarray
    ber: np.ndarray
    rssi_dbm: np.ndarray
    range_below_1pct_feet: float


def _ber_scalar(downlink, distances, tx_power_dbm, message_bits, rng):
    """Per-distance simulate_link loop, bit-identical to historical seeds."""
    ber = np.empty(distances.size)
    rssi = np.empty(distances.size)
    bits = rng.integers(0, 2, message_bits).astype(np.uint8)
    for index, distance in enumerate(distances):
        result = downlink.simulate_link(
            bits, feet_to_meters(float(distance)), tx_power_dbm=tx_power_dbm, rng=rng
        )
        ber[index] = result.bit_error_rate
        rssi[index] = result.rssi_dbm if result.rssi_dbm is not None else np.nan
    return ber, rssi


def _ber_batch(downlink, distances, tx_power_dbm, message_bits, rng):
    """One vectorised binomial draw over the analytic BER curve."""
    rng.integers(0, 2, message_bits)  # consume the message draw like scalar
    analytic, rssi = downlink.link_bit_error_rate(feet_to_meters(distances), tx_power_dbm=tx_power_dbm)
    ber = rng.binomial(message_bits, analytic, size=distances.size) / message_bits
    return ber, rssi


_ENGINES = {"scalar": _ber_scalar, "batch": _ber_batch}


def run(
    *,
    max_distance_feet: float = 26.0,
    step_feet: float = 1.0,
    tx_power_dbm: float = 20.0,
    message_bits: int = 512,
    seed: int = 13,
    engine: str = "scalar",
) -> DownlinkBerResult:
    """Evaluate the downlink BER across distance.

    ``engine="scalar"`` (default) keeps the original per-distance
    :meth:`InterscatterDownlink.simulate_link` loop, bit-identical to
    historical seeds; ``"batch"`` draws every distance's bit errors as one
    vectorised binomial over the analytic BER curve.
    """
    measure = resolve_engine("fig13", engine, _ENGINES)
    rng = np.random.default_rng(seed)
    downlink = InterscatterDownlink(rng=rng)
    distances = distance_grid(1.0, max_distance_feet, step_feet)
    ber, rssi = measure(downlink, distances, tx_power_dbm, message_bits, rng)
    return DownlinkBerResult(
        distances_feet=distances,
        ber=ber,
        rssi_dbm=rssi,
        range_below_1pct_feet=furthest_reach(distances, ber, 0.01, below=True, strict=True),
    )


def summarize(result: DownlinkBerResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    return [
        f"BER < 1% out to {result.range_below_1pct_feet:.0f} ft, "
        f"rising to {result.ber[-1]:.2f} at {result.distances_feet[-1]:.0f} ft",
        "paper: BER below 0.01 out to ~18 ft, degrading quickly beyond",
    ]


def metrics(result: DownlinkBerResult) -> dict[str, float]:
    """Scalar headline metrics for cross-campaign aggregation."""
    return {
        "range_below_1pct_feet": result.range_below_1pct_feet,
        "max_ber": float(np.max(result.ber)),
    }


def plot(result: DownlinkBerResult) -> Figure:
    """Declarative figure: downlink BER against distance with the 1% line."""
    edges = np.array([float(result.distances_feet[0]), float(result.distances_feet[-1])])
    return Figure(
        title="Fig. 13 — downlink BER vs distance",
        xlabel="Wi-Fi transmitter to tag distance (ft)",
        ylabel="Bit error rate",
        series=(
            Series(label="measured BER", x=result.distances_feet, y=result.ber),
            Series(label="1% threshold", x=edges, y=np.array([0.01, 0.01])),
        ),
        caption="The AM downlink stays below 1% BER out to roughly the paper's ~18 ft, degrading quickly beyond.",
    )


register(
    name="fig13",
    title="Fig. 13 — downlink BER vs distance (802.11g AM → peak detector)",
    run=run,
    engines=_ENGINES,
    artifact="Fig. 13",
    fast_params={"step_feet": 2.0, "message_bits": 256},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
