"""Fig. 14 — CDF of ZigBee RSSI for backscatter-generated 802.15.4 packets.

The paper backscatters a TI CC2650's advertisements on BLE channel 38 into
ZigBee channel 14 (2420 MHz) and receives the packets with a commodity TI
CC2531 placed at five locations up to 15 ft from the tag, plotting the CDF
of the reported RSSI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.placement import empirical_cdf, shadowed_backscatter_budget
from repro.api.registry import register, resolve_engine
from repro.channel.geometry import feet_to_meters
from repro.mc.channel import backscatter_link_batch
from repro.plots.figure import Figure, Series

__all__ = ["ZigbeeRssiResult", "run", "summarize"]


@dataclass(frozen=True)
class ZigbeeRssiResult:
    """The ZigBee RSSI samples and their CDF.

    Attributes
    ----------
    locations_feet:
        Tag → receiver distances of the measurement locations.
    rssi_samples_dbm:
        All RSSI samples (several packets per location, with shadowing).
    cdf:
        (sorted RSSI values, cumulative fraction).
    median_rssi_dbm:
        Median of the samples.
    detectable_fraction:
        Fraction of samples above the CC2531's sensitivity (≈−97 dBm, and
        the paper notes ZigBee's noise sensitivity is better than Wi-Fi's).
    """

    locations_feet: np.ndarray
    rssi_samples_dbm: np.ndarray
    cdf: tuple[np.ndarray, np.ndarray]
    median_rssi_dbm: float
    detectable_fraction: float


def _sample_scalar(budget, locations_feet, bluetooth_to_tag_feet, packets_per_location, rng):
    """Per-packet loop, bit-identical to historical seeds."""
    samples: list[float] = []
    for distance in locations_feet:
        for _ in range(packets_per_location):
            link = budget.evaluate(
                feet_to_meters(bluetooth_to_tag_feet), feet_to_meters(float(distance)), rng=rng
            )
            samples.append(link.rssi_dbm)
    return np.array(samples)


def _sample_batch(budget, locations_feet, bluetooth_to_tag_feet, packets_per_location, rng):
    """Every (location, packet) link realisation in one vectorised call."""
    distances = np.repeat(np.asarray(locations_feet, dtype=float), packets_per_location)
    link = backscatter_link_batch(
        budget, feet_to_meters(bluetooth_to_tag_feet), feet_to_meters(distances), rng=rng
    )
    return link.rssi_dbm


_ENGINES = {"scalar": _sample_scalar, "batch": _sample_batch}


def run(
    *,
    locations_feet: tuple[float, ...] = (3.0, 6.0, 9.0, 12.0, 15.0),
    bluetooth_to_tag_feet: float = 2.0,
    tx_power_dbm: float = 0.0,
    packets_per_location: int = 40,
    receiver_sensitivity_dbm: float = -97.0,
    seed: int = 14,
    engine: str = "scalar",
) -> ZigbeeRssiResult:
    """Simulate the Fig. 14 RSSI CDF.

    ``engine="scalar"`` (default) keeps the original per-packet loop,
    bit-identical to historical seeds; ``"batch"`` evaluates every
    (location, packet) link realisation in one vectorised :mod:`repro.mc`
    call.
    """
    sample = resolve_engine("fig14", engine, _ENGINES)
    rng = np.random.default_rng(seed)
    budget = shadowed_backscatter_budget(
        tx_power_dbm,
        shadowing_sigma_db=3.0,
        noise_bandwidth_hz=2e6,
        receiver_sensitivity_dbm=receiver_sensitivity_dbm,
    )
    rssi = sample(budget, locations_feet, bluetooth_to_tag_feet, packets_per_location, rng)
    return ZigbeeRssiResult(
        locations_feet=np.array(locations_feet),
        rssi_samples_dbm=rssi,
        cdf=empirical_cdf(rssi),
        median_rssi_dbm=float(np.median(rssi)),
        detectable_fraction=float(np.mean(rssi >= receiver_sensitivity_dbm)),
    )


def summarize(result: ZigbeeRssiResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    values, _ = result.cdf
    return [
        f"RSSI spans {values[0]:.1f} to {values[-1]:.1f} dBm, median {result.median_rssi_dbm:.1f} dBm, "
        f"{100 * result.detectable_fraction:.0f}% of packets above CC2531 sensitivity",
        "paper: RSSI between roughly -95 and -55 dBm over five locations up to 15 ft",
    ]


def metrics(result: ZigbeeRssiResult) -> dict[str, float]:
    """Scalar headline metrics for cross-campaign aggregation."""
    return {
        "median_rssi_dbm": result.median_rssi_dbm,
        "detectable_fraction": result.detectable_fraction,
    }


def plot(result: ZigbeeRssiResult) -> Figure:
    """Declarative figure: the empirical RSSI CDF across all samples."""
    values, fractions = result.cdf
    return Figure(
        title="Fig. 14 — ZigBee RSSI CDF",
        xlabel="RSSI (dBm)",
        ylabel="CDF",
        kind="cdf",
        series=(Series(label="all locations", x=values, y=fractions),),
        caption="Backscatter-generated 802.15.4 packets span roughly -95 to -55 dBm across the deployment.",
    )


register(
    name="fig14",
    title="Fig. 14 — ZigBee RSSI CDF for backscatter-generated 802.15.4 packets",
    run=run,
    engines=_ENGINES,
    artifact="Fig. 14",
    fast_params={"packets_per_location": 10},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
