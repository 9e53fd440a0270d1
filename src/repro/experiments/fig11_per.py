"""Fig. 11 — packet error rate CDF of backscatter-generated Wi-Fi packets.

The paper transmits 200 unique sequence numbers in a loop at 2 and 11 Mbps
(payloads of 31 and 77 bytes so each packet fits in one advertisement) and
plots the CDF of the packet error rate observed across the whole range of
RSSI values seen in the deployment.  The headline findings: the two rates
have similar loss because both carry the same 1 Mbps preamble/header and
the payloads are short, and roughly 30 % of locations show PER > 0.3 at the
lowest RSSIs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.placement import empirical_cdf, shadowed_backscatter_budget
from repro.api.registry import register, resolve_engine
from repro.channel.error_models import wifi_packet_error_rate
from repro.channel.geometry import feet_to_meters
from repro.mc.channel import backscatter_link_batch
from repro.plots.figure import Figure, Series

__all__ = ["PerCdfResult", "run", "summarize"]


@dataclass(frozen=True)
class PerCdfResult:
    """PER samples and CDFs for the two rates.

    Attributes
    ----------
    per_by_rate:
        Rate (Mbps) → array of PER values, one per simulated location.
    cdf_by_rate:
        Rate → (sorted PER values, cumulative fraction) pairs.
    median_per:
        Rate → median PER.
    mean_rate_gap:
        Mean absolute difference between the 2 and 11 Mbps PERs at the same
        locations (small = the two curves are similar, as in the paper).
    """

    per_by_rate: dict[float, np.ndarray]
    cdf_by_rate: dict[float, tuple[np.ndarray, np.ndarray]]
    median_per: dict[float, float]
    mean_rate_gap: float


def _per_scalar(budget, distances, rates_mbps, payload_bytes, num_packets, rng):
    """One-location-at-a-time loop, bit-identical to historical seeds."""
    per_by_rate = {rate: np.empty(distances.size) for rate in rates_mbps}
    for index, distance in enumerate(distances):
        link = budget.evaluate(feet_to_meters(1.0), feet_to_meters(float(distance)), rng=rng)
        for rate in rates_mbps:
            analytic = wifi_packet_error_rate(
                link.snr_db, rate_mbps=rate, payload_bytes=payload_bytes[rate]
            )
            losses = rng.random(num_packets) < analytic
            per_by_rate[rate][index] = float(np.mean(losses))
    return per_by_rate


def _per_batch(budget, distances, rates_mbps, payload_bytes, num_packets, rng):
    """Whole-array link budgets and packet draws (≥10× faster)."""
    link = backscatter_link_batch(budget, feet_to_meters(1.0), feet_to_meters(distances), rng=rng)
    per_by_rate = {}
    for rate in rates_mbps:
        analytic = wifi_packet_error_rate(link.snr_db, rate_mbps=rate, payload_bytes=payload_bytes[rate])
        per_by_rate[rate] = rng.binomial(num_packets, analytic) / num_packets
    return per_by_rate


_ENGINES = {"scalar": _per_scalar, "batch": _per_batch}


def run(
    *,
    rates_mbps: tuple[float, ...] = (2.0, 11.0),
    payload_bytes: dict[float, int] | None = None,
    num_locations: int = 60,
    num_packets: int = 200,
    tx_power_dbm: float = 4.0,
    max_distance_feet: float = 60.0,
    seed: int = 11,
    engine: str = "scalar",
) -> PerCdfResult:
    """Simulate the Fig. 11 PER CDF.

    Locations are drawn uniformly over the deployment range with log-normal
    shadowing so the full spread of RSSI values the paper reports is
    represented; at each location the analytic PER for both rates is
    evaluated and a 200-packet loop is simulated.

    ``engine`` selects the Monte-Carlo substrate: ``"scalar"`` (default)
    keeps the original one-location-at-a-time loop, bit-identical to
    historical seeds; ``"batch"`` evaluates every location's link budget and
    packet draws in whole-array :mod:`repro.mc` operations (≥10× faster).
    The two engines draw from the RNG in different orders, so their results
    agree only up to Monte-Carlo noise.
    """
    measure = resolve_engine("fig11", engine, _ENGINES)
    if payload_bytes is None:
        payload_bytes = {2.0: 31, 11.0: 77}
    rng = np.random.default_rng(seed)
    budget = shadowed_backscatter_budget(tx_power_dbm, shadowing_sigma_db=4.0)

    distances = rng.uniform(3.0, max_distance_feet, num_locations)
    per_by_rate = measure(budget, distances, rates_mbps, payload_bytes, num_packets, rng)

    cdf_by_rate: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    median_per: dict[float, float] = {}
    for rate in rates_mbps:
        cdf_by_rate[rate] = empirical_cdf(per_by_rate[rate])
        median_per[rate] = float(np.median(cdf_by_rate[rate][0]))

    gaps = np.abs(per_by_rate[rates_mbps[0]] - per_by_rate[rates_mbps[-1]])
    return PerCdfResult(
        per_by_rate=per_by_rate,
        cdf_by_rate=cdf_by_rate,
        median_per=median_per,
        mean_rate_gap=float(np.mean(gaps)),
    )


def summarize(result: PerCdfResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    medians = ", ".join(f"{rate:g} Mbps {value:.3f}" for rate, value in result.median_per.items())
    return [
        f"median PER: {medians}",
        f"mean |PER gap| across locations: {result.mean_rate_gap:.3f}",
        "paper: the two rates show similar loss; PER exceeds 0.3 at the lowest RSSIs",
    ]


def metrics(result: PerCdfResult) -> dict[str, float]:
    """Scalar headline metrics for cross-campaign aggregation."""
    out = {f"median_per_{rate:g}mbps": value for rate, value in result.median_per.items()}
    out["mean_rate_gap"] = result.mean_rate_gap
    return out


def plot(result: PerCdfResult) -> Figure:
    """Declarative figure: one empirical PER CDF per Wi-Fi rate."""
    return Figure(
        title="Fig. 11 — Wi-Fi packet error rate CDF",
        xlabel="Packet error rate",
        ylabel="CDF",
        kind="cdf",
        series=tuple(
            Series(label=f"{rate:g} Mbps", x=values, y=fractions)
            for rate, (values, fractions) in result.cdf_by_rate.items()
        ),
        caption="Both rates show similar loss (shared 1 Mbps preamble); the worst locations exceed PER 0.3.",
    )


register(
    name="fig11",
    title="Fig. 11 — Wi-Fi packet error rate CDF (2 vs 11 Mbps)",
    run=run,
    engines=_ENGINES,
    artifact="Fig. 11",
    fast_params={"num_locations": 15, "num_packets": 50},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
