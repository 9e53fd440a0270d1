"""Fig. 17 — BER of card-to-card communication powered by a smartphone.

One credit-card prototype transmits an 18-bit payload at 100 kbps to the
other by backscattering the single tone emitted by a 10 dBm Bluetooth
phone 3 inches away; the cards' separation is swept and the bit error rate
recorded.  The paper's headline: card-to-card communication works out to
≈30 inches with phone-class transmit power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.placement import distance_grid, furthest_reach
from repro.api.registry import register, resolve_engine
from repro.apps.card_to_card import CARD_PAYLOAD_BITS, CardToCardLink
from repro.plots.figure import Figure, Series

__all__ = ["CardToCardBerResult", "run", "summarize"]


@dataclass(frozen=True)
class CardToCardBerResult:
    """BER-vs-separation series of Fig. 17.

    Attributes
    ----------
    separations_inches:
        Card separations (the figure's x-axis).
    analytic_ber:
        Model BER at each separation.
    measured_ber:
        Monte-Carlo BER from repeated 18-bit messages at each separation.
    usable_range_inches:
        Furthest separation with BER below 20 %.
    """

    separations_inches: np.ndarray
    analytic_ber: np.ndarray
    measured_ber: np.ndarray
    usable_range_inches: float


def _ber_scalar(link, separations, analytic, messages_per_point, rng):
    """Every 18-bit message through the link one at a time (historical seeds)."""
    measured = np.empty(separations.size)
    for index, separation in enumerate(separations):
        errors = 0
        bits = 0
        for _ in range(messages_per_point):
            result = link.send_message(card_separation_inches=float(separation), rng=rng)
            errors += result.bit_errors
            bits += result.sent_bits.size
        measured[index] = errors / bits
    return measured


def _ber_batch(link, separations, analytic, messages_per_point, rng):
    """Each separation's total bit-error count as one binomial draw."""
    total_bits = messages_per_point * CARD_PAYLOAD_BITS
    return rng.binomial(total_bits, analytic, size=separations.size) / total_bits


_ENGINES = {"scalar": _ber_scalar, "batch": _ber_batch}


def run(
    *,
    phone_power_dbm: float = 10.0,
    phone_to_transmitter_inches: float = 3.0,
    max_separation_inches: float = 34.0,
    step_inches: float = 2.0,
    messages_per_point: int = 200,
    seed: int = 17,
    engine: str = "scalar",
) -> CardToCardBerResult:
    """Evaluate the card-to-card BER sweep.

    ``engine="scalar"`` (default) sends every 18-bit message through the
    link object one at a time, bit-identical to historical seeds;
    ``"batch"`` draws each separation's total bit-error count as one
    binomial over the analytic BER curve.  The engines consume the RNG in
    different orders, so they agree up to Monte-Carlo noise.
    """
    measure = resolve_engine("fig17", engine, _ENGINES)
    rng = np.random.default_rng(seed)
    link = CardToCardLink(
        phone_power_dbm=phone_power_dbm,
        phone_to_transmitter_inches=phone_to_transmitter_inches,
        rng=rng,
    )
    separations = distance_grid(2.0, max_separation_inches, step_inches)
    analytic = link.bit_error_rate(separations)
    measured = measure(link, separations, analytic, messages_per_point, rng)
    return CardToCardBerResult(
        separations_inches=separations,
        analytic_ber=analytic,
        measured_ber=measured,
        usable_range_inches=furthest_reach(separations, measured, 0.2, below=True),
    )


def summarize(result: CardToCardBerResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    return [
        f"usable range (BER < 20%): {result.usable_range_inches:.0f} inches, "
        f"BER {result.measured_ber[0]:.3f} at {result.separations_inches[0]:.0f} in, "
        f"{result.measured_ber[-1]:.2f} at {result.separations_inches[-1]:.0f} in",
        "paper: card-to-card communication works out to ~30 inches with phone-class power",
    ]


def metrics(result: CardToCardBerResult) -> dict[str, float]:
    """Scalar headline metrics for cross-campaign aggregation."""
    return {
        "usable_range_inches": result.usable_range_inches,
        "mean_measured_ber": float(np.mean(result.measured_ber)),
    }


def plot(result: CardToCardBerResult) -> Figure:
    """Declarative figure: analytic vs Monte-Carlo BER against separation."""
    return Figure(
        title="Fig. 17 — card-to-card BER vs separation",
        xlabel="Card separation (inches)",
        ylabel="Bit error rate",
        series=(
            Series(label="analytic model", x=result.separations_inches, y=result.analytic_ber),
            Series(label="Monte-Carlo", x=result.separations_inches, y=result.measured_ber),
        ),
        caption="Card-to-card links stay usable (BER < 20%) out to roughly the paper's ~30 inches.",
    )


register(
    name="fig17",
    title="Fig. 17 — card-to-card BER vs separation",
    run=run,
    engines=_ENGINES,
    artifact="Fig. 17",
    fast_params={"messages_per_point": 20, "step_inches": 4.0},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
