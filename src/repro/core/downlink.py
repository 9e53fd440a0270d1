"""The interscatter downlink: 802.11g OFDM as an AM modulator (§2.4).

Ties together the constant-OFDM payload crafter, the commodity OFDM
transmitter model (with its scrambler-seed behaviour) and the tag's passive
peak-detector receiver:

1. The Wi-Fi device (an Atheros-class chipset) is about to transmit a
   frame; its scrambler seed is known or predictable (§4.4).
2. The access point's payload bits are chosen so that the OFDM symbols
   AM-encode the query bits at 125 kbps (random+constant = 1,
   random+random = 0).
3. The tag's peak detector tracks the waveform envelope and recovers the
   bits — no carrier synthesis, no FFT, just a comparator.

The downlink can be evaluated at the waveform level (exact symbol
envelopes) and at the link level (BER vs distance, Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bits import as_bit_array
from repro.utils.dsp import add_awgn, scalar_or_array as _scalar_or_array
from repro.backscatter.detector import PeakDetectorReceiver
from repro.channel.error_models import ber_ook_envelope
from repro.channel.link_budget import DirectLinkBudget
from repro.wifi.ofdm.constant_ofdm import ConstantOfdmCrafter, DOWNLINK_BIT_RATE_BPS
from repro.wifi.ofdm.rates import OfdmRate
from repro.wifi.ofdm.scrambler_seeds import ScramblerSeedModel, AtherosIncrementingSeedModel

__all__ = ["DownlinkResult", "InterscatterDownlink"]


@dataclass(frozen=True)
class DownlinkResult:
    """Outcome of one downlink transmission.

    Attributes
    ----------
    message_bits:
        Bits the Wi-Fi device encoded.
    decoded_bits:
        Bits the tag's peak detector recovered.
    bit_errors:
        Number of mismatches.
    bit_error_rate:
        ``bit_errors / len(message_bits)``.
    rssi_dbm:
        Signal power at the tag (None for pure waveform simulations).
    scrambler_seed:
        Seed used for the frame.
    seed_predicted_correctly:
        Whether the crafter's seed prediction matched the seed the chipset
        actually used (always True for fixed/incrementing models once
        synchronised; False forces a garbled symbol plan).
    """

    message_bits: np.ndarray
    decoded_bits: np.ndarray
    bit_errors: int
    bit_error_rate: float
    rssi_dbm: float | None
    scrambler_seed: int
    seed_predicted_correctly: bool = True

    @property
    def bit_rate_bps(self) -> float:
        """Downlink bit rate (fixed by the two-symbols-per-bit encoding)."""
        return DOWNLINK_BIT_RATE_BPS


class InterscatterDownlink:
    """Wi-Fi → tag AM downlink simulator.

    Parameters
    ----------
    rate:
        OFDM rate of the querying Wi-Fi device (36 Mbps in the paper).
    seed_model:
        How the chipset picks scrambler seeds; the default increments per
        frame like the Atheros chipsets the paper measured.
    peak_detector:
        The tag's receiver model.
    """

    def __init__(
        self,
        rate: OfdmRate | float = OfdmRate.RATE_36,
        *,
        seed_model: ScramblerSeedModel | None = None,
        peak_detector: PeakDetectorReceiver | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.rate = rate if isinstance(rate, OfdmRate) else OfdmRate.from_mbps(float(rate))
        self.seed_model = seed_model if seed_model is not None else AtherosIncrementingSeedModel()
        self.peak_detector = peak_detector if peak_detector is not None else PeakDetectorReceiver()
        self._rng = rng if rng is not None else np.random.default_rng(11)
        self._crafter = ConstantOfdmCrafter(self.rate, rng=self._rng)

    # ------------------------------------------------------------------ API
    def transmit_waveform(self, message_bits: np.ndarray, *, snr_db: float | None = None) -> DownlinkResult:
        """Waveform-level downlink: craft, transmit, peak-detect, compare."""
        bits = as_bit_array(message_bits)
        predicted_seed = self.seed_model.predict(0)
        actual_seed = self.seed_model.next_seed()
        seed_ok = predicted_seed is None or predicted_seed == actual_seed
        crafting_seed = predicted_seed if predicted_seed is not None else actual_seed

        plan = self._crafter.plan(bits, scrambler_seed=crafting_seed)
        # The frame is scrambled with the seed the chipset *actually* uses;
        # if the prediction was wrong the constant symbols are destroyed.
        waveform = self._crafter.waveform(
            AmSymbolPlanWithSeed(plan, actual_seed) if not seed_ok else plan
        )
        samples = waveform.samples
        if snr_db is not None:
            samples = add_awgn(samples, snr_db, rng=self._rng)

        decoded = self.peak_detector.decode_bits(
            samples,
            samples_per_symbol=80,
            num_symbols=waveform.num_data_symbols,
            start_sample=waveform.data_start_sample,
        )
        decoded = decoded[: bits.size]
        errors = int(np.count_nonzero(decoded != bits[: decoded.size])) + max(
            0, bits.size - decoded.size
        )
        return DownlinkResult(
            message_bits=bits,
            decoded_bits=decoded,
            bit_errors=errors,
            bit_error_rate=errors / bits.size,
            rssi_dbm=None,
            scrambler_seed=actual_seed,
            seed_predicted_correctly=seed_ok,
        )

    def link_bit_error_rate(
        self,
        distance_m: float | np.ndarray,
        *,
        tx_power_dbm: float = 20.0,
        link_budget: DirectLinkBudget | None = None,
    ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """Analytic downlink BER at a given Wi-Fi-transmitter → tag distance.

        Returns ``(ber, rssi_dbm)``: floats for a scalar distance, arrays
        for an array of distances, each element bit for bit the scalar
        call's.  The tag's peak detector is an envelope (OOK-like) receiver
        whose sensitivity floor is −32 dBm for the off-the-shelf prototype
        (§4.4).  The AM depth of a constant-vs-random OFDM symbol is large,
        so the link behaves like a cliff: while the input stays above the
        detector's sensitivity the comparator margin keeps the BER very low,
        and below the floor the output is noise — exactly the shape of
        Fig. 13.
        """
        budget = link_budget if link_budget is not None else DirectLinkBudget(tx_power_dbm=tx_power_dbm)
        budget.tx_power_dbm = tx_power_dbm
        rssi = budget.received_power_dbm(distance_m)
        sensitivity = self.peak_detector.sensitivity_dbm
        # Above the floor the comparator sees the full constant-vs-random
        # envelope contrast; the 12 dB term models that built-in AM depth.
        ber = np.where(rssi <= sensitivity, 0.5, ber_ook_envelope(rssi - sensitivity + 12.0))
        return _scalar_or_array(ber, distance_m), _scalar_or_array(rssi, distance_m)

    def simulate_link(
        self,
        message_bits: np.ndarray,
        distance_m: float,
        *,
        tx_power_dbm: float = 20.0,
        rng: np.random.Generator | None = None,
    ) -> DownlinkResult:
        """Monte-Carlo downlink transmission at a given distance."""
        bits = as_bit_array(message_bits)
        ber, rssi = self.link_bit_error_rate(distance_m, tx_power_dbm=tx_power_dbm)
        generator = rng if rng is not None else self._rng
        actual_seed = self.seed_model.next_seed()
        flips = generator.random(bits.size) < ber
        decoded = np.bitwise_xor(bits, flips.astype(np.uint8))
        errors = int(np.count_nonzero(flips))
        return DownlinkResult(
            message_bits=bits,
            decoded_bits=decoded,
            bit_errors=errors,
            bit_error_rate=errors / bits.size,
            rssi_dbm=rssi,
            scrambler_seed=actual_seed,
        )


class AmSymbolPlanWithSeed:
    """A symbol plan re-bound to a different (mispredicted) scrambler seed.

    Duck-types the fields of :class:`repro.wifi.ofdm.constant_ofdm.AmSymbolPlan`
    that the crafter's ``waveform`` method needs, but swaps the seed —
    modelling what happens when the chipset scrambles the crafted payload
    with a seed other than the one it was crafted for.
    """

    def __init__(self, plan, actual_seed: int) -> None:
        self.message_bits = plan.message_bits
        self.symbol_kinds = plan.symbol_kinds
        self.data_bits = plan.data_bits
        self.scrambler_seed = actual_seed
        self.rate = plan.rate
