"""Constant-OFDM symbol crafting: turning an OFDM radio into an AM source (§2.4).

The downlink encodes one bit per *pair* of OFDM symbols:

* bit 1 → a **random** OFDM symbol followed by a **constant** OFDM symbol,
* bit 0 → two random OFDM symbols (Fig. 8),

giving 125 kbps (each 802.11g symbol is 4 µs).  A "constant" symbol is one
whose 48 data subcarriers all carry the same constellation point; its IFFT
concentrates energy in the first time sample and is near zero elsewhere, so
a passive envelope/peak detector sees a low-amplitude gap.  A "random"
symbol keeps the detector's envelope high.

Creating a constant symbol on a commodity transmitter requires choosing the
*data* bits so that after scrambling, convolutional encoding and
interleaving every coded bit in the symbol is identical.  The construction
(following the paper):

* **Scrambler** — with a known/predictable seed the keystream is known, so
  the data bits are simply the keystream (to make every scrambled bit 0) or
  its complement (to make every scrambled bit 1).
* **Convolutional encoder** — an all-zeros (all-ones) input with matching
  history encodes to all zeros (all ones).  The encoder has memory 6, so the
  last six data bits of the *previous* symbol must already be ones (zeros);
  the crafter forces this when planning the preceding random symbol.
* **Interleaver** — permutations leave a constant block unchanged.
* **Modulator** — identical coded bits map every subcarrier to the same
  constellation point.
* **Pilots** — cannot be controlled, but only 4 of 52 subcarriers, so the
  impulse shape survives (the peak-to-average assertion in the tests shows
  this).
* **Cyclic prefix** — a constant symbol's CP is almost all zeros, which
  could fake a gap at the symbol boundary; the crafter picks the preceding
  random symbol's last time sample to be high (§2.4, last paragraph) by
  retrying candidate random fills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import as_bit_array
from repro.wifi.scrambler import Ieee80211Scrambler
from repro.wifi.ofdm.rates import OfdmRate
from repro.wifi.ofdm.transmitter import OfdmPacketWaveform, OfdmTransmitter

__all__ = ["AmSymbolPlan", "ConstantOfdmCrafter", "symbol_peak_to_average", "DOWNLINK_BIT_RATE_BPS"]

#: Downlink bit rate: one bit per two 4 µs OFDM symbols.
DOWNLINK_BIT_RATE_BPS = 125_000.0


def symbol_peak_to_average(symbol_samples: np.ndarray) -> float:
    """Peak-to-average power ratio of one time-domain OFDM symbol.

    Constant symbols have a very high PAPR (impulse-like); random symbols a
    low one.  Used both in tests and by the AM decision logic.
    """
    samples = np.asarray(symbol_samples, dtype=complex).ravel()
    power = np.abs(samples) ** 2
    mean = float(np.mean(power))
    if mean <= 0.0:
        return 0.0
    return float(np.max(power) / mean)


@dataclass(frozen=True)
class AmSymbolPlan:
    """The symbol-level plan for one downlink message.

    Attributes
    ----------
    message_bits:
        The bits conveyed to the backscatter device.
    symbol_kinds:
        One entry per OFDM symbol: ``"random"`` or ``"constant"``.
    data_bits:
        The unscrambled data-field bits handed to the OFDM transmitter.
    scrambler_seed:
        Seed assumed when computing the data bits.
    rate:
        OFDM rate the plan was built for.
    """

    message_bits: np.ndarray
    symbol_kinds: tuple[str, ...]
    data_bits: np.ndarray
    scrambler_seed: int
    rate: OfdmRate


class ConstantOfdmCrafter:
    """Builds 802.11g payloads whose OFDM symbols AM-encode a message.

    Parameters
    ----------
    rate:
        OFDM rate; the paper uses 36 Mbps (16-QAM rate 3/4).  16/64-QAM are
        recommended because the random symbols then have dense constellations
        and reliably high envelopes.
    constant_bit_value:
        Whether constant symbols are built from all-one (default) or
        all-zero scrambled bits.
    rng:
        Random generator for the random-symbol filler bits.
    """

    def __init__(
        self,
        rate: OfdmRate | float = OfdmRate.RATE_36,
        *,
        constant_bit_value: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.rate = rate if isinstance(rate, OfdmRate) else OfdmRate.from_mbps(float(rate))
        if constant_bit_value not in (0, 1):
            raise ConfigurationError("constant_bit_value must be 0 or 1")
        self.constant_bit_value = constant_bit_value
        self._rng = rng if rng is not None else np.random.default_rng(7)

    # ------------------------------------------------------------------ API
    def plan(self, message_bits: np.ndarray, *, scrambler_seed: int) -> AmSymbolPlan:
        """Compute the data bits that AM-encode *message_bits*.

        Every message bit expands to two OFDM symbols (random + constant for
        a 1, random + random for a 0).
        """
        bits = as_bit_array(message_bits)
        if bits.size == 0:
            raise ConfigurationError("message must contain at least one bit")
        params = self.rate.parameters
        dbps = params.data_bits_per_symbol

        symbol_kinds: list[str] = []
        for bit in bits:
            symbol_kinds.append("random")
            symbol_kinds.append("constant" if bit == 1 else "random")

        keystream = Ieee80211Scrambler(scrambler_seed).keystream(dbps * len(symbol_kinds))
        data_bits = np.empty(dbps * len(symbol_kinds), dtype=np.uint8)
        for index, kind in enumerate(symbol_kinds):
            start, stop = index * dbps, (index + 1) * dbps
            if kind == "constant":
                # Data = keystream XOR desired-scrambled-bit, so the scrambled
                # bits in this symbol are all `constant_bit_value`.
                data_bits[start:stop] = np.bitwise_xor(
                    keystream[start:stop], self.constant_bit_value
                )
            else:
                data_bits[start:stop] = self._rng.integers(0, 2, dbps)
            next_kind = symbol_kinds[index + 1] if index + 1 < len(symbol_kinds) else None
            if next_kind == "constant":
                # The convolutional encoder has memory 6: the history entering
                # the constant symbol must already consist of scrambled bits
                # equal to the constant value (paper §2.4), so force the last
                # six data bits of this symbol to keystream XOR constant_value.
                data_bits[stop - 6 : stop] = np.bitwise_xor(
                    keystream[stop - 6 : stop], self.constant_bit_value
                )
        return AmSymbolPlan(
            message_bits=bits,
            symbol_kinds=tuple(symbol_kinds),
            data_bits=data_bits,
            scrambler_seed=scrambler_seed,
            rate=self.rate,
        )

    def waveform(self, plan: AmSymbolPlan) -> OfdmPacketWaveform:
        """Encode a plan into a transmit waveform."""
        transmitter = OfdmTransmitter(self.rate)
        return transmitter.encode_data_bits(plan.data_bits, scrambler_seed=plan.scrambler_seed)

    def encode_message(
        self, message_bits: np.ndarray, *, scrambler_seed: int
    ) -> tuple[AmSymbolPlan, OfdmPacketWaveform]:
        """Plan and encode a downlink message in one call."""
        plan = self.plan(message_bits, scrambler_seed=scrambler_seed)
        return plan, self.waveform(plan)

    # ------------------------------------------------------------ diagnostics
    def symbol_papr_profile(self, plan: AmSymbolPlan) -> np.ndarray:
        """Peak-to-average power of every data symbol in the encoded waveform."""
        waveform = self.waveform(plan)
        return np.array(
            [
                symbol_peak_to_average(waveform.data_symbol(i))
                for i in range(waveform.num_data_symbols)
            ]
        )
