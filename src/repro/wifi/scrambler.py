"""The IEEE 802.11 frame-synchronous scrambler.

Both 802.11b and 802.11g scramble data with a 7-bit LFSR implementing the
polynomial ``x^7 + x^4 + 1`` — the very same polynomial as BLE whitening
(paper Fig. 4).  The scrambler is self-synchronising for 802.11b and
frame-synchronous (seeded per frame) for 802.11g; for the reproduction we
model the frame-synchronous additive form, which is what matters for both:

* the tag's 802.11b baseband generator scrambles the synthesized packet so
  a commodity receiver can descramble it, and
* the downlink AM construction (§2.4) must *predict* the scrambler output of
  a commodity OFDM transmitter, which requires knowing the seed — hence the
  chipset seed-behaviour models in :mod:`repro.wifi.ofdm.scrambler_seeds`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import as_bit_array

__all__ = ["Ieee80211Scrambler"]


class Ieee80211Scrambler:
    """Additive (frame-synchronous) 802.11 scrambler.

    The register state is seven bits ``x1 .. x7`` (x7 oldest).  Each step
    outputs ``x7 XOR x4``, which is also fed back into ``x1``.  The output
    bit is XORed with the data bit.

    Parameters
    ----------
    seed:
        Seven-bit non-zero initial state.  802.11g requires a pseudo-random
        non-zero value; several Atheros chipsets simply increment it per
        frame (§4.4).
    """

    def __init__(self, seed: int = 0x7F) -> None:
        if not 1 <= seed <= 0x7F:
            raise ConfigurationError(f"scrambler seed must be a non-zero 7-bit value, got {seed}")
        self.seed = seed
        self.reset()

    def reset(self, seed: int | None = None) -> None:
        """Reset the shift register to *seed* (or the constructor seed)."""
        if seed is not None:
            if not 1 <= seed <= 0x7F:
                raise ConfigurationError(
                    f"scrambler seed must be a non-zero 7-bit value, got {seed}"
                )
            self.seed = seed
        # state[0] is x1 (newest), state[6] is x7 (oldest).  The seed is
        # loaded with its MSB into x7 as per IEEE 802.11-2012 figure 18-7.
        self._state = [(self.seed >> i) & 1 for i in range(7)]

    def next_bit(self) -> int:
        """Advance the register and return the next keystream bit."""
        feedback = self._state[6] ^ self._state[3]
        self._state = [feedback] + self._state[:6]
        return feedback

    def keystream(self, length: int) -> np.ndarray:
        """Return the next *length* keystream bits."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return np.array([self.next_bit() for _ in range(length)], dtype=np.uint8)

    def scramble(self, bits: Iterable[int] | np.ndarray) -> np.ndarray:
        """Scramble (or descramble) a bit sequence."""
        arr = as_bit_array(bits)
        return np.bitwise_xor(arr, self.keystream(arr.size))
