"""Card-to-card communication (paper §5.3, Fig. 17).

Two passive credit-card form-factor devices communicate with each other by
backscattering the single-tone Bluetooth transmissions of a nearby
smartphone — the ambient-backscatter idea, but with a Bluetooth device
instead of a TV tower as the carrier source.  One card modulates the tone
(simple on/off backscatter at 100 kbps), the other receives the modulated
reflection with its envelope-detector receiver and decodes the bits.

The model covers the pieces the paper's prototype has: synchronisation to
the Bluetooth advertisements via energy detection, an 18-bit payload at
100 kbps, and a bit-error-rate-versus-distance behaviour dominated by the
tiny card-to-card reflected power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.channel.antennas import ANTENNAS
from repro.channel.geometry import inches_to_meters
from repro.channel.link_budget import DEFAULT_CONVERSION_LOSS_DB
from repro.channel.noise import NoiseModel
from repro.channel.propagation import PathLossModel
from repro.channel.error_models import ber_ook_envelope
from repro.obs import metrics as obs
from repro.utils.bits import as_bit_array
from repro.utils.dsp import scalar_or_array as _scalar_or_array

__all__ = ["BackscatterCard", "CardToCardLink", "CardMessageResult"]

#: Bit rate of the card-to-card link in the paper's prototype.
CARD_BIT_RATE_BPS = 100_000.0

#: Payload length used in the Fig. 17 evaluation.
CARD_PAYLOAD_BITS = 18


@dataclass(frozen=True)
class CardMessageResult:
    """Outcome of one card-to-card message.

    Attributes
    ----------
    sent_bits / received_bits:
        The transmitted and decoded bit arrays.
    bit_errors:
        Number of mismatches.
    bit_error_rate:
        ``bit_errors / len(sent_bits)``.
    receiver_power_dbm:
        Power of the modulated reflection at the receiving card.
    synchronized:
        Whether the receiving card's energy detector synchronised to the
        Bluetooth transmission at all.
    """

    sent_bits: np.ndarray
    received_bits: np.ndarray
    bit_errors: int
    bit_error_rate: float
    receiver_power_dbm: float
    synchronized: bool


@dataclass
class BackscatterCard:
    """One credit-card form-factor backscatter device.

    Attributes
    ----------
    name:
        Identifier used in logs.
    antenna_gain_dbi:
        Gain of the card's PCB trace antenna.
    detector_sensitivity_dbm:
        Sensitivity of the card's envelope-detector receiver (replicated
        from the ambient-backscatter receiver the paper reuses, retuned for
        2.4 GHz).
    """

    name: str = "card"
    antenna_gain_dbi: float = ANTENNAS["credit_card_trace"].gain_dbi
    detector_sensitivity_dbm: float = -54.0


class CardToCardLink:
    """A smartphone-powered link between two backscatter cards.

    Parameters
    ----------
    phone_power_dbm:
        Bluetooth transmit power of the phone (10 dBm — the Note 5 / iPhone
        6 class the paper calls out).
    phone_to_transmitter_inches:
        Distance from the phone to the transmitting card (3 inches in the
        paper's setup).
    transmitter / receiver:
        The two cards.
    bit_rate_bps:
        Card-to-card data rate.
    """

    def __init__(
        self,
        *,
        phone_power_dbm: float = 10.0,
        phone_to_transmitter_inches: float = 3.0,
        transmitter: BackscatterCard | None = None,
        receiver: BackscatterCard | None = None,
        bit_rate_bps: float = CARD_BIT_RATE_BPS,
        rng: np.random.Generator | None = None,
    ) -> None:
        if phone_to_transmitter_inches <= 0:
            raise ConfigurationError("phone_to_transmitter_inches must be positive")
        if bit_rate_bps <= 0:
            raise ConfigurationError("bit_rate_bps must be positive")
        self.phone_power_dbm = phone_power_dbm
        self.phone_to_transmitter_inches = phone_to_transmitter_inches
        self.transmitter = transmitter if transmitter is not None else BackscatterCard("tx-card")
        self.receiver = receiver if receiver is not None else BackscatterCard("rx-card")
        self.bit_rate_bps = bit_rate_bps
        self._rng = rng if rng is not None else np.random.default_rng(53)
        self._path_loss = PathLossModel(path_loss_exponent=2.0)
        self._noise = NoiseModel(bandwidth_hz=2e6, noise_figure_db=12.0)

    # -------------------------------------------------------------- physics
    def receiver_power_dbm(self, card_separation_inches: float | np.ndarray) -> float | np.ndarray:
        """Power of the modulated reflection arriving at the receiving card.

        Broadcasts over an array of separations, each element bit for bit
        the scalar call's.
        """
        if np.any(np.asarray(card_separation_inches) <= 0):
            raise ConfigurationError("card_separation_inches must be positive")
        obs.count("channel.link_realisations", int(np.size(card_separation_inches)))
        incident = (
            self.phone_power_dbm
            + 2.0  # phone antenna
            - self._path_loss.loss_db(inches_to_meters(self.phone_to_transmitter_inches))
            + self.transmitter.antenna_gain_dbi
        )
        reflected = incident - DEFAULT_CONVERSION_LOSS_DB
        power = (
            reflected
            + self.transmitter.antenna_gain_dbi
            - self._path_loss.loss_db(inches_to_meters(np.asarray(card_separation_inches, dtype=float)))
            + self.receiver.antenna_gain_dbi
        )
        return _scalar_or_array(power, card_separation_inches)

    def bit_error_rate(self, card_separation_inches: float | np.ndarray) -> float | np.ndarray:
        """Analytic BER of the card-to-card link at a given separation.

        The receiving card also hears the phone's tone directly, which acts
        as (strong) self-interference the envelope detector must distinguish
        the modulated reflection on top of; the margin above the detector's
        sensitivity sets the error rate.  Broadcasts over an array of
        separations (the Fig. 17 x-axis) like :meth:`receiver_power_dbm`.
        """
        return self._ber_at_power(self.receiver_power_dbm(card_separation_inches))

    def _ber_at_power(self, power_dbm: float | np.ndarray) -> float | np.ndarray:
        margin_db = power_dbm - self.receiver.detector_sensitivity_dbm
        return _scalar_or_array(np.where(margin_db <= 0, 0.5, ber_ook_envelope(margin_db)), power_dbm)

    # ------------------------------------------------------------------ API
    def send_message(
        self,
        bits: np.ndarray | None = None,
        *,
        card_separation_inches: float = 10.0,
        rng: np.random.Generator | None = None,
    ) -> CardMessageResult:
        """Send one message between the cards and report the result."""
        generator = rng if rng is not None else self._rng
        if bits is None:
            bits = generator.integers(0, 2, CARD_PAYLOAD_BITS).astype(np.uint8)
        sent = as_bit_array(bits)

        power = self.receiver_power_dbm(card_separation_inches)
        synchronized = power >= self.receiver.detector_sensitivity_dbm - 10.0
        flips = generator.random(sent.size) < self._ber_at_power(power)
        received = np.bitwise_xor(sent, flips.astype(np.uint8))
        errors = int(np.count_nonzero(flips))
        return CardMessageResult(
            sent_bits=sent,
            received_bits=received,
            bit_errors=errors,
            bit_error_rate=errors / sent.size,
            receiver_power_dbm=power,
            synchronized=synchronized,
        )

    def max_range_inches(self, *, ber_threshold: float = 0.1, limit_inches: float = 60.0) -> float:
        """Furthest separation at which the BER stays below *ber_threshold*."""
        distances = np.arange(1.0, limit_inches, 1.0)
        bers = self.bit_error_rate(distances)
        below = np.where(bers <= ber_threshold)[0]
        if below.size == 0:
            return 0.0
        return float(distances[below[-1]])
