"""SNR → bit/packet error-rate models for the PHYs in the reproduction.

Waveform-level simulation of every packet at every distance would be slow;
the range/PER experiments (Figs. 10, 11, 13, 14, 17) instead use standard
AWGN error-rate expressions applied to the link-budget SNR, while the
waveform pipeline is exercised end-to-end at a few operating points by the
integration tests.  The expressions are the textbook ones for the relevant
modulations (DBPSK/DQPSK with Barker processing gain for 802.11b, O-QPSK
with DSSS gain for 802.15.4, on-off keying for the peak-detector downlink).
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.exceptions import ConfigurationError
from repro.utils.dsp import scalar_or_array as _scalar_or_array

__all__ = [
    "qfunc",
    "ber_dbpsk",
    "ber_dqpsk",
    "ber_oqpsk_dsss",
    "ber_ook_envelope",
    "packet_error_rate",
    "wifi_packet_error_rate",
    "WIFI_PROCESSING_GAIN_DB",
]

#: Barker-11 processing gain enjoyed by 1 and 2 Mbps 802.11b.
WIFI_PROCESSING_GAIN_DB = 10.0 * np.log10(11.0)


def qfunc(x: np.ndarray | float) -> np.ndarray | float:
    """Gaussian Q-function."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _ebn0_from_snr(
    snr_db: float | np.ndarray, bit_rate_bps: float, bandwidth_hz: float
) -> float | np.ndarray:
    """Convert an in-band SNR to Eb/N0 given the bit rate and noise bandwidth."""
    if bit_rate_bps <= 0 or bandwidth_hz <= 0:
        raise ConfigurationError("bit rate and bandwidth must be positive")
    return np.asarray(snr_db, dtype=float) + 10.0 * np.log10(bandwidth_hz / bit_rate_bps)


def ber_dbpsk(
    snr_db: float | np.ndarray, *, bit_rate_bps: float = 1e6, bandwidth_hz: float = 22e6
) -> float | np.ndarray:
    """DBPSK bit error rate (802.11b 1 Mbps / 5.5 Mbps CCK approximation)."""
    ebn0_db = _ebn0_from_snr(snr_db, bit_rate_bps, bandwidth_hz)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return _scalar_or_array(np.clip(0.5 * np.exp(-ebn0), 0.0, 0.5), snr_db)


def ber_dqpsk(
    snr_db: float | np.ndarray, *, bit_rate_bps: float = 2e6, bandwidth_hz: float = 22e6
) -> float | np.ndarray:
    """DQPSK bit error rate (802.11b 2 Mbps / 11 Mbps CCK approximation)."""
    ebn0_db = _ebn0_from_snr(snr_db, bit_rate_bps, bandwidth_hz)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    # Standard DQPSK approximation via the Marcum-Q bound; the simpler
    # exponential bound is adequate for reproducing PER *shapes*.
    return _scalar_or_array(np.clip(0.5 * np.exp(-0.59 * 2.0 * ebn0), 0.0, 0.5), snr_db)


def ber_oqpsk_dsss(
    snr_db: float | np.ndarray, *, bit_rate_bps: float = 250e3, bandwidth_hz: float = 2e6
) -> float | np.ndarray:
    """802.15.4 O-QPSK/DSSS bit error rate (coherent QPSK with spreading gain)."""
    ebn0_db = _ebn0_from_snr(snr_db, bit_rate_bps, bandwidth_hz)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return _scalar_or_array(np.clip(qfunc(np.sqrt(2.0 * ebn0)), 0.0, 0.5), snr_db)


def ber_ook_envelope(snr_db: float | np.ndarray) -> float | np.ndarray:
    """Non-coherent on-off-keying BER for the peak-detector downlink.

    Each element of an array is bit for bit the scalar call's value:
    ``np.float_power`` rounds like Python's ``**`` on arrays too, where
    numpy's array ``**`` does not.
    """
    snr = np.float_power(10.0, np.asarray(snr_db, dtype=float) / 10.0)
    return _scalar_or_array(np.clip(0.5 * np.exp(-snr / 4.0), 0.0, 0.5), snr_db)


def packet_error_rate(bit_error_rate: float | np.ndarray, packet_bits: int) -> float | np.ndarray:
    """PER for independent bit errors."""
    if packet_bits <= 0:
        raise ConfigurationError("packet_bits must be positive")
    ber = np.clip(np.asarray(bit_error_rate, dtype=float), 0.0, 1.0)
    return _scalar_or_array(1.0 - (1.0 - ber) ** packet_bits, bit_error_rate)


def wifi_packet_error_rate(
    snr_db: float | np.ndarray,
    *,
    rate_mbps: float,
    payload_bytes: int,
    header_bytes: int = 28,
) -> float | np.ndarray:
    """802.11b packet error rate, accounting for the 1 Mbps PLCP preamble/header.

    Both the 2 Mbps and the 11 Mbps interscatter packets carry their PLCP
    preamble and header at 1 Mbps DBPSK, which is why the paper observes
    similar PERs for the two rates at the small payload sizes that fit in a
    BLE advertisement (§4.2).  Broadcasts over arrays of SNRs.
    """
    if payload_bytes <= 0:
        raise ConfigurationError("payload_bytes must be positive")
    preamble_header_bits = 192  # long PLCP preamble + header at 1 Mbps
    header_ber = np.asarray(ber_dbpsk(snr_db, bit_rate_bps=1e6))
    header_ok = (1.0 - header_ber) ** preamble_header_bits

    payload_bits = (payload_bytes + header_bytes) * 8
    if rate_mbps in (1.0, 5.5):
        payload_ber = np.asarray(ber_dbpsk(snr_db, bit_rate_bps=rate_mbps * 1e6))
    elif rate_mbps in (2.0, 11.0):
        payload_ber = np.asarray(ber_dqpsk(snr_db, bit_rate_bps=rate_mbps * 1e6))
    else:
        raise ConfigurationError(f"unsupported 802.11b rate {rate_mbps}")
    payload_ok = (1.0 - payload_ber) ** payload_bits
    return _scalar_or_array(1.0 - header_ok * payload_ok, snr_db)
