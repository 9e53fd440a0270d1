"""Shared low-level utilities: bit manipulation, CRCs and DSP helpers.

These modules are deliberately free of any protocol knowledge; the BLE,
Wi-Fi and ZigBee packages build their standard-specific machinery on top of
them.
"""

from repro.utils.bits import bits_to_bytes, bits_to_int, bytes_to_bits, int_to_bits
from repro.utils.crc import CrcEngine, crc16_ccitt, crc24_ble, crc32_ieee
from repro.utils.dsp import (
    awgn_noise,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    signal_power,
    watts_to_dbm,
)
from repro.utils.spectrum import (
    occupied_bandwidth,
    power_spectral_density,
    spectral_peak,
    spectrum_asymmetry_db,
)
from repro.utils.pulse_shaping import gaussian_filter_taps

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "int_to_bits",
    "CrcEngine",
    "crc16_ccitt",
    "crc24_ble",
    "crc32_ieee",
    "awgn_noise",
    "db_to_linear",
    "dbm_to_watts",
    "linear_to_db",
    "signal_power",
    "watts_to_dbm",
    "occupied_bandwidth",
    "power_spectral_density",
    "spectral_peak",
    "spectrum_asymmetry_db",
    "gaussian_filter_taps",
]
