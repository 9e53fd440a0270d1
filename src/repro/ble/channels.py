"""BLE channel map for the 2.4 GHz ISM band.

Bluetooth LE divides the band into 40 RF channels spaced 2 MHz apart from
2402 MHz to 2480 MHz.  Three of them are advertising channels:

========  ==============  =================================
Channel    Frequency       Position in the band
========  ==============  =================================
37         2402 MHz        bottom edge of the ISM band
38         2426 MHz        between Wi-Fi channels 1 and 6
39         2480 MHz        top edge of the ISM band
========  ==============  =================================

The paper's frequency plan (Fig. 3) backscatters advertising channel 38
with a +36 MHz-ish shift to land on Wi-Fi channel 11 (2462 MHz); the
implementation uses a 35.75 MHz shift (§3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "BleChannel",
    "ADVERTISING_CHANNELS",
    "DATA_CHANNELS",
    "advertising_channel",
    "ISM_BAND_LOW_MHZ",
    "ISM_BAND_HIGH_MHZ",
]

#: 2.4 GHz ISM band edges relevant to the mirror-copy discussion in §2.3.1.
ISM_BAND_LOW_MHZ = 2400.0
ISM_BAND_HIGH_MHZ = 2483.5


@dataclass(frozen=True)
class BleChannel:
    """One BLE RF channel.

    Attributes
    ----------
    index:
        Link-layer channel index (0–39).  37, 38 and 39 are advertising
        channels.
    frequency_mhz:
        Centre frequency in MHz.
    is_advertising:
        True for channels 37–39.
    """

    index: int
    frequency_mhz: float
    is_advertising: bool

    @property
    def frequency_hz(self) -> float:
        """Centre frequency in Hz."""
        return self.frequency_mhz * 1e6


def _build_channel_map() -> dict[int, BleChannel]:
    """Construct the LE channel map (indices 0-39) per the Bluetooth spec."""
    channels: dict[int, BleChannel] = {}
    # Advertising channels occupy 2402, 2426 and 2480 MHz.
    advertising = {37: 2402.0, 38: 2426.0, 39: 2480.0}
    # Data channels 0..36 fill the remaining 2 MHz slots in frequency order.
    data_frequencies = [f for f in (2404.0 + 2.0 * i for i in range(37))]
    # Frequencies 2404..2424 -> channels 0..10, 2428..2478 -> channels 11..36.
    data_frequencies = [2404.0 + 2 * i for i in range(11)] + [2428.0 + 2 * i for i in range(26)]
    for index, freq in enumerate(data_frequencies):
        channels[index] = BleChannel(index=index, frequency_mhz=freq, is_advertising=False)
    for index, freq in advertising.items():
        channels[index] = BleChannel(index=index, frequency_mhz=freq, is_advertising=True)
    return channels


_CHANNEL_MAP = _build_channel_map()

#: The three advertising channels, keyed by index.
ADVERTISING_CHANNELS: dict[int, BleChannel] = {
    idx: ch for idx, ch in _CHANNEL_MAP.items() if ch.is_advertising
}

#: The 37 data channels, keyed by index.
DATA_CHANNELS: dict[int, BleChannel] = {
    idx: ch for idx, ch in _CHANNEL_MAP.items() if not ch.is_advertising
}


def advertising_channel(index: int) -> BleChannel:
    """Return the advertising channel with the given index (37, 38 or 39)."""
    if index not in ADVERTISING_CHANNELS:
        raise ConfigurationError(
            f"channel {index} is not a BLE advertising channel (expected 37, 38 or 39)"
        )
    return ADVERTISING_CHANNELS[index]
