"""Packet-in-packet timing arithmetic (§2.2, §2.3.3).

The synthesized Wi-Fi packet must fit entirely inside the Bluetooth
advertising payload window: it starts after the un-controllable prefix
(preamble, access address, header, AdvA — detected by the tag's envelope
detector) plus a guard interval covering the detector's timing uncertainty,
and must finish before the Bluetooth CRC begins.

The paper reports that within a 31-byte (248 µs) advertising payload the
Wi-Fi payload can be 38 / 104 / 209 bytes at 2 / 5.5 / 11 Mbps, and that a
1 Mbps packet does not fit at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.ble.packet import MAX_ADV_DATA_BYTES
from repro.wifi.dsss.plcp import (
    PLCP_HEADER_BITS,
    PLCP_PREAMBLE_BITS,
    SHORT_PLCP_PREAMBLE_BITS,
)

__all__ = [
    "InterscatterTiming",
    "max_wifi_payload_bytes",
    "PAPER_PAYLOAD_SIZES",
]

#: Wi-Fi payload sizes the paper quotes for one 31-byte BLE advertisement.
PAPER_PAYLOAD_SIZES = {2.0: 38, 5.5: 104, 11.0: 209}

#: Default guard interval the implementation inserts after energy detection
#: to absorb the start-of-payload estimation error (§2.2).
DEFAULT_GUARD_INTERVAL_S = 4e-6

#: Air time of the short PLCP preamble (1 Mbps) + header (2 Mbps): 96 µs.
SHORT_PLCP_OVERHEAD_S = SHORT_PLCP_PREAMBLE_BITS * 1e-6 + PLCP_HEADER_BITS / 2.0 * 1e-6

#: Air time of the long PLCP preamble + header (all at 1 Mbps): 192 µs.
LONG_PLCP_OVERHEAD_S = (PLCP_PREAMBLE_BITS + PLCP_HEADER_BITS) * 1e-6


@dataclass(frozen=True)
class InterscatterTiming:
    """Timing of one backscatter opportunity inside a BLE advertisement.

    Attributes
    ----------
    ble_payload_bytes:
        AdvData length of the advertisement.
    guard_interval_s:
        Guard time consumed after the detected start of the payload.
    wifi_rate_mbps:
        Rate of the synthesized 802.11b packet.
    short_plcp_preamble:
        Whether the synthesized packet uses the 96 µs short PLCP preamble
        (the tag's default) or the 192 µs long one.  With the long preamble
        a 2 Mbps packet cannot carry a useful payload inside one
        advertisement, mirroring the paper's observation that a 1 Mbps
        packet does not fit at all.
    """

    ble_payload_bytes: int = MAX_ADV_DATA_BYTES
    guard_interval_s: float = DEFAULT_GUARD_INTERVAL_S
    wifi_rate_mbps: float = 2.0
    short_plcp_preamble: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.ble_payload_bytes <= MAX_ADV_DATA_BYTES:
            raise ConfigurationError(
                f"BLE payload must be 1-{MAX_ADV_DATA_BYTES} bytes, got {self.ble_payload_bytes}"
            )
        if self.guard_interval_s < 0:
            raise ConfigurationError("guard interval must be non-negative")
        if self.wifi_rate_mbps not in (1.0, 2.0, 5.5, 11.0):
            raise ConfigurationError(f"unsupported 802.11b rate {self.wifi_rate_mbps}")
        if self.short_plcp_preamble and self.wifi_rate_mbps == 1.0:
            raise ConfigurationError("the short PLCP preamble cannot precede a 1 Mbps payload")

    @property
    def ble_payload_duration_s(self) -> float:
        """Duration of the AdvData payload at 1 Mbps."""
        return self.ble_payload_bytes * 8e-6

    @property
    def backscatter_window_s(self) -> float:
        """Usable backscatter window after the guard interval."""
        return max(self.ble_payload_duration_s - self.guard_interval_s, 0.0)

    @property
    def wifi_overhead_s(self) -> float:
        """Air time of the Wi-Fi PLCP preamble + header."""
        return SHORT_PLCP_OVERHEAD_S if self.short_plcp_preamble else LONG_PLCP_OVERHEAD_S

    def max_wifi_psdu_bytes(self) -> int:
        """Largest Wi-Fi MPDU (including MAC header and FCS) that fits."""
        available = self.backscatter_window_s - self.wifi_overhead_s
        if available <= 0:
            return 0
        return int(available * self.wifi_rate_mbps * 1e6 // 8)

    def max_wifi_payload_bytes(self, mac_overhead_bytes: int = 0) -> int:
        """Largest Wi-Fi frame-body payload that fits.

        The paper's 38/104/209-byte numbers count the whole PSDU, so the
        default MAC overhead is zero; pass 28 to get the application payload
        under a minimal data-frame header + FCS.
        """
        return max(self.max_wifi_psdu_bytes() - mac_overhead_bytes, 0)

    def fits(self, wifi_psdu_bytes: int) -> bool:
        """Whether a PSDU of the given size fits in the window."""
        return 0 < wifi_psdu_bytes <= self.max_wifi_psdu_bytes()

    def wifi_air_time_s(self, wifi_psdu_bytes: int) -> float:
        """Air time of a Wi-Fi packet with the given PSDU size at this rate."""
        return self.wifi_overhead_s + wifi_psdu_bytes * 8.0 / (self.wifi_rate_mbps * 1e6)


def max_wifi_payload_bytes(
    wifi_rate_mbps: float,
    *,
    ble_payload_bytes: int = MAX_ADV_DATA_BYTES,
    guard_interval_s: float = 0.0,
) -> int:
    """Convenience wrapper reproducing the paper's §2.3.3 packet-size table.

    The paper's 38/104/209-byte numbers assume the whole 248 µs payload
    window is usable, so the default guard interval here is zero; the
    device model still budgets its 4 µs guard when it actually transmits.
    """
    timing = InterscatterTiming(
        ble_payload_bytes=ble_payload_bytes,
        guard_interval_s=guard_interval_s,
        wifi_rate_mbps=wifi_rate_mbps,
    )
    return timing.max_wifi_psdu_bytes()
