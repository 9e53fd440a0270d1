"""Minimal 802.11 MAC data-frame construction.

The interscatter tag synthesizes whole MPDUs — a MAC header, a payload and
the CRC-32 frame check sequence — so that an unmodified Wi-Fi receiver will
accept them (paper §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.exceptions import PacketFormatError
from repro.utils.bits import bytes_to_bits
from repro.utils.crc import crc32_ieee

__all__ = ["WifiDataFrame", "mpdu_with_fcs", "verify_fcs"]

#: Broadcast address used when the tag does not target a specific receiver.
BROADCAST_ADDRESS = b"\xff" * 6


@dataclass
class WifiDataFrame:
    """A minimal 802.11 data MPDU.

    Attributes
    ----------
    payload:
        Frame body (the application data the tag wants to deliver).
    destination / source / bssid:
        Six-byte MAC addresses.
    sequence_number:
        12-bit sequence number placed in the sequence-control field; the
        paper's PER experiment cycles 200 unique sequence numbers (§4.2).
    """

    payload: bytes
    destination: bytes = BROADCAST_ADDRESS
    source: bytes = b"\x02interS"[:6]
    bssid: bytes = b"\x02interS"[:6]
    sequence_number: int = 0

    def __post_init__(self) -> None:
        for name, addr in (
            ("destination", self.destination),
            ("source", self.source),
            ("bssid", self.bssid),
        ):
            if len(addr) != 6:
                raise PacketFormatError(f"{name} must be 6 bytes, got {len(addr)}")
        if not 0 <= self.sequence_number < 4096:
            raise PacketFormatError("sequence number must fit in 12 bits")

    def mac_header(self) -> bytes:
        """24-byte MAC header for a data frame (ToDS/FromDS = 0)."""
        frame_control = (0x08).to_bytes(1, "little") + b"\x00"  # type=data, subtype=data
        duration = (0).to_bytes(2, "little")
        seq_ctrl = ((self.sequence_number << 4) & 0xFFF0).to_bytes(2, "little")
        return (
            frame_control
            + duration
            + self.destination
            + self.source
            + self.bssid
            + seq_ctrl
        )

    def mpdu(self) -> bytes:
        """Full MPDU: header + body + FCS."""
        body = self.mac_header() + self.payload
        return mpdu_with_fcs(body)

    @property
    def mpdu_length_bytes(self) -> int:
        """Length of the MPDU including the 4-byte FCS."""
        return 24 + len(self.payload) + 4

    @classmethod
    def parse(cls, mpdu: bytes) -> "WifiDataFrame":
        """Parse an MPDU back into a frame, verifying the FCS."""
        if len(mpdu) < 28:
            raise PacketFormatError(f"MPDU too short: {len(mpdu)} bytes")
        if not verify_fcs(mpdu):
            raise PacketFormatError("FCS check failed")
        header = mpdu[:24]
        payload = mpdu[24:-4]
        seq_ctrl = int.from_bytes(header[22:24], "little")
        return cls(
            payload=payload,
            destination=header[4:10],
            source=header[10:16],
            bssid=header[16:22],
            sequence_number=(seq_ctrl >> 4) & 0xFFF,
        )


def mpdu_with_fcs(body: bytes) -> bytes:
    """Append the IEEE CRC-32 frame check sequence to a MAC body."""
    fcs = crc32_ieee.compute(bytes_to_bits(body))
    return body + fcs.to_bytes(4, "little")


def verify_fcs(mpdu: bytes) -> bool:
    """Check the trailing 4-byte FCS of an MPDU."""
    if len(mpdu) < 4:
        return False
    body, fcs_bytes = mpdu[:-4], mpdu[-4:]
    expected = crc32_ieee.compute(bytes_to_bits(body))
    return int.from_bytes(fcs_bytes, "little") == expected
