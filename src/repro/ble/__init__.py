"""Bluetooth Low Energy (LE 1M) physical layer and advertising link layer.

This substrate provides everything the Interscatter core needs from a
Bluetooth device:

* the advertising channel map and centre frequencies (:mod:`repro.ble.channels`),
* the data-whitening LFSR seeded by channel number (:mod:`repro.ble.whitening`),
* advertising packet assembly with CRC-24 (:mod:`repro.ble.packet`),
* GFSK modulation/demodulation at 1 Msym/s (:mod:`repro.ble.gfsk`),
* the *single-tone payload* construction of paper §2.2
  (:mod:`repro.ble.single_tone`), and
* transmit-power / impairment profiles for the commodity devices used in the
  paper's evaluation (:mod:`repro.ble.devices`).
"""

from repro.ble.channels import ADVERTISING_CHANNELS, BleChannel, advertising_channel
from repro.ble.whitening import WhiteningSequence, whitening_sequence, whiten
from repro.ble.packet import (
    ADVERTISING_ACCESS_ADDRESS,
    AdvertisingPacket,
    AdvertisingPduType,
)
from repro.ble.gfsk import GfskModulator, GfskDemodulator, GfskWaveform
from repro.ble.single_tone import SingleTonePayload, craft_single_tone_payload
from repro.ble.devices import BleDeviceProfile, DEVICE_PROFILES
from repro.ble.radio import BleTransmitter

__all__ = [
    "ADVERTISING_CHANNELS",
    "BleChannel",
    "advertising_channel",
    "WhiteningSequence",
    "whitening_sequence",
    "whiten",
    "ADVERTISING_ACCESS_ADDRESS",
    "AdvertisingPacket",
    "AdvertisingPduType",
    "GfskModulator",
    "GfskDemodulator",
    "GfskWaveform",
    "SingleTonePayload",
    "craft_single_tone_payload",
    "BleDeviceProfile",
    "DEVICE_PROFILES",
    "BleTransmitter",
]
