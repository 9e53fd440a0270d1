"""The interscatter system: the paper's primary contribution.

The pieces map onto the paper's design section:

* :mod:`repro.core.tone_source` — Bluetooth as a single-tone RF source (§2.2).
* :mod:`repro.core.timing` — packet-in-packet timing arithmetic: how much
  Wi-Fi fits inside one Bluetooth advertisement, guard intervals (§2.2, §2.3.3).
* :mod:`repro.core.uplink` — the tag synthesizing 802.11b or ZigBee packets
  by single-sideband backscattering the tone (§2.3).
* :mod:`repro.core.downlink` — the OFDM-as-AM reverse link (§2.4).
* :mod:`repro.core.device` — the tag device model (state machine + power).
* :mod:`repro.core.coexistence` — the airtime/interference model behind the
  Fig. 12 iperf experiment.
* :mod:`repro.core.link` — :class:`InterscatterLink`, the high-level façade
  that wires everything together for end-to-end simulation.
"""

from repro.core.tone_source import BluetoothToneSource, ToneParameters
from repro.core.timing import InterscatterTiming, max_wifi_payload_bytes
from repro.core.uplink import InterscatterUplink, UplinkResult, UplinkTarget
from repro.core.downlink import InterscatterDownlink, DownlinkResult
from repro.core.device import InterscatterDevice, DeviceState
from repro.core.coexistence import CoexistenceSimulator, CoexistenceResult
from repro.core.link import InterscatterLink, EndToEndResult

__all__ = [
    "BluetoothToneSource",
    "ToneParameters",
    "InterscatterTiming",
    "max_wifi_payload_bytes",
    "InterscatterUplink",
    "UplinkResult",
    "UplinkTarget",
    "InterscatterDownlink",
    "DownlinkResult",
    "InterscatterDevice",
    "DeviceState",
    "CoexistenceSimulator",
    "CoexistenceResult",
    "InterscatterLink",
    "EndToEndResult",
]
