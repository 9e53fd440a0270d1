"""Shared-medium model: carrier activity, overlapping transmissions, capture.

All tags in a fleet backscatter the same single-tone carrier into the same
22 MHz Wi-Fi channel, so their synthesized packets contend at the one
receiver.  The medium tracks every in-flight transmission, accumulates the
mutual interference between overlapping ones, and — when a transmission
ends — decides its fate from the signal-to-interference-plus-noise ratio:

* no overlap → the link-budget SNR drives the analytic PER of
  :mod:`repro.channel.error_models`;
* overlap → a packet survives only through *capture*: its SINR must clear
  ``capture_threshold_db`` (a co-channel 802.11b correlator cannot ride its
  processing gain through an interferer the way it rides through thermal
  noise), after which the SINR-degraded PER still applies.  Comparable-power
  overlaps corrupt every packet involved.

The same activity bookkeeping doubles as the carrier-sense primitive for
CSMA MACs and as the medium-utilization metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.channel.error_models import wifi_packet_error_rate
from repro.channel.noise import NoiseModel
from repro.utils.dsp import dbm_to_watts

__all__ = ["Transmission", "MediumOutcome", "SharedMedium"]


@dataclass(eq=False)
class Transmission:
    """One in-flight packet on the shared medium.

    Transmissions compare by identity: each is one packet's air time.

    Attributes
    ----------
    device_id:
        Transmitting device.
    start_s / duration_s:
        Air-time interval of the packet.
    rssi_dbm:
        Received power of this packet at the fleet receiver.
    psdu_bytes / rate_mbps:
        Synthesized 802.11b packet parameters (drive the PER model).
    signal_w:
        ``rssi_dbm`` in linear watts.
    peak_interference_w:
        Largest concurrent interference power seen at any instant of the
        packet's air time (linear watts at the receiver).
    """

    device_id: int
    start_s: float
    duration_s: float
    rssi_dbm: float
    psdu_bytes: int
    rate_mbps: float
    signal_w: float
    current_interference_w: float = field(default=0.0, init=False)
    peak_interference_w: float = field(default=0.0, init=False)

    @property
    def end_s(self) -> float:
        """Scheduled end of the packet's air time."""
        return self.start_s + self.duration_s


class MediumOutcome(NamedTuple):
    """Fate of one transmission, decided when its air time ends.

    Attributes
    ----------
    delivered:
        Whether the packet decoded at the receiver.
    collided:
        Whether any other transmission overlapped this one.
    sinr_db:
        Signal-to-interference-plus-noise ratio used for the PER draw.
    packet_error_rate:
        Analytic PER at that SINR.
    rssi_dbm:
        Received power of the packet.
    """

    delivered: bool
    collided: bool
    sinr_db: float
    packet_error_rate: float
    rssi_dbm: float


class SharedMedium:
    """The one Wi-Fi channel a backscatter fleet shares.

    Parameters
    ----------
    noise:
        Receiver noise model (22 MHz Wi-Fi bandwidth by default).
    receiver_sensitivity_dbm:
        Sensitivity floor of the commodity receiver; packets below it are
        never decodable regardless of interference.
    capture_threshold_db:
        Minimum SINR for a packet that overlapped another transmission to
        capture the receiver; below it the packet is corrupted outright.

    A device's received power is a constant of its link, so the medium
    converts each ``rssi_dbm`` to watts once.  A packet nothing overlapped
    has the SINR of its link alone, so the medium computes it once per
    link, keyed on ``(signal_w, rate_mbps, psdu_bytes)``, together with its
    PER.  Overlapped packets are evaluated one by one.
    The counters ``resolutions``, ``collisions`` and ``phy_calls``
    (packets whose fate needed a PER, memoised or not) are the totals
    :class:`~repro.netsim.fleet.FleetSimulator` reports as
    ``netsim.medium.*`` telemetry at the end of a run.
    """

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        receiver_sensitivity_dbm: float = -94.0,
        capture_threshold_db: float = 10.0,
    ) -> None:
        self.noise = noise if noise is not None else NoiseModel(bandwidth_hz=22e6)
        self.receiver_sensitivity_dbm = receiver_sensitivity_dbm
        self.capture_threshold_db = capture_threshold_db
        self._noise_w = dbm_to_watts(self.noise.noise_floor_dbm)
        self._active: list[Transmission] = []
        self._busy_since: float | None = None
        self.busy_time_s = 0.0
        self.airtime_s = 0.0
        self.transmissions = 0
        self.collisions = 0
        self.resolutions = 0
        self.phy_calls = 0
        # Received power in watts, per rssi_dbm.
        self._signal_w: dict[float, float] = {}
        # Outcome inputs of a packet nothing overlapped, per link: the SINR
        # and its PER.
        self._clean: dict[tuple[float, float, int], tuple[float, float]] = {}

    # ---------------------------------------------------------------- status
    @property
    def busy(self) -> bool:
        """Whether any transmission is currently on the air (carrier sense)."""
        return bool(self._active)

    @property
    def active_count(self) -> int:
        """Number of simultaneously in-flight transmissions."""
        return len(self._active)

    def utilization(self, duration_s: float) -> float:
        """Fraction of *duration_s* during which the medium was busy."""
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        return min(self.busy_time_s / duration_s, 1.0)

    # ------------------------------------------------------------------ API
    def begin(
        self,
        *,
        device_id: int,
        rssi_dbm: float,
        duration_s: float,
        psdu_bytes: int,
        rate_mbps: float,
        now: float,
    ) -> Transmission:
        """Start a transmission and update the mutual-interference ledger."""
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        signal_w = self._signal_w.get(rssi_dbm)
        if signal_w is None:
            signal_w = self._signal_w[rssi_dbm] = dbm_to_watts(rssi_dbm)
        tx = Transmission(device_id, now, duration_s, rssi_dbm, psdu_bytes, rate_mbps, signal_w)
        for other in self._active:
            other.current_interference_w += tx.signal_w
            other.peak_interference_w = max(
                other.peak_interference_w, other.current_interference_w
            )
            tx.current_interference_w += other.signal_w
        tx.peak_interference_w = tx.current_interference_w
        if not self._active:
            self._busy_since = now
        self._active.append(tx)
        self.airtime_s += duration_s
        self.transmissions += 1
        return tx

    def end(self, tx: Transmission, *, now: float, rng: np.random.Generator) -> MediumOutcome:
        """Finish a transmission and decide whether it decoded."""
        try:
            self._active.remove(tx)
        except ValueError as exc:
            raise ConfigurationError("transmission is not active on this medium") from exc
        for other in self._active:
            other.current_interference_w = max(
                other.current_interference_w - tx.signal_w, 0.0
            )
        if not self._active and self._busy_since is not None:
            self.busy_time_s += now - self._busy_since
            self._busy_since = None

        self.resolutions += 1
        collided = tx.peak_interference_w > 0.0
        if collided:
            self.collisions += 1
            sinr_db = self._sinr_db(tx)
            if sinr_db < self.capture_threshold_db:
                per = 1.0
            else:
                self.phy_calls += 1
                per = self._per(sinr_db, tx)
        else:
            self.phy_calls += 1
            key = (tx.signal_w, tx.rate_mbps, tx.psdu_bytes)
            clean = self._clean.get(key)
            if clean is None:
                sinr_db = self._sinr_db(tx)
                clean = self._clean[key] = (sinr_db, self._per(sinr_db, tx))
            sinr_db, per = clean
        delivered = bool(
            tx.rssi_dbm >= self.receiver_sensitivity_dbm and rng.random() > per
        )
        return MediumOutcome(delivered, collided, sinr_db, float(per), tx.rssi_dbm)

    def _sinr_db(self, tx: Transmission) -> float:
        return float(10.0 * np.log10(tx.signal_w / (self._noise_w + tx.peak_interference_w)))

    @staticmethod
    def _per(sinr_db: float, tx: Transmission) -> float:
        return wifi_packet_error_rate(sinr_db, rate_mbps=tx.rate_mbps, payload_bytes=tx.psdu_bytes)

    def finalize(self, now: float) -> None:
        """Close the busy-time ledger at the end of a run.

        Transmissions still in flight at *now* (the simulation horizon)
        contribute their elapsed busy time but never produce an outcome.
        """
        if self._busy_since is not None:
            self.busy_time_s += max(now - self._busy_since, 0.0)
            self._busy_since = now if self._active else None
