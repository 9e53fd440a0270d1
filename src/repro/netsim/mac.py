"""Pluggable medium-access policies for backscatter fleets.

Every policy implements the same small :class:`MacProtocol` surface — a
per-device packet queue plus hooks deciding *when* the head of the queue
goes on the air — so the fleet simulator can swap them freely:

* :class:`PureAloha` — transmit on arrival, rebroadcast after a random
  (binary-exponentially widening) delay when the receiver did not get it.
* :class:`SlottedAloha` — the same, but attempts are aligned to slot
  boundaries sized to one packet air time, halving the vulnerable period.
* :class:`CsmaBackoff` — 802.15.4-flavoured CSMA: listen before talk via
  the medium's carrier-sense primitive, binary exponential backoff while
  the channel is busy, bounded CCA attempts.
* :class:`TdmaPolling` — contention-free polling driven by the paper's
  OFDM downlink: the access point addresses one device per slot, and a
  device only answers a poll it actually decodes (the poll delivery
  probability comes from the downlink BER at the device's distance).

Retransmissions assume immediate delivery feedback (the standard ALOHA
idealisation); a packet is dropped after ``max_attempts`` failures.
"""

from __future__ import annotations

import abc
import functools
import inspect
from collections import deque
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.netsim.medium import MediumOutcome
from repro.utils.knobs import finite_positive_knob, integer_knob, probability_knob

__all__ = [
    "Packet",
    "MacProtocol",
    "PureAloha",
    "SlottedAloha",
    "CsmaBackoff",
    "TdmaPolling",
    "MAC_POLICIES",
    "make_mac",
]

#: Cap on the binary-exponential window growth of the ALOHA policies.  Deep
#: enough (2**10 slots ≈ 170 ms at contact-lens air times) for the retry
#: load to stabilise instead of storming when the channel saturates.
MAX_BACKOFF_EXPONENT = 10

#: Address bits in one TDMA poll (sets how many downlink bit errors it takes
#: to lose a poll).
POLL_BITS = 16


@dataclass
class Packet:
    """One application packet waiting in (or moving through) a MAC queue.

    Attributes
    ----------
    device_id:
        Originating device.
    sequence:
        Per-device sequence number.
    psdu_bytes:
        Size of the synthesized Wi-Fi PSDU carrying the packet.
    created_s:
        Simulation time the application generated the packet (for latency).
    attempts:
        Transmission attempts made so far.
    """

    device_id: int
    sequence: int
    psdu_bytes: int
    created_s: float
    attempts: int = 0


class MacProtocol(abc.ABC):
    """Common queue/retry machinery shared by every MAC policy.

    A policy instance is bound to exactly one device via :meth:`bind`; the
    simulator then feeds it packets (:meth:`packet_arrived`) and completion
    callbacks, and the policy decides attempt timing through its hooks.
    """

    name = "mac"

    def __init__(self, *, max_attempts: int = 8, queue_limit: int = 64) -> None:
        max_attempts = integer_knob("max_attempts", max_attempts)
        queue_limit = integer_knob("queue_limit", queue_limit)
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be at least 1")
        self.max_attempts = max_attempts
        self.queue_limit = queue_limit
        self._queue: deque[Packet] = deque()
        # Whether an attempt is scheduled and has not fired yet; scheduled
        # events cannot be cancelled, so this flag is the only handle.
        self._pending = False
        self._in_flight = False
        self.node = None
        self.sim = None
        self.scheduler = None
        self.medium = None
        self.rng = None
        self._tie_break = 0

    # -------------------------------------------------------------- plumbing
    def bind(self, node, sim) -> None:
        """Attach the policy to its device and the running simulator.

        Besides ``node`` and ``sim`` it keeps the simulator's ``scheduler``,
        ``medium`` (the carrier-sense primitive) and seeded ``rng``, which
        the policy reaches on every action.  Its events carry the bound
        device's id as their ``tie_break`` key: simultaneous MAC events
        (slot boundaries, equal backoff draws) used to resolve in
        heap-insertion order, a latent bias that favoured whichever
        device's previous event happened to run first, and keying ties on
        the device id makes same-instant contention an explicit,
        documented function of the scenario.
        """
        self.node = node
        self.sim = sim
        self.scheduler = sim.scheduler
        self.medium = sim.medium
        self.rng = sim.rng
        self._tie_break = getattr(node, "device_id", 0)

    @property
    def queue_length(self) -> int:
        """Packets currently queued (including one mid-transmission)."""
        return len(self._queue)

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        """Called once when the simulation begins (TDMA schedules slots)."""

    def packet_arrived(self, packet: Packet) -> bool:
        """Accept a new packet; returns False when the queue overflows."""
        if len(self._queue) >= self.queue_limit:
            return False
        self._queue.append(packet)
        self._kick()
        return True

    # ----------------------------------------------------------- policy hooks
    def access_delay_s(self, packet: Packet) -> float:
        """Delay before the first attempt of a fresh head-of-queue packet."""
        return 0.0

    @abc.abstractmethod
    def retry_delay_s(self, packet: Packet) -> float:
        """Delay before re-attempting a packet the receiver did not get."""

    def _packet_finished(self) -> None:
        """Hook run after a packet leaves the queue (delivered or dropped)."""

    # ------------------------------------------------------------- internals
    def _kick(self) -> None:
        if self._in_flight or self._pending or not self._queue:
            return
        self._pending = True
        self.scheduler.schedule(
            self.access_delay_s(self._queue[0]), self._attempt, tie_break=self._tie_break
        )

    def _attempt(self) -> None:
        self._pending = False
        if self._in_flight or not self._queue:
            return
        self._begin_transmission(self._queue[0])

    def _begin_transmission(self, packet: Packet) -> None:
        self._in_flight = True
        self.sim.transmit(self.node, packet, self._tx_done)

    def _tx_done(self, packet: Packet, outcome: MediumOutcome) -> None:
        self._in_flight = False
        if outcome.delivered:
            self._queue.popleft()
            self.sim.record_delivery(self.node, packet)
            self._packet_finished()
            self._kick()
        elif packet.attempts >= self.max_attempts:
            self._queue.popleft()
            self.sim.record_drop(self.node, packet)
            self._packet_finished()
            self._kick()
        else:
            self._handle_failure(packet)

    def _handle_failure(self, packet: Packet) -> None:
        self._pending = True
        self.scheduler.schedule(
            self.retry_delay_s(packet), self._attempt, tie_break=self._tie_break
        )


class PureAloha(MacProtocol):
    """Unslotted ALOHA: talk whenever a packet arrives.

    Parameters
    ----------
    base_backoff_s:
        Width of the first retransmission window; the window doubles with
        every failed attempt (capped at ``2**MAX_BACKOFF_EXPONENT``).
    """

    name = "aloha"

    def __init__(self, *, base_backoff_s: float = 1e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        self.base_backoff_s = finite_positive_knob("base_backoff_s", base_backoff_s)

    def retry_delay_s(self, packet: Packet) -> float:
        exponent = min(packet.attempts - 1, MAX_BACKOFF_EXPONENT)
        # Generator.uniform(0, w) is 0 + w * random(), same value and state.
        return self.base_backoff_s * 2.0**exponent * self.rng.random()


class SlottedAloha(MacProtocol):
    """Slotted ALOHA: attempts wait for the next slot boundary.

    Parameters
    ----------
    slot_s:
        Slot duration; the fleet layer sizes it to one packet air time.
    """

    name = "slotted_aloha"

    def __init__(self, *, slot_s: float = 1e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        self.slot_s = finite_positive_knob("slot_s", slot_s)

    def _next_boundary(self, slots_ahead: int = 1) -> float:
        now = self.scheduler.now
        boundary = (int(now / self.slot_s) + slots_ahead) * self.slot_s
        return max(boundary - now, 0.0)

    def access_delay_s(self, packet: Packet) -> float:
        return self._next_boundary(1)

    def retry_delay_s(self, packet: Packet) -> float:
        exponent = min(packet.attempts, MAX_BACKOFF_EXPONENT)
        slots_ahead = int(self.rng.integers(1, 2**exponent + 1))
        return self._next_boundary(slots_ahead)


class CsmaBackoff(MacProtocol):
    """CSMA with binary exponential backoff (802.15.4-style unslotted CCA).

    Parameters
    ----------
    min_be / max_be:
        Bounds of the backoff exponent; the backoff before each clear
        channel assessment is uniform in ``[0, 2**BE)`` backoff slots.
    max_cca_attempts:
        Busy assessments tolerated before the packet is declared a channel
        access failure and dropped.
    backoff_slot_s:
        Duration of one backoff slot.
    cca_reliability:
        Probability a busy medium is actually detected as busy — the tag's
        envelope-detector carrier sense is not perfect (cf. the CCA_prob
        knob in LoRa MAC simulators).
    """

    name = "csma"

    def __init__(
        self,
        *,
        min_be: int = 3,
        max_be: int = 6,
        max_cca_attempts: int = 5,
        backoff_slot_s: float = 320e-6,
        cca_reliability: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        min_be = integer_knob("min_be", min_be)
        max_be = integer_knob("max_be", max_be)
        max_cca_attempts = integer_knob("max_cca_attempts", max_cca_attempts)
        if not 0 <= min_be <= max_be:
            raise ConfigurationError("need 0 <= min_be <= max_be")
        if max_cca_attempts < 1:
            raise ConfigurationError("max_cca_attempts must be at least 1")
        self.min_be = min_be
        self.max_be = max_be
        self.max_cca_attempts = max_cca_attempts
        self.backoff_slot_s = finite_positive_knob("backoff_slot_s", backoff_slot_s)
        self.cca_reliability = probability_knob("cca_reliability", cca_reliability)
        self._be = min_be
        self._cca_attempts = 0

    def _backoff_s(self) -> float:
        slots = int(self.rng.integers(0, 2**self._be))
        return slots * self.backoff_slot_s

    def access_delay_s(self, packet: Packet) -> float:
        return self._backoff_s()

    def retry_delay_s(self, packet: Packet) -> float:
        self._be = min(self._be + 1, self.max_be)
        return self._backoff_s()

    def _packet_finished(self) -> None:
        self._be = self.min_be
        self._cca_attempts = 0

    def _attempt(self) -> None:
        self._pending = False
        if self._in_flight or not self._queue:
            return
        sensed_busy = self.medium.busy and bool(
            self.rng.random() < self.cca_reliability
        )
        if sensed_busy:
            self._cca_attempts += 1
            if self._cca_attempts > self.max_cca_attempts:
                # Channel access failure: give up on the head packet.
                packet = self._queue.popleft()
                self.sim.record_drop(self.node, packet)
                self._packet_finished()
                self._kick()
                return
            self._be = min(self._be + 1, self.max_be)
            self._pending = True
            self.scheduler.schedule(self._backoff_s(), self._attempt, tie_break=self._tie_break)
            return
        self._cca_attempts = 0
        self._begin_transmission(self._queue[0])


class TdmaPolling(MacProtocol):
    """Contention-free TDMA driven by OFDM-downlink polls.

    The access point runs a superframe of ``num_slots`` slots and polls one
    device per slot over the interscatter downlink (§2.4 of the paper); a
    device transmits the head of its queue only in its own slot and only
    when it decoded the poll.  Slots never overlap, so the only losses are
    missed polls, sub-sensitivity links and residual PER.

    Parameters
    ----------
    slot_index / num_slots:
        This device's slot and the superframe length.
    slot_s:
        Slot duration (≥ one packet air time).
    poll_success_prob:
        Probability the device decodes its poll — ``(1 - BER)**POLL_BITS``
        with the BER of the AM downlink at the device's distance.
    """

    name = "tdma"

    def __init__(
        self,
        *,
        slot_index: int = 0,
        num_slots: int = 1,
        slot_s: float = 1e-3,
        poll_success_prob: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        slot_index = integer_knob("slot_index", slot_index)
        num_slots = integer_knob("num_slots", num_slots)
        if num_slots < 1 or not 0 <= slot_index < num_slots:
            raise ConfigurationError("need 0 <= slot_index < num_slots")
        self.slot_index = slot_index
        self.num_slots = num_slots
        self.slot_s = finite_positive_knob("slot_s", slot_s)
        self.poll_success_prob = probability_knob("poll_success_prob", poll_success_prob)

    @property
    def superframe_s(self) -> float:
        """Duration of one full polling round."""
        return self.num_slots * self.slot_s

    def start(self) -> None:
        self.scheduler.schedule(self.slot_index * self.slot_s, self._slot, tie_break=self._tie_break)

    def _slot(self) -> None:
        self.scheduler.schedule(self.superframe_s, self._slot, tie_break=self._tie_break)
        if self._in_flight or not self._queue:
            return
        if self.rng.random() >= self.poll_success_prob:
            return  # the poll itself was lost on the downlink
        self._begin_transmission(self._queue[0])

    def _kick(self) -> None:
        pass  # slot ticks, not arrivals, drive transmissions

    def retry_delay_s(self, packet: Packet) -> float:
        return 0.0  # unused: retries wait for the next owned slot

    def _handle_failure(self, packet: Packet) -> None:
        pass  # packet stays at the head of the queue for the next slot


#: Name → policy class registry used by scenarios and CLI-ish drivers.
MAC_POLICIES: dict[str, type[MacProtocol]] = {
    PureAloha.name: PureAloha,
    SlottedAloha.name: SlottedAloha,
    CsmaBackoff.name: CsmaBackoff,
    TdmaPolling.name: TdmaPolling,
}


@functools.cache
def _keywords(policy: type[MacProtocol]) -> frozenset[str]:
    """Keyword parameters *policy* accepts, its own and its MAC bases'."""
    return frozenset(
        parameter.name
        for cls in policy.__mro__
        if issubclass(cls, MacProtocol) and "__init__" in vars(cls)
        for parameter in inspect.signature(cls.__init__).parameters.values()
        if parameter.kind is parameter.KEYWORD_ONLY
    )


def make_mac(name: str, **kwargs) -> MacProtocol:
    """Instantiate a MAC policy by registry name.

    Unknown policies and keywords the policy does not take raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    try:
        policy = MAC_POLICIES[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown MAC policy {name!r}; available: {sorted(MAC_POLICIES)}"
        ) from exc
    accepted = _keywords(policy)
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise ConfigurationError(
            f"MAC policy {name!r} takes no parameter(s) {unknown}; available: {sorted(accepted)}"
        )
    return policy(**kwargs)
