"""MAC policies: backoff behaviour, carrier sense, slotting, polling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.netsim.events import EventScheduler
from repro.netsim.mac import (
    MAX_BACKOFF_EXPONENT,
    CsmaBackoff,
    Packet,
    PureAloha,
    SlottedAloha,
    TdmaPolling,
    make_mac,
)
from repro.netsim.medium import MediumOutcome, SharedMedium
from repro.utils.knobs import finite_positive_knob, probability_knob


class FakeSim:
    """Minimal simulator stand-in: records transmissions and outcomes."""

    def __init__(self, *, seed: int = 1, deliver: bool = True, air_time_s: float = 150e-6):
        self.scheduler = EventScheduler()
        self.medium = SharedMedium()
        self.rng = np.random.default_rng(seed)
        self.deliver = deliver
        self.air_time_s = air_time_s
        self.transmissions: list[tuple[float, Packet]] = []
        self.delivered: list[Packet] = []
        self.dropped: list[Packet] = []

    def transmit(self, node, packet, done):
        packet.attempts += 1
        self.transmissions.append((self.scheduler.now, packet))
        outcome = MediumOutcome(
            delivered=self.deliver,
            collided=False,
            sinr_db=30.0,
            packet_error_rate=0.0,
            rssi_dbm=-60.0,
        )
        self.scheduler.schedule(self.air_time_s, lambda: done(packet, outcome))

    def record_delivery(self, node, packet):
        self.delivered.append(packet)

    def record_drop(self, node, packet):
        self.dropped.append(packet)


def _packet(seq: int = 1) -> Packet:
    return Packet(device_id=0, sequence=seq, psdu_bytes=14, created_s=0.0)


def _bind(mac, sim) -> None:
    mac.bind(node=object(), sim=sim)


# ------------------------------------------------------------------- ALOHA
def test_pure_aloha_transmits_immediately():
    sim = FakeSim()
    mac = PureAloha(base_backoff_s=1e-3)
    _bind(mac, sim)
    mac.packet_arrived(_packet())
    sim.scheduler.run()
    assert len(sim.transmissions) == 1
    assert sim.transmissions[0][0] == pytest.approx(0.0)
    assert sim.delivered and not sim.dropped


def test_pure_aloha_backoff_window_doubles_with_attempts():
    sim = FakeSim()
    mac = PureAloha(base_backoff_s=1e-3)
    _bind(mac, sim)
    base = mac.base_backoff_s
    for attempts in (1, 2, 3, 7, 50):
        packet = _packet()
        packet.attempts = attempts
        window = base * 2.0 ** min(attempts - 1, MAX_BACKOFF_EXPONENT)
        draws = [mac.retry_delay_s(packet) for _ in range(200)]
        assert all(0.0 <= d < window for d in draws)
        # The window is actually used, not just bounded.
        assert max(draws) > window / 4.0


def test_pure_aloha_drops_after_max_attempts():
    sim = FakeSim(deliver=False)
    mac = PureAloha(base_backoff_s=1e-4, max_attempts=3)
    _bind(mac, sim)
    mac.packet_arrived(_packet())
    sim.scheduler.run()
    assert len(sim.transmissions) == 3
    assert len(sim.dropped) == 1 and not sim.delivered


def test_slotted_aloha_aligns_attempts_to_slot_boundaries():
    sim = FakeSim()
    slot = 200e-6
    mac = SlottedAloha(slot_s=slot)
    _bind(mac, sim)
    # Arrive mid-slot: the attempt must wait for the next boundary.
    sim.scheduler.schedule(70e-6, lambda: mac.packet_arrived(_packet()))
    sim.scheduler.run()
    start, _ = sim.transmissions[0]
    assert start == pytest.approx(slot)
    slots = start / slot
    assert slots == pytest.approx(round(slots))


def test_slotted_aloha_retry_lands_on_future_slot():
    sim = FakeSim(deliver=False)
    slot = 200e-6
    mac = SlottedAloha(slot_s=slot, max_attempts=4)
    _bind(mac, sim)
    mac.packet_arrived(_packet())
    sim.scheduler.run()
    assert len(sim.transmissions) == 4
    starts = [t for t, _ in sim.transmissions]
    for start in starts:
        assert start / slot == pytest.approx(round(start / slot))
    assert starts == sorted(starts)


# -------------------------------------------------------------------- CSMA
def test_csma_defers_while_medium_busy():
    sim = FakeSim()
    mac = CsmaBackoff(backoff_slot_s=50e-6, max_cca_attempts=50)
    _bind(mac, sim)
    blocker = sim.medium.begin(
        device_id=99, rssi_dbm=-50.0, duration_s=5e-3, psdu_bytes=14,
        rate_mbps=2.0, now=0.0,
    )
    mac.packet_arrived(_packet())
    sim.scheduler.run(until_s=2e-3)
    assert sim.transmissions == []  # kept sensing busy, never talked
    release = 5e-3
    sim.scheduler.schedule_at(
        release, lambda: sim.medium.end(blocker, now=release, rng=sim.rng)
    )
    sim.scheduler.run()
    assert len(sim.transmissions) == 1
    assert sim.transmissions[0][0] >= release


def test_csma_backoff_exponent_grows_and_resets():
    sim = FakeSim()
    mac = CsmaBackoff(min_be=3, max_be=6)
    _bind(mac, sim)
    assert mac._be == 3
    packet = _packet()
    packet.attempts = 1
    for expected in (4, 5, 6, 6):
        mac.retry_delay_s(packet)
        assert mac._be == expected
    mac._packet_finished()
    assert mac._be == 3


def test_csma_drops_on_persistent_channel_access_failure():
    sim = FakeSim()
    mac = CsmaBackoff(backoff_slot_s=50e-6, max_cca_attempts=4)
    _bind(mac, sim)
    sim.medium.begin(
        device_id=99, rssi_dbm=-50.0, duration_s=10.0, psdu_bytes=14,
        rate_mbps=2.0, now=0.0,
    )
    mac.packet_arrived(_packet())
    sim.scheduler.run(until_s=1.0)
    assert sim.transmissions == []
    assert len(sim.dropped) == 1


def test_csma_unreliable_cca_can_miss_activity():
    sim = FakeSim()
    mac = CsmaBackoff(cca_reliability=0.0, backoff_slot_s=50e-6)
    _bind(mac, sim)
    sim.medium.begin(
        device_id=99, rssi_dbm=-50.0, duration_s=10.0, psdu_bytes=14,
        rate_mbps=2.0, now=0.0,
    )
    mac.packet_arrived(_packet())
    sim.scheduler.run(until_s=0.1)
    assert len(sim.transmissions) == 1  # blind CCA → talks over the blocker


# -------------------------------------------------------------------- TDMA
def test_tdma_transmits_only_in_own_slot():
    slot = 200e-6
    for index in (0, 2, 4):
        sim = FakeSim()
        mac = TdmaPolling(slot_index=index, num_slots=5, slot_s=slot)
        _bind(mac, sim)
        mac.packet_arrived(_packet())
        mac.start()
        sim.scheduler.run(until_s=3 * 5 * slot)
        starts = [t for t, _ in sim.transmissions]
        assert starts  # the queue drains during owned slots
        for start in starts:
            assert (start % (5 * slot)) / slot == pytest.approx(index)


def test_tdma_lost_poll_skips_the_slot():
    slot = 200e-6
    sim = FakeSim()
    mac = TdmaPolling(slot_index=0, num_slots=2, slot_s=slot, poll_success_prob=0.0)
    _bind(mac, sim)
    mac.packet_arrived(_packet())
    mac.start()
    sim.scheduler.run(until_s=50 * slot)
    assert sim.transmissions == []  # without a decoded poll the tag stays quiet


def test_tdma_retries_in_next_superframe():
    slot = 200e-6
    sim = FakeSim(deliver=False)
    mac = TdmaPolling(slot_index=1, num_slots=3, slot_s=slot, max_attempts=2)
    _bind(mac, sim)
    mac.packet_arrived(_packet())
    mac.start()
    sim.scheduler.run(until_s=4 * 3 * slot)
    starts = [t for t, _ in sim.transmissions]
    assert len(starts) == 2
    assert starts[1] - starts[0] == pytest.approx(3 * slot)  # one superframe later
    assert len(sim.dropped) == 1


# ---------------------------------------------------------------- registry
def test_make_mac_registry():
    assert isinstance(make_mac("aloha"), PureAloha)
    assert isinstance(make_mac("slotted_aloha", slot_s=1e-3), SlottedAloha)
    assert isinstance(make_mac("csma"), CsmaBackoff)
    assert isinstance(make_mac("tdma", num_slots=4, slot_index=1), TdmaPolling)
    with pytest.raises(ConfigurationError):
        make_mac("token_ring")
    with pytest.raises(ConfigurationError, match="'slotted_aloha'.*'duty_cycle'"):
        make_mac("slotted_aloha", duty_cycle=0.5)
    assert make_mac("tdma", max_attempts=2, queue_limit=4).max_attempts == 2


@pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf"), float("-inf"), "1e-3", True, None])
def test_finite_positive_knob_rejects_what_no_engine_can_run(value):
    with pytest.raises(ConfigurationError, match="slot_s must be a finite positive number"):
        finite_positive_knob("slot_s", value)


def test_finite_positive_knob_returns_a_plain_float():
    for value in (2, np.float64(1e-3), np.int64(3)):
        checked = finite_positive_knob("slot_s", value)
        assert type(checked) is float and checked == value


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), float("inf"), "0.5", True, False, None])
def test_probability_knob_rejects_what_is_not_a_probability(value):
    with pytest.raises(ConfigurationError, match=r"cca_reliability must be a probability in \[0, 1\]"):
        probability_knob("cca_reliability", value)


def test_probability_knob_returns_a_plain_float():
    for value in (0, 1, 0.5, np.float64(0.25), np.int64(1)):
        checked = probability_knob("cca_reliability", value)
        assert type(checked) is float and checked == value


def test_queue_limit_rejects_overflow():
    sim = FakeSim()
    mac = PureAloha(base_backoff_s=1e-3, queue_limit=2)
    _bind(mac, sim)
    assert mac.packet_arrived(_packet(1))
    assert mac.packet_arrived(_packet(2))
    assert not mac.packet_arrived(_packet(3))
