"""Shared medium: collision/capture accounting and utilization."""

from __future__ import annotations

import numpy as np
import pytest

import repro.netsim.medium as medium_module
from repro.channel.error_models import wifi_packet_error_rate
from repro.exceptions import ConfigurationError
from repro.netsim.fleet import FleetScenario, FleetSimulator
from repro.netsim.medium import SharedMedium
from repro.obs import metrics as obs
from repro.utils.dsp import dbm_to_watts


@pytest.fixture
def medium() -> SharedMedium:
    return SharedMedium()


def _begin(medium, *, device_id=0, rssi=-60.0, duration=150e-6, now=0.0):
    return medium.begin(
        device_id=device_id,
        rssi_dbm=rssi,
        duration_s=duration,
        psdu_bytes=14,
        rate_mbps=2.0,
        now=now,
    )


def test_clean_transmission_delivers(medium, rng):
    tx = _begin(medium, rssi=-60.0)
    assert medium.busy
    outcome = medium.end(tx, now=150e-6, rng=rng)
    assert not medium.busy
    assert outcome.delivered
    assert not outcome.collided
    # With no interference the SINR is the plain link SNR.
    assert outcome.sinr_db == pytest.approx(medium.noise.snr_db(-60.0), abs=1e-6)
    assert outcome.packet_error_rate < 1e-6


def test_sub_sensitivity_packet_never_delivers(medium, rng):
    tx = _begin(medium, rssi=-100.0)
    outcome = medium.end(tx, now=150e-6, rng=rng)
    assert not outcome.delivered


def test_equal_power_overlap_corrupts_both(medium, rng):
    a = _begin(medium, device_id=1, rssi=-60.0, now=0.0)
    b = _begin(medium, device_id=2, rssi=-60.0, now=50e-6)
    out_a = medium.end(a, now=150e-6, rng=rng)
    out_b = medium.end(b, now=200e-6, rng=rng)
    assert out_a.collided and out_b.collided
    # Equal powers → SINR ≈ 0 dB → the PER model saturates.
    assert out_a.sinr_db < 1.0
    assert out_a.packet_error_rate > 0.99
    assert not out_a.delivered and not out_b.delivered
    assert medium.collisions == 2


def test_strong_packet_captures_over_weak(medium, rng):
    strong = _begin(medium, device_id=1, rssi=-50.0, now=0.0)
    weak = _begin(medium, device_id=2, rssi=-85.0, now=50e-6)
    out_strong = medium.end(strong, now=150e-6, rng=rng)
    out_weak = medium.end(weak, now=200e-6, rng=rng)
    assert out_strong.collided and out_weak.collided
    assert out_strong.delivered  # 35 dB above the interferer: capture
    assert not out_weak.delivered


def test_peak_interference_covers_sequential_overlaps(medium, rng):
    # Two interferers that never overlap each other still both raise the
    # victim's ledger; the peak is taken over concurrent power, so the
    # victim sees one interferer's worth at its worst instant.
    victim = _begin(medium, device_id=1, rssi=-60.0, duration=500e-6, now=0.0)
    first = _begin(medium, device_id=2, rssi=-60.0, duration=100e-6, now=0.0)
    medium.end(first, now=100e-6, rng=rng)
    second = _begin(medium, device_id=3, rssi=-60.0, duration=100e-6, now=200e-6)
    medium.end(second, now=300e-6, rng=rng)
    assert victim.peak_interference_w == pytest.approx(first.signal_w)
    out = medium.end(victim, now=500e-6, rng=rng)
    assert out.collided and not out.delivered


def test_busy_time_tracks_union_of_intervals(medium, rng):
    a = _begin(medium, device_id=1, duration=100e-6, now=0.0)
    b = _begin(medium, device_id=2, duration=100e-6, now=50e-6)
    medium.end(a, now=100e-6, rng=rng)
    medium.end(b, now=150e-6, rng=rng)
    c = _begin(medium, device_id=3, duration=100e-6, now=300e-6)
    medium.end(c, now=400e-6, rng=rng)
    # Union: [0, 150µs] + [300µs, 400µs] = 250 µs; airtime sums to 300 µs.
    assert medium.busy_time_s == pytest.approx(250e-6)
    assert medium.airtime_s == pytest.approx(300e-6)
    assert medium.utilization(1e-3) == pytest.approx(0.25)


def test_finalize_accounts_in_flight_transmission(medium, rng):
    _begin(medium, device_id=1, duration=1.0, now=0.0)
    medium.finalize(0.25)
    assert medium.busy_time_s == pytest.approx(0.25)


def test_ending_unknown_transmission_raises(medium, rng):
    tx = _begin(medium)
    medium.end(tx, now=150e-6, rng=rng)
    with pytest.raises(ConfigurationError):
        medium.end(tx, now=200e-6, rng=rng)


# ------------------------------------------------------- per-link clean memo


def _direct(medium, rssi):
    """SINR and PER of a clean packet at *rssi*, computed from scratch."""
    sinr = float(10.0 * np.log10(dbm_to_watts(rssi) / dbm_to_watts(medium.noise.noise_floor_dbm)))
    return sinr, wifi_packet_error_rate(sinr, rate_mbps=2.0, payload_bytes=14)


@pytest.mark.parametrize("rssi", (-60.0, -94.0))
def test_repeated_clean_packets_equal_a_direct_evaluation(medium, rssi, rng):
    sinr, per = _direct(medium, rssi)
    # At the -94 dBm sensitivity floor (SNR ≈ 0.55 dB) the PER is on the
    # curve's slope, so a stale or rounded memo entry would show.
    assert 1e-6 < per < 1e-3 or rssi == -60.0
    for k in range(4):
        out = medium.end(_begin(medium, rssi=rssi, now=k * 1e-3), now=k * 1e-3 + 150e-6, rng=rng)
        assert not out.collided
        assert out.sinr_db == sinr
        assert out.packet_error_rate == per


def test_clean_packet_after_a_collided_one_equals_a_direct_evaluation(medium, rng):
    strong = _begin(medium, device_id=1, rssi=-60.0, now=0.0)
    weak = _begin(medium, device_id=2, rssi=-94.0, now=50e-6)
    captured = medium.end(strong, now=150e-6, rng=rng)
    medium.end(weak, now=200e-6, rng=rng)
    assert captured.collided and captured.sinr_db < _direct(medium, -60.0)[0]
    for device_id, rssi in ((1, -60.0), (2, -94.0)):
        out = medium.end(_begin(medium, device_id=device_id, rssi=rssi, now=1e-3), now=1.2e-3, rng=rng)
        assert not out.collided
        assert (out.sinr_db, out.packet_error_rate) == _direct(medium, rssi)


def _counting_per(monkeypatch):
    calls = {"n": 0}
    original = medium_module.wifi_packet_error_rate

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(medium_module, "wifi_packet_error_rate", counting)
    return calls


def test_exact_path_evaluates_each_link_once(monkeypatch, rng):
    calls = _counting_per(monkeypatch)
    medium = SharedMedium()
    for k in range(5):
        for device_id, rssi in ((1, -60.0), (2, -94.0)):
            tx = _begin(medium, device_id=device_id, rssi=rssi, now=k * 1e-3 + device_id * 2e-4)
            medium.end(tx, now=tx.end_s, rng=rng)
    assert calls["n"] == 2
    assert medium.phy_calls == 10  # every packet still resolves on the exact model


def test_scalar_fleet_calls_the_per_model_once_per_link_plus_captures(monkeypatch):
    calls = _counting_per(monkeypatch)
    outcomes = []
    end = SharedMedium.end

    def recording_end(self, tx, **kwargs):
        outcome = end(self, tx, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(SharedMedium, "end", recording_end)
    scenario = FleetScenario(
        profile="contact_lens", num_devices=20, mac="aloha", duration_s=0.5, period_s=0.02, seed=7
    )
    sim = FleetSimulator(scenario)
    sim.run()
    captured = sum(1 for o in outcomes if o.collided and o.sinr_db >= sim.medium.capture_threshold_db)
    clean = sum(1 for o in outcomes if not o.collided)
    assert captured > 0 and clean > 5 * scenario.num_devices
    # Per packet, the count would be clean + captured.
    assert calls["n"] <= scenario.num_devices + captured


def test_medium_telemetry_counters_equal_the_medium_tallies():
    names = ("resolutions", "collisions", "phy_calls")
    scenario = FleetScenario(profile="card_to_card", num_devices=12, mac="aloha", duration_s=0.3, period_s=0.02)
    sim = FleetSimulator(scenario)
    with obs.collect() as collector:
        sim.run()
    counters = {k: v for k, v in collector.counters.items() if k.startswith("netsim.medium.")}
    expected = {f"netsim.medium.{name}": getattr(sim.medium, name) for name in names}
    # A tally that never moved is not reported, as per-packet counting never created it.
    assert counters == {k: v for k, v in expected.items() if v}
    assert sim.medium.resolutions > sim.medium.collisions > 0
