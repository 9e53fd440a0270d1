"""Fleet scenarios: placement, profiles, determinism and MAC comparisons."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.core.downlink import InterscatterDownlink
from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs
from repro.netsim.fleet import fleet_links
from repro.netsim.mac import POLL_BITS
from repro.netsim import (
    ENGINES,
    PROFILES,
    BatchedFleetSimulator,
    FleetScenario,
    FleetSimulator,
    ring_placement,
    simulate,
)


def test_ring_placement_is_deterministic_and_distinct():
    a = ring_placement(40, inner_radius_m=0.25, ring_spacing_m=0.15)
    b = ring_placement(40, inner_radius_m=0.25, ring_spacing_m=0.15)
    assert a == b
    assert len(set((p.x, p.y) for p in a)) == 40
    radii = [np.hypot(p.x, p.y) for p in a]
    # First ring holds 8 devices at the inner radius, later rings move out.
    assert radii[:8] == pytest.approx([0.25] * 8)
    assert max(radii) > 0.25


def test_profiles_build_and_carry_app_payloads():
    lens = PROFILES["contact_lens"]()
    implant = PROFILES["neural_implant"]()
    card = PROFILES["card_to_card"]()
    assert lens.payload_bytes == 8  # ContactLensReading.encode()
    assert implant.payload_bytes == 8 + 8 * 8 * 2  # NeuralFrame header + int16 samples
    assert card.payload_bytes == 3  # 18-bit payment payload
    assert card.burst_size > 1
    assert implant.wifi_rate_mbps == 11.0


def test_unknown_profile_and_mac_raise():
    with pytest.raises(ConfigurationError):
        FleetScenario(profile="smart_toaster").resolved_profile()
    with pytest.raises(ConfigurationError):
        FleetSimulator(FleetScenario(mac="token_ring", num_devices=2))


@contextmanager
def _wall_clock_bound(seconds: float):
    """Raise TimeoutError in the block after *seconds*, so a hang fails instead of stalling."""

    def expire(signum, frame):
        raise TimeoutError(f"exceeded the {seconds} s wall-clock bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "overrides",
    (
        {"num_devices": 0},
        {"duration_s": 0.0},
        {"duration_s": float("nan")},  # unchecked, hangs the heap engine
        {"duration_s": float("inf")},
        {"duration_s": True},  # accepted, ran a 1-s fleet that reported duration_s=True
        {"duration_s": "5"},
        {"period_s": 0.0},  # unchecked, hangs every engine
        {"period_s": -0.01},
        {"period_s": float("nan")},
        {"period_s": True},  # accepted as a 1-s packet interval
        {"source_power_dbm": float("inf")},  # unchecked, the engines disagree on delivery
        {"source_power_dbm": float("nan")},
        {"source_power_dbm": True},  # accepted as a 1-dBm carrier
        {"engine": "warp_drive"},
        {"num_devices": float("nan")},  # unchecked, the heap engine ran 0 devices
        {"num_devices": True},  # unchecked, the heap engine ran 1 device
        {"num_devices": 2.5},
        {"num_devices": 3.0},
        {"num_devices": "3"},
        {"seed": None},  # unchecked, an unseeded run on every engine
        {"seed": -1},
        {"seed": 1.5},
    ),
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_degenerate_scenarios_are_rejected_on_every_engine(overrides):
    for engine in ENGINES:
        scenario = {"num_devices": 3, "duration_s": 0.2, "engine": engine, **overrides}
        with _wall_clock_bound(5.0), pytest.raises(ConfigurationError):
            simulate(FleetScenario(**scenario))


@pytest.mark.parametrize("engine", ENGINES)
def test_numpy_integer_fleet_size_and_seed_are_accepted(engine):
    as_numpy = FleetScenario(num_devices=np.int64(3), seed=np.int64(5), duration_s=0.2, engine=engine)
    as_int = FleetScenario(num_devices=3, seed=5, duration_s=0.2, engine=engine)
    assert type(as_numpy.num_devices) is int and type(as_numpy.seed) is int
    # Span attributes must be JSON scalars, which numpy integers are not.
    with obs.collect():
        fingerprint = simulate(as_numpy).fingerprint()
    assert fingerprint == simulate(as_int).fingerprint()


def _per_device_poll_success_prob(links) -> list[float]:
    """The reference: one scalar downlink BER evaluation per device."""
    downlink = InterscatterDownlink(rng=np.random.default_rng(0))
    bers = [downlink.link_bit_error_rate(p.distance_to(links.receiver))[0] for p in links.positions]
    return [(1.0 - ber) ** POLL_BITS for ber in bers]


@pytest.mark.parametrize("num_devices", (1, 5, 30, 200, 400, 3000))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_batched_poll_success_prob_equals_the_per_device_loop(profile, num_devices):
    # Up to 400 devices every fleet polls with certainty; 3,000 reaches the
    # rings where the downlink BER, and numpy's array rounding, show.
    links = fleet_links(FleetScenario(profile=profile, num_devices=num_devices, mac="tdma", duration_s=0.01))
    assert links.poll_success_prob.tolist() == _per_device_poll_success_prob(links)
    with obs.collect() as collector:
        fleet_links(FleetScenario(profile=profile, num_devices=num_devices, mac="tdma", duration_s=0.01))
    # One backscatter and one downlink realisation per device, as before batching.
    assert collector.counters["channel.link_realisations"] == 2 * num_devices


def test_tdma_poll_success_prob_is_computed_once_for_both_engine_families():
    scenario = FleetScenario(profile="contact_lens", num_devices=1000, mac="tdma", duration_s=0.01)
    links = fleet_links(scenario)
    expected = _per_device_poll_success_prob(links)
    assert links.poll_success_prob.tolist() == expected
    assert min(expected) < 1.0  # the outer rings lose polls
    assert [node.mac.poll_success_prob for node in FleetSimulator(scenario).nodes] == expected
    epoch = BatchedFleetSimulator(replace(scenario, engine="batched"))
    assert epoch.setup.poll_success_prob.tolist() == expected


@pytest.mark.parametrize("mac", ("aloha", "slotted_aloha", "csma"))
def test_only_tdma_fleets_carry_poll_probabilities(mac):
    assert fleet_links(FleetScenario(num_devices=3, mac=mac)).poll_success_prob is None


def test_same_seed_reproduces_bit_identical_metrics():
    scenario = FleetScenario(
        profile="contact_lens", num_devices=25, mac="slotted_aloha",
        duration_s=1.0, period_s=0.02, seed=77,
    )
    first = FleetSimulator(scenario).run()
    second = FleetSimulator(scenario).run()
    assert first.fingerprint() == second.fingerprint()
    assert first.aggregate() == second.aggregate()


def test_different_seeds_diverge():
    def run(seed):
        return FleetSimulator(
            FleetScenario(
                profile="contact_lens", num_devices=25, mac="aloha",
                duration_s=1.0, period_s=0.02, seed=seed,
            )
        ).run()

    assert run(1).fingerprint() != run(2).fingerprint()


def test_counters_are_consistent():
    metrics = FleetSimulator(
        FleetScenario(
            profile="card_to_card", num_devices=12, mac="csma",
            duration_s=1.0, seed=5,
        )
    ).run()
    agg = metrics.aggregate()
    assert agg.num_devices == 12
    assert agg.generated > 0
    # Everything generated is delivered, dropped, refused or still queued.
    still_queued = agg.generated - agg.queue_dropped - agg.delivered - agg.dropped
    assert still_queued >= 0
    assert agg.attempted >= agg.delivered
    assert 0.0 <= agg.delivery_ratio <= 1.0
    assert 0.0 <= agg.utilization <= 1.0
    for stats in metrics.devices.values():
        assert stats.delivered <= stats.generated
        assert len(stats.latencies_s) == stats.delivered
        assert all(lat >= 0.0 for lat in stats.latencies_s)


def test_slotted_aloha_beats_pure_aloha_at_high_load():
    def delivery(mac: str) -> float:
        return (
            FleetSimulator(
                FleetScenario(
                    profile="contact_lens", num_devices=60, mac=mac,
                    duration_s=2.0, period_s=0.02, seed=2016,
                )
            )
            .run()
            .aggregate()
            .delivery_ratio
        )

    pure = delivery("aloha")
    slotted = delivery("slotted_aloha")
    assert pure < 0.5  # the channel really is heavily loaded
    assert slotted > 1.5 * pure


def test_tdma_polling_is_collision_free_when_saturated():
    sim = FleetSimulator(
        FleetScenario(
            profile="contact_lens", num_devices=30, mac="tdma",
            duration_s=1.0, period_s=0.004, seed=9,
        )
    )
    metrics = sim.run()
    assert sim.medium.collisions == 0
    assert metrics.aggregate().collided == 0


def test_lone_device_delivers_nearly_everything():
    for mac in ("aloha", "slotted_aloha", "csma", "tdma"):
        agg = (
            FleetSimulator(
                FleetScenario(
                    profile="contact_lens", num_devices=1, mac=mac,
                    duration_s=1.0, period_s=0.02, seed=3,
                )
            )
            .run()
            .aggregate()
        )
        assert agg.delivery_ratio > 0.95, mac
        assert agg.collided == 0
