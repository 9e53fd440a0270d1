"""Randomised invariants of the epoch-batched engine.

Seeded :class:`numpy.random.Generator` fuzzing: each trial draws a random
fleet configuration — MAC, size, offered load and the contention-realism
knobs — runs the vectorised engine and checks structural invariants that
must hold for *any* configuration:

* conservation — every generated packet is delivered, dropped, refused at
  the queue, or still pending at the horizon (per device and aggregate);
* monotone virtual time — the processed epoch sequence is strictly
  increasing and stays inside the horizon;
* duty-cycle budgets are never exceeded (up to one in-flight packet of
  slack, which is the admission granularity);
* retry counters are bounded by the abort ladder
  (``attempted <= packets_finished_or_in_progress * max_attempts``);
* at most one packet is delivered per busy epoch.

Each trial also cross-checks the vectorised engine against the scalar
epoch oracle, so the fuzz doubles as a randomised differential test over
knob combinations the fixed matrix never enumerates.  A ``hypothesis``
property pins the premise of the engine's medium pass: at most one of
several concurrent transmitters, the strongest, can clear the capture
threshold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.batched import (
    CAPTURE_THRESHOLD_DB,
    BatchedFleetSimulator,
    EpochReferenceSimulator,
    _strongest_sinr_db,
)
from repro.netsim.fleet import FleetScenario

TRIALS = 25

MACS = ("aloha", "slotted_aloha", "csma", "tdma")


def _random_scenario(rng: np.random.Generator) -> FleetScenario:
    mac = MACS[int(rng.integers(0, len(MACS)))]
    mac_params: dict = {
        "max_attempts": int(rng.integers(1, 9)),
        "queue_limit": int(rng.integers(1, 9)),
        "duty_cycle": float(rng.choice([1.0, 1.0, 0.5, 0.1, 0.02])),
    }
    if mac == "aloha":
        mac_params["base_backoff_epochs"] = int(rng.integers(1, 9))
    elif mac == "csma":
        min_be = int(rng.integers(0, 4))
        mac_params.update(
            min_be=min_be,
            max_be=min_be + int(rng.integers(0, 5)),
            max_cca_attempts=int(rng.integers(1, 6)),
            cca_reliability=float(rng.uniform(0.5, 1.0)),
        )
    elif mac == "tdma":
        mac_params["num_slots"] = int(rng.integers(1, 9))
    return FleetScenario(
        profile=str(rng.choice(["contact_lens", "card_to_card"])),
        num_devices=int(rng.integers(2, 41)),
        mac=mac,
        duration_s=0.3,
        period_s=float(10.0 ** rng.uniform(-2.5, -1.0)),
        seed=int(rng.integers(0, 2**31)),
        mac_params=mac_params,
    )


@pytest.fixture(params=range(TRIALS), ids=lambda i: f"trial{i}")
def fuzzed(request):
    rng = np.random.default_rng(525600 + request.param)
    scenario = _random_scenario(rng)
    sim = BatchedFleetSimulator(scenario, record_epochs=True)
    metrics = sim.run()
    return scenario, sim, metrics


def test_conservation_per_device_and_aggregate(fuzzed):
    scenario, sim, metrics = fuzzed
    for device_id, stats in metrics.devices.items():
        pending = int(sim.queue_len[device_id])
        assert stats.generated == stats.delivered + stats.dropped + stats.queue_dropped + pending, (
            scenario,
            device_id,
        )
    agg = metrics.aggregate()
    assert agg.generated == agg.delivered + agg.dropped + agg.queue_dropped + sim.pending_packets()


def test_virtual_time_is_strictly_monotone(fuzzed):
    scenario, sim, _ = fuzzed
    trace = np.asarray(sim.epoch_trace)
    assert trace.size == sim.epochs_processed
    if trace.size:
        assert np.all(np.diff(trace) > 0), scenario
        assert 0 <= trace[0] and trace[-1] < sim.setup.num_epochs


def test_duty_cycle_budget_never_exceeded(fuzzed):
    scenario, sim, _ = fuzzed
    duty = sim.params.duty_cycle
    # Admission is per packet, so a device may finish at most one packet
    # past its budget; beyond that slack the limiter failed.
    budget = duty * scenario.duration_s + sim.setup.air_time_s
    assert np.all(sim.airtime_used <= budget + 1e-12), scenario


def test_retry_counters_bounded_by_abort_ladder(fuzzed):
    scenario, sim, metrics = fuzzed
    max_attempts = sim.params.max_attempts
    for device_id, stats in metrics.devices.items():
        in_progress = 1 if sim.queue_len[device_id] else 0
        finished = stats.delivered + stats.dropped
        assert stats.attempted <= (finished + in_progress) * max_attempts, (scenario, device_id)
        assert stats.collided <= stats.attempted
        assert all(lat >= 0.0 for lat in stats.latencies_s)


def test_at_most_one_delivery_per_busy_epoch(fuzzed):
    scenario, sim, metrics = fuzzed
    assert metrics.aggregate().delivered <= sim.busy_epochs, scenario


#: Powers in watts, -270 to +30 dBm: every physical level, no subnormals.
POWERS_W = st.floats(min_value=1e-30, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(signal=st.lists(POWERS_W, min_size=2, max_size=64), noise=POWERS_W)
# Python's compensated ``sum`` (3.12 on) gives 1.0000000000000002 here, numpy 1.0.
@example(signal=[1.0, 1e-16, 1e-16], noise=1e-30)
def test_only_the_strongest_transmitter_can_capture(signal, noise):
    # SINRs the way a vectorised pass over every transmitter computes them.
    signal_w = np.array(signal)
    interference = np.maximum(float(signal_w.sum()) - signal_w, 0.0)
    sinr_db = 10.0 * np.log10(signal_w / (noise + interference))
    captured = np.flatnonzero(sinr_db >= CAPTURE_THRESHOLD_DB)
    strongest, strongest_sinr_db = _strongest_sinr_db(signal_w, noise)
    assert captured.size <= 1
    if captured.size:
        assert captured[0] == strongest
    assert strongest_sinr_db == sinr_db[strongest]
    # The per-device form, over the plain list, gives the same index and bits.
    assert _strongest_sinr_db(list(signal), noise) == (strongest, strongest_sinr_db)


def test_fuzzed_configurations_match_the_oracle(fuzzed):
    scenario, _, metrics = fuzzed
    reference = EpochReferenceSimulator(scenario).run()
    assert metrics.fingerprint() == reference.fingerprint(), scenario
