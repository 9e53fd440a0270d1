"""Scaling benchmark for the epoch-batched netsim engine.

The acceptance bar of the batched engine: a 100 000-device contact-lens
ALOHA fleet over 60 virtual seconds must finish in well under 30 wall
seconds, and at least 20× faster than the continuous-time heap engine
would take extrapolated from a small probe fleet (the heap engine's event
count grows linearly in devices × duration, so a 500-device / 2-second
probe extrapolates by the device and duration ratios).  The run also
re-checks packet conservation at full scale — an epoch-calendar bug that
loses or double-counts devices would surface here first — and pins the
fleet's per-device counters bit for bit, so the engine's array form (its
bulk steps here hold about 160 devices) cannot drift unseen.
"""

from __future__ import annotations

import hashlib
import time

from repro.netsim.batched import BatchedFleetSimulator
from repro.netsim.fleet import FleetScenario, FleetSimulator

FLEET = 100_000
DURATION_S = 60.0

#: One telemetry packet per device every 10 s — roughly 3.4 erlang offered,
#: far past ALOHA saturation, so the run grinds through millions of retry
#: transmissions (the honest worst case for the engine).
PERIOD_S = 10.0

#: Explicit epoch width: 2 ms epochs keep the 60 s horizon at 30 000 epochs.
EPOCH_S = 2e-3

#: Small probe the heap engine can afford, extrapolated to the full scale.
PROBE_DEVICES = 500
PROBE_DURATION_S = 2.0

WALL_CLOCK_BOUND_S = 30.0
MIN_SPEEDUP = 20.0

#: sha256 over ``repr`` of each ``FleetMetrics.fingerprint()`` row; the same
#: digest perfbench's ``fleet_100k`` workload checks at its canonical seed.
FLEET_DIGEST = "ddfdaeb8a89af51e295fe390d8b2cda175842e65301144e0a0fae31d562f59d4"


def test_batched_100k_device_fleet(benchmark, paper_report):
    scenario = FleetScenario(
        profile="contact_lens",
        num_devices=FLEET,
        mac="aloha",
        duration_s=DURATION_S,
        period_s=PERIOD_S,
        seed=2016,
        engine="batched",
        mac_params={"queue_limit": 8},
    )
    state: dict = {}

    def run():
        sim = BatchedFleetSimulator(scenario, epoch_s=EPOCH_S)
        state["sim"] = sim
        state["metrics"] = sim.run()

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - start

    sim = state["sim"]
    aggregate = state["metrics"].aggregate()
    assert aggregate.num_devices == FLEET
    assert aggregate.generated == (
        aggregate.delivered + aggregate.dropped + aggregate.queue_dropped + sim.pending_packets()
    )
    assert sim.epochs_processed <= sim.setup.num_epochs
    assert sim.transmissions_resolved > FLEET  # every device got on air repeatedly
    digest = hashlib.sha256()
    for row in state["metrics"].fingerprint():
        digest.update(repr(row).encode())
    assert digest.hexdigest() == FLEET_DIGEST

    # The heap engine's cost is ~linear in devices x duration: extrapolate a
    # probe it can afford up to the benchmarked scale.
    probe = FleetScenario(
        profile="contact_lens",
        num_devices=PROBE_DEVICES,
        mac="aloha",
        duration_s=PROBE_DURATION_S,
        period_s=PERIOD_S * (PROBE_DEVICES / FLEET),  # same offered load per airtime
        seed=2016,
        mac_params={"queue_limit": 8},
    )
    start = time.perf_counter()
    FleetSimulator(probe).run()
    probe_seconds = time.perf_counter() - start
    scalar_extrapolated = probe_seconds * (FLEET / PROBE_DEVICES) * (DURATION_S / PROBE_DURATION_S)
    speedup = scalar_extrapolated / batched_seconds

    assert batched_seconds < WALL_CLOCK_BOUND_S
    assert speedup >= MIN_SPEEDUP

    paper_report(
        "Batched netsim - 100k-device fleet (beyond the paper)",
        [
            (
                f"aloha @ {FLEET} devices, {DURATION_S:.0f} s",
                f"< {WALL_CLOCK_BOUND_S:.0f} s wall clock",
                f"{batched_seconds:.1f} s, {sim.transmissions_resolved} transmissions",
            ),
            (
                "vs heap-engine extrapolation",
                f">= {MIN_SPEEDUP:.0f}x faster",
                f"{scalar_extrapolated:.0f} s extrapolated ({speedup:.0f}x)",
            ),
            (
                "delivery at scale",
                "saturated channel",
                f"delivery {aggregate.delivery_ratio:.3f}, "
                f"utilization {aggregate.utilization:.2f}",
            ),
        ],
    )
