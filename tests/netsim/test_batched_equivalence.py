"""Differential lockdown: batched epoch engine vs its scalar oracle.

The vectorised :class:`repro.netsim.batched.BatchedFleetSimulator` and the
scalar :class:`repro.netsim.batched.EpochReferenceSimulator` implement one
documented epoch contract (see the module docstring of
:mod:`repro.netsim.batched`).  These tests pin the two engines to each
other **bit-for-bit** — per-device counters, byte totals and latency sums
via :meth:`repro.netsim.metrics.FleetMetrics.fingerprint`, plus the list of
processed epochs and the busy-epoch and transmission counts — across a
seed × MAC × density matrix (up to fleets with devices below receiver
sensitivity), MAC-knob presets (imperfect CCA, abort ladders, duty
cycles), the bursty card-to-card profile and saturated fleets at coarse
epochs.  Every case runs the vectorised engine three times: at its default
``PER_DEVICE_MAX``, with its bulk steps on numpy arrays (a lone
transmitter's loss aside, which skips the medium step whose form the
losers keep) and with every bulk step walked in plain Python.  Any
divergence is a bug in one of the engines, never tolerance noise.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.api import Runner
from repro.api.store import invocation_key
from repro.netsim import batched as epoch_engines
from repro.netsim.batched import (
    PER_DEVICE_MAX,
    BatchedFleetSimulator,
    EpochReferenceSimulator,
    simulate,
)
from repro.netsim.fleet import ENGINES, FleetScenario
from repro.obs import metrics as obs

SEEDS = (1, 7, 2016, 90210, 424242)

MACS = ("aloha", "slotted_aloha", "csma", "tdma")

#: (num_devices, period_s): tiny saturated fleets through light 64-device ones,
#: and 256 lenses whose outer rings fall below receiver sensitivity (an
#: inaudible transmitter is never delivered but still consumes a delivery draw).
FLEETS = ((4, 0.004), (8, 0.02), (16, 0.05), (32, 0.02), (64, 0.1), (256, 0.2))


#: ``PER_DEVICE_MAX`` settings the vectorised engine runs every case under:
#: the default, numpy arrays, plain Python for every bulk step.
FORMS = {"default": PER_DEVICE_MAX, "array": 0, "list": 10**9}


def _assert_bit_identical(scenario: FleetScenario, epoch_s: float | None = None) -> None:
    reference = EpochReferenceSimulator(scenario, epoch_s=epoch_s, record_epochs=True)
    expected = reference.run().fingerprint()
    for form, limit in FORMS.items():
        with mock.patch.object(epoch_engines, "PER_DEVICE_MAX", limit):
            batched = BatchedFleetSimulator(scenario, epoch_s=epoch_s, record_epochs=True)
            assert batched.run().fingerprint() == expected, form
        # The schedule too, not just the counters it produced: an engine that
        # visits an extra empty epoch changes no fingerprint.
        for attribute in ("epoch_trace", "epochs_processed", "busy_epochs", "transmissions_resolved"):
            assert getattr(batched, attribute) == getattr(reference, attribute), (form, attribute)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mac", MACS)
@pytest.mark.parametrize("fleet", FLEETS, ids=lambda f: f"n{f[0]}-p{f[1]}")
def test_engines_bit_identical_across_matrix(seed, mac, fleet):
    num_devices, period_s = fleet
    scenario = FleetScenario(
        profile="contact_lens",
        num_devices=num_devices,
        mac=mac,
        duration_s=0.4,
        period_s=period_s,
        seed=seed,
    )
    _assert_bit_identical(scenario)


#: Contention-realism presets: every knob of EpochMacParams is exercised.
KNOB_CASES = (
    ("aloha", {"base_backoff_epochs": 1, "max_attempts": 3}),
    ("aloha", {"duty_cycle": 0.05}),
    ("aloha", {"queue_limit": 2}),
    ("slotted_aloha", {"max_attempts": 2, "queue_limit": 3}),
    ("slotted_aloha", {"duty_cycle": 0.1}),
    ("csma", {"cca_reliability": 0.8}),
    ("csma", {"max_cca_attempts": 2, "queue_limit": 4}),
    ("csma", {"min_be": 1, "max_be": 3}),
    ("tdma", {"num_slots": 4}),
    ("tdma", {"duty_cycle": 0.2}),
)


@pytest.mark.parametrize("seed", (3, 11, 2016))
@pytest.mark.parametrize("case", KNOB_CASES, ids=lambda c: f"{c[0]}-{'-'.join(c[1])}")
def test_engines_bit_identical_with_contention_knobs(seed, case):
    mac, mac_params = case
    scenario = FleetScenario(
        profile="contact_lens",
        num_devices=12,
        mac=mac,
        duration_s=0.4,
        period_s=0.01,
        seed=seed,
        mac_params=dict(mac_params),
    )
    _assert_bit_identical(scenario)


@pytest.mark.parametrize("seed", (5, 23))
@pytest.mark.parametrize("mac", MACS)
def test_engines_bit_identical_on_bursty_profile(seed, mac):
    scenario = FleetScenario(
        profile="card_to_card",
        num_devices=10,
        mac=mac,
        duration_s=0.4,
        period_s=0.05,
        seed=seed,
    )
    _assert_bit_identical(scenario)


#: Saturated-fleet MACs; 4 TDMA slots put 500 devices on each owned epoch.
SATURATED_MACS = (("aloha", {}), ("slotted_aloha", {}), ("csma", {}), ("tdma", {"num_slots": 4}))


@pytest.mark.parametrize("seed", (1, 2016))
@pytest.mark.parametrize("case", SATURATED_MACS, ids=lambda c: c[0])
def test_engines_bit_identical_on_saturated_coarse_epochs(seed, case):
    # The 10^5-device benchmark's 2 ms epochs on 2,000 devices: dozens to
    # hundreds of transmitters per busy epoch, almost all of them losers.
    mac, mac_params = case
    scenario = FleetScenario(
        profile="contact_lens",
        num_devices=2000,
        mac=mac,
        duration_s=0.3,
        period_s=0.05,
        seed=seed,
        mac_params={"queue_limit": 8, **mac_params},
    )
    with obs.collect() as collector:
        _assert_bit_identical(scenario, epoch_s=2e-3)
    assert collector.gauges["netsim.batched.mean_tx_per_busy_epoch"] > 50


def _form_decisions(monkeypatch, scenario: FleetScenario, epoch_s: float | None = None) -> list[bool]:
    """Each bulk step's choice in one run: True walks the ids in Python, False uses numpy."""
    decisions = []
    choose = epoch_engines._per_device

    def spy(count):
        decisions.append(choose(count))
        return decisions[-1]

    monkeypatch.setattr(epoch_engines, "_per_device", spy)
    BatchedFleetSimulator(scenario, epoch_s=epoch_s).run()
    monkeypatch.undo()
    return decisions


@pytest.mark.parametrize("mac", MACS)
def test_default_crossover_walks_small_fleets_and_vectorises_saturated_ones(monkeypatch, mac):
    # The mac_scaling density spec's largest fleet, the size the documents run.
    density = FleetScenario(
        profile="contact_lens", num_devices=100, mac=mac, duration_s=1.0, period_s=0.005, seed=2016
    )
    decisions = _form_decisions(monkeypatch, density)
    assert decisions and all(decisions)
    mac_params = {"queue_limit": 8, **({"num_slots": 4} if mac == "tdma" else {})}
    saturated = FleetScenario(
        profile="contact_lens", num_devices=2000, mac=mac, duration_s=0.3, period_s=0.05, seed=1, mac_params=mac_params
    )
    decisions = _form_decisions(monkeypatch, saturated, epoch_s=2e-3)
    assert decisions.count(False) > 0.9 * len(decisions)


def test_simulate_dispatches_on_scenario_engine():
    kwargs = dict(
        profile="contact_lens", num_devices=6, mac="slotted_aloha", duration_s=0.3, seed=9
    )
    batched = simulate(FleetScenario(engine="batched", **kwargs))
    reference = simulate(FleetScenario(engine="reference", **kwargs))
    assert batched.fingerprint() == reference.fingerprint()
    # Only the heap engine resolves packets on the shared medium.
    resolutions = {}
    for engine in ("scalar", "batched"):
        with obs.collect() as collector:
            simulate(FleetScenario(engine=engine, **kwargs))
        resolutions[engine] = collector.counters.get("netsim.medium.resolutions", 0)
    assert resolutions["scalar"] > 0
    assert resolutions["batched"] == 0


def test_mac_scaling_payloads_identical_across_epoch_engines():
    runner = Runner()
    params = {"fleet_sizes": (5, 10, 25), "period_s": 0.005, "duration_s": 0.5}
    batched = runner.run("mac_scaling", params=dict(params), engine="batched")
    reference = runner.run("mac_scaling", params=dict(params), engine="reference")
    for mac in batched.payload.macs:
        for metric in ("delivery_ratio", "throughput_bps", "attempt_per", "utilization", "latency_p50_s"):
            assert np.array_equal(
                getattr(batched.payload, metric)[mac],
                getattr(reference.payload, metric)[mac],
                equal_nan=True,
            ), (mac, metric)


def test_cross_engine_envelopes_differ_only_in_engine():
    # The invocation identity (experiment, seed, params) of the same sweep
    # run on every engine must agree on everything except the engine field,
    # so stores keep the runs side by side under comparable keys.
    runner = Runner()
    params = {"fleet_sizes": (2, 4), "duration_s": 0.3}
    results = [runner.run("mac_scaling", params=dict(params), engine=engine) for engine in ENGINES]
    keys = {invocation_key(r.experiment, "<engine>", r.seed, r.params) for r in results}
    assert len(keys) == 1
    assert [r.engine for r in results] == list(ENGINES)
    for result in results:
        for mac in result.payload.macs:
            ratios = result.payload.delivery_ratio[mac]
            assert np.all((0.0 <= ratios) & (ratios <= 1.0))
