"""Configuration surface of the epoch engines: translation and rejection.

`resolve_epoch_mac` is the compatibility shim between the heap engine's
MAC vocabulary and the epoch engine's knobs; these tests pin the
translations (seconds → epochs, accepted-and-ignored slot widths) and
every rejection branch, so a typo in a sweep grid fails loudly instead
of silently simulating the wrong protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.netsim.batched import (
    EPOCH_ENGINES,
    BatchedFleetSimulator,
    EpochReferenceSimulator,
    resolve_epoch_mac,
    simulate,
)
from repro.netsim.fleet import ENGINES, FleetScenario


def _scenario(**overrides) -> FleetScenario:
    defaults = dict(
        profile="contact_lens", num_devices=4, mac="aloha", duration_s=0.2, seed=1
    )
    defaults.update(overrides)
    return FleetScenario(**defaults)


def test_base_backoff_seconds_translate_to_epochs():
    params = resolve_epoch_mac(_scenario(mac_params={"base_backoff_s": 0.01}), 1e-3)
    assert params.base_backoff_epochs == 10


def test_heap_engine_slot_widths_are_accepted_and_ignored():
    slotted = resolve_epoch_mac(
        _scenario(mac="slotted_aloha", mac_params={"slot_s": 5e-4}), 1e-3
    )
    assert slotted.name == "slotted_aloha"
    csma = resolve_epoch_mac(
        _scenario(mac="csma", mac_params={"backoff_slot_s": 1e-4}), 1e-3
    )
    assert csma.name == "csma"


def test_tdma_superframe_defaults_to_fleet_size():
    params = resolve_epoch_mac(_scenario(mac="tdma", num_devices=7), 1e-3)
    assert params.num_slots == 7


@pytest.mark.parametrize(
    "mac, mac_params",
    (
        ("aloha", {"unknown_knob": 1}),
        ("aloha", {"cca_reliability": 0.5}),  # CSMA-only knob
        ("aloha", {"max_attempts": 0}),
        ("aloha", {"queue_limit": 0}),
        ("aloha", {"duty_cycle": 0.0}),
        ("aloha", {"duty_cycle": 1.5}),
        ("aloha", {"base_backoff_epochs": 0}),
        ("csma", {"min_be": 4, "max_be": 2}),
        ("csma", {"max_cca_attempts": 0}),
        ("csma", {"cca_reliability": 1.5}),
        ("tdma", {"num_slots": 0}),
    ),
)
def test_invalid_mac_params_are_rejected(mac, mac_params):
    with pytest.raises(ConfigurationError):
        resolve_epoch_mac(_scenario(mac=mac, mac_params=mac_params), 1e-3)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "mac, knob, value",
    (
        # Truncated, 2.7 runs 2 attempts; compared raw, it runs 3.
        ("aloha", "max_attempts", 2.7),
        ("aloha", "queue_limit", 2.5),
        ("aloha", "queue_limit", "3"),
        ("aloha", "max_attempts", True),
        ("csma", "min_be", 2.5),
        ("csma", "max_be", float("nan")),
        ("csma", "max_cca_attempts", float("inf")),
        ("tdma", "num_slots", 1.5),
    ),
)
def test_non_integer_mac_knobs_are_rejected_by_every_engine(engine, mac, knob, value):
    scenario = _scenario(mac=mac, engine=engine, mac_params={knob: value})
    with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
        simulate(scenario)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "mac, knob, value",
    (
        # Unchecked, NaN runs on the heap engines but raises a raw
        # ValueError on the epoch engines, and inf delivers nothing on one
        # family and everything on the other.
        ("aloha", "base_backoff_s", float("nan")),
        ("aloha", "base_backoff_s", float("inf")),
        ("aloha", "base_backoff_s", "1e-3"),
        ("slotted_aloha", "slot_s", float("nan")),
        ("slotted_aloha", "slot_s", float("inf")),
        ("csma", "backoff_slot_s", float("nan")),
        ("csma", "backoff_slot_s", float("inf")),
        ("tdma", "slot_s", float("nan")),
        ("tdma", "slot_s", float("inf")),
    ),
)
def test_non_finite_mac_widths_are_rejected_by_every_engine(engine, mac, knob, value):
    scenario = _scenario(mac=mac, engine=engine, mac_params={knob: value})
    with pytest.raises(ConfigurationError, match=f"{knob} must be a finite positive number"):
        simulate(scenario)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "mac, knob, value",
    (
        # Unchecked, "0.5" raised a raw TypeError on the heap engine and ran
        # as 0.5 on the epoch engines; True ran as 1.0 on every engine.
        ("csma", "cca_reliability", "0.5"),
        ("csma", "cca_reliability", True),
        ("csma", "cca_reliability", float("nan")),
        ("csma", "cca_reliability", -0.1),
        # A raw TypeError on the heap engine, True ran as 1.0 there; the
        # epoch engines take no such knob.
        ("tdma", "poll_success_prob", "0.9"),
        ("tdma", "poll_success_prob", True),
        # The heap engine models no duty cycle; the epoch engines ran these.
        ("aloha", "duty_cycle", "0.5"),
        ("aloha", "duty_cycle", True),
        ("aloha", "duty_cycle", float("nan")),
    ),
)
def test_invalid_probability_knobs_are_rejected_by_every_engine(engine, mac, knob, value):
    scenario = _scenario(mac=mac, engine=engine, mac_params={knob: value})
    with pytest.raises(ConfigurationError, match=knob):
        simulate(scenario)


@pytest.mark.parametrize("engine", ENGINES)
def test_numpy_float_probability_knobs_are_accepted(engine):
    as_numpy = simulate(_scenario(mac="csma", engine=engine, mac_params={"cca_reliability": np.float64(0.5)}))
    as_float = simulate(_scenario(mac="csma", engine=engine, mac_params={"cca_reliability": 0.5}))
    assert as_numpy.fingerprint() == as_float.fingerprint()


@pytest.mark.parametrize("engine", ENGINES)
def test_numpy_integer_mac_knobs_are_accepted(engine):
    as_numpy = simulate(_scenario(engine=engine, mac_params={"max_attempts": np.int64(2)}))
    as_int = simulate(_scenario(engine=engine, mac_params={"max_attempts": 2}))
    assert as_numpy.fingerprint() == as_int.fingerprint()


def test_unknown_mac_policy_is_rejected():
    with pytest.raises(ConfigurationError):
        resolve_epoch_mac(_scenario(mac="token_ring"), 1e-3)


def test_epoch_must_cover_one_air_time():
    with pytest.raises(ConfigurationError):
        BatchedFleetSimulator(_scenario(), epoch_s=1e-9)


def test_engine_table_names_both_epoch_engines():
    assert EPOCH_ENGINES == {
        "batched": BatchedFleetSimulator,
        "reference": EpochReferenceSimulator,
    }


def test_epoch_trace_disabled_by_default():
    sim = BatchedFleetSimulator(_scenario())
    sim.run()
    assert sim.epoch_trace is None
    assert sim.epochs_processed > 0
