"""Pinned outputs of the continuous-time heap engine (``scalar``).

Each digest is a sha256 over the ``repr`` of every
:meth:`~repro.netsim.metrics.FleetMetrics.fingerprint` row (the recipe of
the ``fleet_100k`` digest, ``perfbench/workloads.py::fleet_digest``), then
over the medium's ``(resolutions, 0, phy_calls, collisions)``.
Each run in :data:`HEAP_DIGESTS` is 12 devices for 0.3 s at a 20 ms packet
period: the ALOHA runs mix clean, captured and collision-lost packets, and
at 0 dBm carrier power some contact lenses sit near the receiver's
sensitivity, where clean packets are lost to their PER draw.  Those runs
barely fill a queue, so :data:`SATURATED_DIGESTS` adds a saturated card
fleet that overflows its queues and, on the contention MACs, gives up on
packets at the retry and CCA limits.  A change to the heap engine's
arithmetic, draw order or event order moves a digest; an optimisation of
it must leave every one as it is.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.netsim.fleet import FleetScenario, FleetSimulator

#: "<profile>-<source power>dBm-<mac>-<engine>" -> digest.
HEAP_DIGESTS = {
    "contact_lens-20dBm-aloha-scalar": "2c5e0e6661bb469b233bcb7815aa44d5d5bcb877e515b057bdc742cb0dc371b8",
    "contact_lens-20dBm-slotted_aloha-scalar": "8862a17a97ff8ae1e2b16123a98eb367a3103fda5490c5d07ddfcf7761edbe69",
    "contact_lens-20dBm-csma-scalar": "bdcfc013adf8dc713a42334904ac1f41c72c3a6cf444ea6963243501f97a555f",
    "contact_lens-20dBm-tdma-scalar": "eda548405c31b73f5b83d23393edb0f0ee0a9bf2fa0b81cc2d2a20b0e0d523a0",
    "neural_implant-20dBm-aloha-scalar": "422f744e46a1e7a3f5ff3dcb484b38aa3fbf4c1def943ef584811cc641fb8446",
    "neural_implant-20dBm-slotted_aloha-scalar": "26015dad3234820f5ac67aab6d55c255574bbc3095feaf00749e186a9a598c4a",
    "neural_implant-20dBm-csma-scalar": "2684d8c56fb9f454bbb12011e67568bc74ff09d4d1c1cc1951e3a1e0229f8cc3",
    "neural_implant-20dBm-tdma-scalar": "0deefa8244c18a7fcd43d0ba7419caa508823d694b0c31febcda0ca29be8f075",
    "card_to_card-20dBm-aloha-scalar": "58a4b0d2e116faebee6a226782d1a517a0ea768a1654e293d9421aae14afe265",
    "card_to_card-20dBm-slotted_aloha-scalar": "754c0cdcadde457f11b684453c3ced9a67cd22c587aab326de49d79c8f8fed13",
    "card_to_card-20dBm-csma-scalar": "ac24819187961856171cf0ed54e5d37ede406c37d0567c149bad82b49210158b",
    "card_to_card-20dBm-tdma-scalar": "5c4d1c1f3af32c76734e1bcbbcdf821137936c4117dd5f4ecbde456e9a5e93a6",
    "contact_lens-0dBm-aloha-scalar": "4ec182b743a575718a26a9d41c01d6077911cef63d3c4fc995692d21a2add90c",
    "contact_lens-0dBm-slotted_aloha-scalar": "451a709ba6845ec8575cbcdd0dd8fdd9aca86fe0b58ebe3a28b9f6c50172e51c",
    "contact_lens-0dBm-csma-scalar": "d28574110aa6d531f493beb05ebe7c2e28ac3a393ca5f747dc63c5d3f3732ad1",
    "contact_lens-0dBm-tdma-scalar": "004f0d3f29842591ddd4b69ac23e3f418046c78dc64e2145c9ea1997de502e90",
}


#: 24 cards at a 3 ms period for 0.1 s, with 4-packet queues, 3 attempts per
#: packet and, for CSMA, 2 busy channel assessments.  "<mac>-<engine>" -> digest.
SATURATED_DIGESTS = {
    "aloha-scalar": "0ec3b8bb1064bc870958f0294245ff18ca85b1d2357bfbe75a473c4de0a78ff3",
    "slotted_aloha-scalar": "15c3d6193f60d12aa276a884ec62a540ac457c6c37ac4d688272d124ef30a546",
    "csma-scalar": "20c859e1b16e39fc5e22eba13f5d563e15ab4e0fcd508b6a703de0b73eaaa0b9",
    "tdma-scalar": "e36a56a8a464c4eff8deec881ab5e223bde1bddca77ef5da3339b9362add1ca6",
}


def _pinned_cases():
    for case, digest in sorted(HEAP_DIGESTS.items()):
        profile, power, mac, engine = case.split("-")
        scenario = FleetScenario(
            profile=profile,
            num_devices=12,
            mac=mac,
            duration_s=0.3,
            period_s=0.02,
            source_power_dbm=float(power.removesuffix("dBm")),
            engine=engine,
        )
        yield pytest.param(scenario, digest, False, id=case)
    for case, digest in sorted(SATURATED_DIGESTS.items()):
        mac, engine = case.split("-")
        mac_params = {"queue_limit": 4, "max_attempts": 3}
        if mac == "csma":
            mac_params["max_cca_attempts"] = 2
        scenario = FleetScenario(
            profile="card_to_card",
            num_devices=24,
            mac=mac,
            duration_s=0.1,
            period_s=0.003,
            mac_params=mac_params,
            engine=engine,
        )
        yield pytest.param(scenario, digest, True, id=f"saturated-card_to_card-{case}")


def _digest(sim: FleetSimulator) -> str:
    digest = hashlib.sha256()
    for row in sim.run().fingerprint():
        digest.update(repr(row).encode())
    medium = sim.medium
    # The 0 stands where the medium's table-lookup tally was hashed when the
    # digests were recorded; it was always 0 on this engine.
    digest.update(repr((medium.resolutions, 0, medium.phy_calls, medium.collisions)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(("scenario", "digest", "saturated"), _pinned_cases())
def test_heap_engine_output_is_pinned(scenario, digest, saturated):
    sim = FleetSimulator(scenario)
    assert _digest(sim) == digest
    if saturated:
        devices = sim.metrics.devices.values()
        # The pins cover a full queue refusing arrivals and, except on TDMA
        # (no collisions, no head reaches the retry limit), heads given up on.
        assert sum(device.queue_dropped for device in devices) > 0
        if scenario.mac != "tdma":
            assert sum(device.dropped for device in devices) > 0
