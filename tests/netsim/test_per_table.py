"""The epoch engines' PER table: the closed-form 802.11b PER on a 0.25 dB SINR grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.error_models import wifi_packet_error_rate
from repro.netsim.batched import EPOCH_ENGINES, PER_TABLE_SINR_DB, per_table, simulate
from repro.netsim.fleet import ENGINES, PROFILES, FleetScenario, fleet_links
from repro.obs import metrics as obs


def _link_class(profile: str) -> tuple[float, int]:
    """Rate and PSDU size of the packets a *profile* fleet sends."""
    scenario = FleetScenario(profile=profile, num_devices=1)
    return scenario.resolved_profile().wifi_rate_mbps, fleet_links(scenario).psdu_bytes


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_table_is_the_model_at_every_bin_centre(profile):
    rate, psdu = _link_class(profile)
    table = per_table(rate, psdu)
    model = wifi_packet_error_rate(PER_TABLE_SINR_DB, rate_mbps=rate, payload_bytes=psdu)
    assert np.array_equal(table.per, model)
    assert np.array_equal(table.lookup(PER_TABLE_SINR_DB), model)
    assert [table.lookup(float(sinr)) for sinr in PER_TABLE_SINR_DB] == model.tolist()


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_off_grid_lookups_stay_within_5e_3_of_the_model(profile):
    rate, psdu = _link_class(profile)
    table = per_table(rate, psdu)
    # 25 probes per bin, none on a bin centre.  The interpolation error peaks
    # on the steep part of the curve and grows with packet length: 2.8e-3 for
    # the 14-byte contact-lens packet, 4.5e-3 for the 142-byte implant frame.
    sinr = np.arange(-15.0, 40.0, 0.01) + 0.005
    model = wifi_packet_error_rate(sinr, rate_mbps=rate, payload_bytes=psdu)
    assert np.max(np.abs(table.lookup(sinr) - model)) < 5e-3


def test_lookups_clamp_to_the_edge_bins():
    table = per_table(2.0, 14)
    assert table.lookup(-60.0) == table.lookup(PER_TABLE_SINR_DB[0]) == pytest.approx(1.0)
    assert table.lookup(80.0) == table.lookup(PER_TABLE_SINR_DB[-1]) == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(table.lookup(np.array([-1e3, 1e3])), table.per[[0, -1]])


def test_array_lookup_keeps_its_shape():
    table = per_table(11.0, 142)
    sinr = np.array([[-5.0, 0.1, 5.2], [7.3, 9.9, 30.0]])
    values = table.lookup(sinr)
    assert values.shape == sinr.shape
    assert np.all(np.diff(values.ravel()) <= 0.0)
    assert type(table.lookup(np.float64(3.3))) is float


@pytest.mark.parametrize("engine", ENGINES)
def test_each_epoch_simulator_builds_one_table(engine):
    scenario = FleetScenario(profile="contact_lens", num_devices=6, mac="aloha", duration_s=0.2, seed=1, engine=engine)
    with obs.collect() as collector:
        simulate(scenario)
        simulate(scenario)
    # The heap engine judges packets on the model itself and builds none.
    expected = 2 if engine in EPOCH_ENGINES else 0
    assert collector.counters.get("mc.link_abstraction.tables_built", 0) == expected
