"""Tests for the PER-table link abstraction and its netsim fast path."""

from __future__ import annotations

import numpy as np
import pytest

import repro.netsim.medium as medium_module
from repro.exceptions import ConfigurationError
from repro.channel.error_models import wifi_packet_error_rate
from repro.mc import LinkAbstraction
from repro.netsim.fleet import FleetScenario, FleetSimulator
from repro.netsim.medium import SharedMedium


class TestLinkAbstraction:
    def test_table_matches_analytic_model(self):
        abstraction = LinkAbstraction()
        for sinr in (-8.0, -3.5, 0.25, 6.0, 14.7):
            exact = wifi_packet_error_rate(sinr, rate_mbps=2.0, payload_bytes=37)
            approx = abstraction.per(sinr, rate_mbps=2.0, payload_bytes=37)
            assert abs(exact - approx) < 2e-3

    def test_tables_are_memoised_per_link_class(self):
        abstraction = LinkAbstraction()
        abstraction.per(3.0, rate_mbps=2.0, payload_bytes=37)
        abstraction.per(5.0, rate_mbps=2.0, payload_bytes=37)
        assert abstraction.tables_built == 1
        abstraction.per(5.0, rate_mbps=11.0, payload_bytes=37)
        abstraction.per(5.0, rate_mbps=2.0, payload_bytes=64)
        assert abstraction.tables_built == 3
        assert abstraction.lookups == 4

    def test_out_of_grid_clamps_to_edges(self):
        abstraction = LinkAbstraction()
        low = abstraction.per(-60.0, rate_mbps=2.0, payload_bytes=37)
        high = abstraction.per(80.0, rate_mbps=2.0, payload_bytes=37)
        assert low == pytest.approx(1.0, abs=1e-6)
        assert high == pytest.approx(0.0, abs=1e-9)

    def test_vectorised_lookup(self):
        abstraction = LinkAbstraction()
        sinrs = np.array([-5.0, 0.0, 5.0])
        values = abstraction.per_array(sinrs, rate_mbps=2.0, payload_bytes=37)
        assert values.shape == sinrs.shape
        assert np.all(np.diff(values) <= 0.0)

    def test_monte_carlo_table_tracks_analytic(self):
        mc = LinkAbstraction(bin_width_db=2.0, sinr_min_db=-10, sinr_max_db=10, mc_trials=2000)
        exact = LinkAbstraction(bin_width_db=2.0, sinr_min_db=-10, sinr_max_db=10)
        for sinr in (-6.0, -2.0, 2.0):
            assert abs(
                mc.per(sinr, rate_mbps=2.0, payload_bytes=37)
                - exact.per(sinr, rate_mbps=2.0, payload_bytes=37)
            ) < 0.05

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            LinkAbstraction(sinr_min_db=5.0, sinr_max_db=-5.0)
        with pytest.raises(ConfigurationError):
            LinkAbstraction(bin_width_db=0.0)


class TestMediumFastPath:
    def _one_packet_outcome(self, medium, rng):
        tx = medium.begin(
            device_id=0, rssi_dbm=-70.0, duration_s=1e-3, psdu_bytes=37, rate_mbps=2.0, now=0.0
        )
        return medium.end(tx, now=1e-3, rng=rng)

    def test_fast_path_equivalent_outcomes(self):
        exact = self._one_packet_outcome(SharedMedium(), np.random.default_rng(1))
        fast = self._one_packet_outcome(
            SharedMedium(link_abstraction=LinkAbstraction()), np.random.default_rng(1)
        )
        assert fast.delivered == exact.delivered
        assert fast.sinr_db == exact.sinr_db
        assert abs(fast.packet_error_rate - exact.packet_error_rate) < 2e-3

    def test_fast_path_skips_per_packet_phy(self, monkeypatch):
        calls = {"n": 0}
        original = medium_module.wifi_packet_error_rate

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(medium_module, "wifi_packet_error_rate", counting)
        medium = SharedMedium(link_abstraction=LinkAbstraction())
        rng = np.random.default_rng(2)
        for _ in range(5):
            self._one_packet_outcome(medium, rng)
        assert calls["n"] == 0
        assert medium.link_abstraction.lookups == 5


class TestFleetFastPath:
    def test_fleet_metrics_match_exact_path(self):
        base = dict(num_devices=25, duration_s=1.0, mac="slotted_aloha", seed=99)
        exact = FleetSimulator(FleetScenario(**base)).run().aggregate()
        sim = FleetSimulator(FleetScenario(**base, engine="fast_path"))
        fast = sim.run().aggregate()
        # Same seed, same event sequence; the table PER differs from the
        # exact model by < 2e-3, so the Bernoulli draws land identically.
        assert fast.generated == exact.generated
        assert fast.delivered == exact.delivered
        assert sim.link_abstraction is not None
        assert sim.link_abstraction.tables_built == 1
        assert sim.link_abstraction.lookups > 0

    def test_fast_path_off_by_default(self):
        sim = FleetSimulator(FleetScenario(num_devices=2, duration_s=0.2))
        assert sim.link_abstraction is None
        assert sim.medium.link_abstraction is None
