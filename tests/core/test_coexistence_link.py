"""Tests for the coexistence model and the link façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coexistence import CoexistenceSimulator
from repro.core.link import InterscatterLink
from repro.core.uplink import UplinkTarget
from repro.exceptions import ConfigurationError


class TestCoexistence:
    def test_baseline_unaffected(self):
        simulator = CoexistenceSimulator(baseline_throughput_mbps=20.0)
        assert simulator.evaluate("baseline", 1000.0).iperf_throughput_mbps == pytest.approx(20.0)

    def test_low_rate_negligible_for_both(self):
        simulator = CoexistenceSimulator()
        ssb = simulator.evaluate("single_sideband", 50.0).iperf_throughput_mbps
        dsb = simulator.evaluate("double_sideband", 50.0).iperf_throughput_mbps
        assert ssb > 0.9 * simulator.baseline_throughput_mbps
        assert dsb > 0.8 * simulator.baseline_throughput_mbps

    def test_dsb_collapses_at_high_rate(self):
        simulator = CoexistenceSimulator()
        dsb = simulator.evaluate("double_sideband", 1000.0).iperf_throughput_mbps
        ssb = simulator.evaluate("single_sideband", 1000.0).iperf_throughput_mbps
        assert dsb < 0.3 * simulator.baseline_throughput_mbps
        assert ssb > 0.9 * simulator.baseline_throughput_mbps

    def test_sweep_covers_paper_rates(self):
        results = CoexistenceSimulator().sweep()
        rates = {r.backscatter_rate_pps for r in results if r.scenario != "baseline"}
        assert rates == {50.0, 650.0, 1000.0}

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            CoexistenceSimulator().evaluate("quad_sideband", 100.0)


class TestInterscatterLink:
    def test_statistical_exchange(self):
        link = InterscatterLink(wifi_rate_mbps=2.0, rng=np.random.default_rng(0))
        result = link.transmit(b"hello", query_bits=np.array([1, 0, 1], dtype=np.uint8))
        assert result.crc_ok
        assert result.downlink is not None
        assert result.tag_energy_uj > 0.0

    def test_waveform_exchange(self):
        link = InterscatterLink(use_waveform_pipeline=True, rng=np.random.default_rng(0))
        result = link.transmit(b"waveform path")
        assert result.crc_ok
        assert result.uplink.payload == b"waveform path"

    def test_oversized_payload_rejected(self):
        link = InterscatterLink(wifi_rate_mbps=2.0)
        with pytest.raises(ConfigurationError):
            link.transmit(b"x" * 60)

    def test_empty_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            InterscatterLink().transmit(b"")

    def test_rssi_and_per_helpers(self):
        link = InterscatterLink(bluetooth_power_dbm=20.0, rng=np.random.default_rng(0))
        assert link.rssi_at(10.0) > link.rssi_at(60.0)
        assert link.packet_error_rate_at(60.0) >= link.packet_error_rate_at(10.0)

    def test_zigbee_target(self):
        link = InterscatterLink(target=UplinkTarget.ZIGBEE_802154, rng=np.random.default_rng(0))
        result = link.transmit(b"zigbee hello")
        assert result.uplink.target is UplinkTarget.ZIGBEE_802154
