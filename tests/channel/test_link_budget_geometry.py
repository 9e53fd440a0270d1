"""Tests for the backscatter link budget, geometry helpers and error models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.error_models import (
    WIFI_PROCESSING_GAIN_DB,
    ber_dbpsk,
    ber_dqpsk,
    ber_ook_envelope,
    ber_oqpsk_dsss,
    packet_error_rate,
    qfunc,
    wifi_packet_error_rate,
)
from repro.channel.geometry import (
    FEET_PER_METER,
    Position,
    feet_to_meters,
    fig10_geometry,
    inches_to_meters,
)
from repro.channel.link_budget import BackscatterLinkBudget, DirectLinkBudget
from repro.exceptions import ConfigurationError, LinkBudgetError

BER_MODELS = [ber_dbpsk, ber_dqpsk, ber_oqpsk_dsss, ber_ook_envelope]


class TestGeometry:
    def test_feet_meters_roundtrip(self):
        assert feet_to_meters(17.0) * FEET_PER_METER == pytest.approx(17.0)
        assert feet_to_meters(1.0) == pytest.approx(0.3048)

    def test_inches(self):
        assert inches_to_meters(12.0) == pytest.approx(0.3048)

    def test_position_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_fig10_geometry(self):
        bluetooth, tag, receiver = fig10_geometry(1.0, 30.0)
        assert bluetooth.distance_to(tag) == pytest.approx(feet_to_meters(1.0))
        # The receiver is perpendicular to the midpoint.
        assert receiver.x == pytest.approx((bluetooth.x + tag.x) / 2.0)
        assert receiver.y == pytest.approx(feet_to_meters(30.0))

    def test_distance_is_symmetric(self):
        a, b = Position(1.0, -2.0), Position(-3.5, 4.0)
        assert a.distance_to(b) == b.distance_to(a)
        assert a.distance_to(a) == 0.0

    @pytest.mark.parametrize("offset_feet", [0.0, 5.0, 30.0])
    def test_fig10_receiver_is_equidistant_from_both_transmitters(self, offset_feet):
        bluetooth, tag, receiver = fig10_geometry(3.0, offset_feet)
        assert receiver.distance_to(bluetooth) == pytest.approx(receiver.distance_to(tag))
        assert receiver.distance_to(tag) >= feet_to_meters(1.5) - 1e-12


class TestBackscatterLinkBudget:
    def test_rssi_decreases_with_distance(self):
        budget = BackscatterLinkBudget(source_power_dbm=10.0)
        near = budget.evaluate(0.3, 1.0).rssi_dbm
        far = budget.evaluate(0.3, 20.0).rssi_dbm
        assert near > far

    def test_rssi_increases_with_tx_power(self):
        low = BackscatterLinkBudget(source_power_dbm=0.0).evaluate(0.3, 5.0).rssi_dbm
        high = BackscatterLinkBudget(source_power_dbm=20.0).evaluate(0.3, 5.0).rssi_dbm
        assert high == pytest.approx(low + 20.0, abs=0.1)

    def test_two_hop_product_channel(self):
        # Doubling the first hop distance costs as much as doubling the second
        # (both hops beyond the 1 m path-loss reference distance).
        budget = BackscatterLinkBudget(source_power_dbm=10.0)
        base = budget.evaluate(2.0, 3.0).rssi_dbm
        first = budget.evaluate(4.0, 3.0).rssi_dbm
        second = budget.evaluate(2.0, 6.0).rssi_dbm
        assert first == pytest.approx(second, abs=0.2)
        assert first < base

    def test_tissue_attenuates_both_hops(self):
        bare = BackscatterLinkBudget(source_power_dbm=10.0)
        implanted = BackscatterLinkBudget(source_power_dbm=10.0, tissue="muscle_0_75_inch")
        difference = bare.evaluate(0.1, 2.0).rssi_dbm - implanted.evaluate(0.1, 2.0).rssi_dbm
        from repro.channel.tissue import tissue_attenuation_db

        assert difference == pytest.approx(tissue_attenuation_db("muscle_0_75_inch", passes=2), abs=0.1)

    def test_incident_power_reported(self):
        budget = BackscatterLinkBudget(source_power_dbm=10.0)
        result = budget.evaluate(0.3, 5.0)
        assert result.incident_power_dbm > result.rssi_dbm

    def test_detectable_flag(self):
        budget = BackscatterLinkBudget(source_power_dbm=20.0, receiver_sensitivity_dbm=-94.0)
        assert budget.evaluate(0.3, 1.0).detectable
        assert not budget.evaluate(0.3, 500.0).detectable

    def test_unknown_antenna(self):
        with pytest.raises(LinkBudgetError):
            BackscatterLinkBudget(tag_antenna="dish")

    def test_negative_distance(self):
        with pytest.raises(LinkBudgetError):
            BackscatterLinkBudget().evaluate(-1.0, 1.0)

    def test_rssi_sweep_shape(self):
        budget = BackscatterLinkBudget()
        sweep = budget.rssi_sweep(0.3, np.array([1.0, 5.0, 10.0]))
        assert sweep.size == 3
        assert np.all(np.diff(sweep) < 0)


class TestDirectLinkBudget:
    def test_received_power_decreases(self):
        budget = DirectLinkBudget(tx_power_dbm=15.0)
        assert budget.received_power_dbm(1.0) > budget.received_power_dbm(10.0)

    def test_snr_uses_noise_model(self):
        budget = DirectLinkBudget(tx_power_dbm=15.0)
        assert budget.snr_db(2.0) == pytest.approx(
            budget.received_power_dbm(2.0) - budget.noise.noise_floor_dbm
        )


class TestErrorModels:
    def test_ber_decreases_with_snr(self):
        assert ber_dqpsk(20.0) < ber_dqpsk(5.0) <= 0.5

    def test_all_ber_models_bounded(self):
        for model in (ber_dbpsk, ber_dqpsk, ber_oqpsk_dsss, ber_ook_envelope):
            assert 0.0 <= model(-20.0) <= 0.5
            assert 0.0 <= model(30.0) <= 0.5

    def test_per_increases_with_length(self):
        assert packet_error_rate(1e-4, 2000) > packet_error_rate(1e-4, 100)

    def test_wifi_per_similar_for_2_and_11_mbps_short_payloads(self):
        # The Fig. 11 observation: short payloads + shared 1 Mbps header.
        for snr in (8.0, 10.0, 12.0):
            per2 = wifi_packet_error_rate(snr, rate_mbps=2.0, payload_bytes=31)
            per11 = wifi_packet_error_rate(snr, rate_mbps=11.0, payload_bytes=77)
            assert abs(per2 - per11) < 0.25

    def test_wifi_per_monotonic_in_snr(self):
        pers = [wifi_packet_error_rate(snr, rate_mbps=2.0, payload_bytes=31) for snr in (0, 5, 10, 15)]
        assert all(a >= b for a, b in zip(pers, pers[1:], strict=False))

    def test_qfunc_known_values(self):
        assert qfunc(0.0) == pytest.approx(0.5)
        assert qfunc(1.0) == pytest.approx(0.158655, abs=1e-6)
        assert qfunc(-1.0) == pytest.approx(1.0 - qfunc(1.0))

    @pytest.mark.parametrize("model", BER_MODELS, ids=lambda model: model.__name__)
    def test_ber_models_broadcast_like_scalar_calls(self, model):
        # The batched engines pass SNR arrays where the scalar drivers pass floats.
        snrs = np.array([-5.0, 0.0, 5.0, 10.0])
        batched = model(snrs)
        assert isinstance(batched, np.ndarray)
        assert isinstance(model(5.0), float)
        assert batched.tolist() == [model(float(snr)) for snr in snrs]

    def test_ook_envelope_array_is_bit_for_bit_its_scalar_calls(self):
        # Dense and non-round: numpy's array ``**`` differs from the scalar one here.
        snrs = np.random.default_rng(2).uniform(-20.0, 40.0, 5000)
        assert ber_ook_envelope(snrs).tolist() == [ber_ook_envelope(snr) for snr in snrs.tolist()]

    def test_processing_gain_is_barker_11(self):
        assert WIFI_PROCESSING_GAIN_DB == pytest.approx(10.41, abs=0.01)

    def test_faster_rate_needs_proportionally_more_snr(self):
        # Eb/N0 = SNR + 10 log10(B / R): 5.5x the bit rate costs 10 log10(5.5) dB.
        shift = 10.0 * np.log10(5.5)
        assert ber_dbpsk(3.0 + shift, bit_rate_bps=5.5e6) == pytest.approx(ber_dbpsk(3.0, bit_rate_bps=1e6))

    def test_ook_envelope_closed_form(self):
        assert ber_ook_envelope(0.0) == pytest.approx(0.5 * np.exp(-0.25))

    def test_non_positive_rate_or_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ber_dbpsk(10.0, bit_rate_bps=0.0)
        with pytest.raises(ConfigurationError):
            ber_oqpsk_dsss(10.0, bandwidth_hz=-1.0)

    def test_per_edge_cases(self):
        assert packet_error_rate(0.0, 1000) == 0.0
        assert packet_error_rate(1.0, 8) == 1.0
        assert packet_error_rate(0.01, 1) == pytest.approx(0.01)
        with pytest.raises(ConfigurationError):
            packet_error_rate(0.01, 0)

    def test_wifi_per_rejects_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            wifi_packet_error_rate(10.0, rate_mbps=6.0, payload_bytes=31)
        with pytest.raises(ConfigurationError):
            wifi_packet_error_rate(10.0, rate_mbps=2.0, payload_bytes=0)

    def test_wifi_per_grows_with_rate_at_fixed_payload(self):
        pers = [wifi_packet_error_rate(4.0, rate_mbps=rate, payload_bytes=100) for rate in (1.0, 5.5)]
        assert pers[0] < pers[1]

    def test_wifi_per_broadcasts_over_snr(self):
        snrs = np.array([0.0, 4.0, 8.0])
        batched = wifi_packet_error_rate(snrs, rate_mbps=11.0, payload_bytes=77)
        assert batched.tolist() == [wifi_packet_error_rate(float(s), rate_mbps=11.0, payload_bytes=77) for s in snrs]

    @given(st.floats(min_value=0.0, max_value=0.2), st.integers(min_value=1, max_value=4000))
    def test_property_per_bounds(self, ber, bits):
        per = packet_error_rate(ber, bits)
        assert 0.0 <= per <= 1.0
        # A packet fails at least as often as a single bit (allow float rounding).
        assert per >= ber - 1e-9
