"""Qualitative checks on every experiment driver.

Each test asserts the paper's headline finding for that table/figure — the
shape of the result, not the absolute numbers (our substrate is a
simulation, not the authors' testbed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Runner
from repro.api.placement import MAX_GRID_POINTS, distance_grid
from repro.apps.card_to_card import CARD_PAYLOAD_BITS, CardToCardLink
from repro.channel.geometry import feet_to_meters
from repro.core.downlink import InterscatterDownlink
from repro.exceptions import ConfigurationError
from repro.experiments import (
    fig06_sideband,
    fig09_single_tone,
    fig10_rssi,
    fig11_per,
    fig12_coexistence,
    fig13_downlink_ber,
    fig14_zigbee_rssi,
    fig15_contact_lens,
    fig16_neural_implant,
    fig17_card_to_card,
    mac_scaling,
    table_packet_sizes,
    table_power,
)


class TestFig06:
    def test_ssb_suppresses_mirror_dsb_does_not(self):
        result = fig06_sideband.run()
        assert result.ssb_image_rejection_db > 10.0
        assert abs(result.dsb_image_rejection_db) < 3.0


class TestFig09:
    def test_single_tone_on_all_three_devices(self):
        result = fig09_single_tone.run()
        assert set(result.devices) == {"ti_cc2650", "galaxy_s5", "moto360"}
        for device in result.devices.values():
            # Crafted payload collapses the ~1-2 MHz BLE signal into a tone.
            assert device.tone_bandwidth_hz < device.random_bandwidth_hz / 3.0
            assert device.tone_peak_offset_hz == pytest.approx(250e3, abs=60e3)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_rssi.run(step_feet=5.0)

    def test_higher_power_more_rssi(self, result):
        weak = result.curve(0.0, 1.0)
        strong = result.curve(20.0, 1.0)
        assert np.all(strong.rssi_dbm > weak.rssi_dbm)

    def test_20dbm_reaches_about_90_feet(self, result):
        assert result.curve(20.0, 1.0).range_feet >= 80.0

    def test_closer_bluetooth_gives_more_range(self, result):
        assert result.curve(10.0, 1.0).range_feet >= result.curve(10.0, 3.0).range_feet

    def test_rssi_monotonically_decreasing(self, result):
        curve = result.curve(10.0, 1.0)
        assert np.all(np.diff(curve.rssi_dbm) < 0)


class TestFig11:
    def test_rates_have_similar_per(self):
        result = fig11_per.run(num_locations=30, num_packets=100, tx_power_dbm=0.0)
        # The two rates behave similarly across the deployment: identical at
        # most locations (good RSSI), diverging only in the narrow cliff
        # region, so the typical (median) PERs coincide and the mean gap is
        # bounded.
        assert abs(result.median_per[2.0] - result.median_per[11.0]) < 0.1
        assert result.mean_rate_gap < 0.3
        # Some locations show high loss (the >30 % tail the paper mentions).
        assert np.max(result.per_by_rate[2.0]) > 0.1


class TestFig12:
    def test_paper_findings(self):
        result = fig12_coexistence.run()
        baseline = result.baseline_mbps
        # 50 pkt/s: negligible impact for both designs.
        assert result.throughput("double_sideband", 50.0) > 0.8 * baseline
        # 650-1000 pkt/s: DSB collapses the flow, SSB does not.
        assert result.throughput("double_sideband", 1000.0) < 0.3 * baseline
        assert result.throughput("single_sideband", 1000.0) > 0.9 * baseline


#: Batch-engine parameters the bit-for-bit checks run: defaults, fast params and a fine grid.
_FIG13_BATCH_PARAMS = ({}, {"step_feet": 2.0, "message_bits": 256}, {"step_feet": 0.1, "tx_power_dbm": 14.5})
_FIG17_BATCH_PARAMS = (
    {},
    {"messages_per_point": 20, "step_inches": 4.0},
    {"step_inches": 0.1, "phone_power_dbm": 7.0, "phone_to_transmitter_inches": 4.5},
)


def _fig13_per_point_batch(max_distance_feet=26.0, step_feet=1.0, tx_power_dbm=20.0, message_bits=512, seed=13):
    """The reference: fig13's batch engine with one downlink evaluation per distance."""
    rng = np.random.default_rng(seed)
    downlink = InterscatterDownlink(rng=rng)
    distances = distance_grid(1.0, max_distance_feet, step_feet)
    rng.integers(0, 2, message_bits)
    analytic = np.empty(distances.size)
    rssi = np.empty(distances.size)
    for index, distance in enumerate(distances):
        analytic[index], rssi[index] = downlink.link_bit_error_rate(
            feet_to_meters(float(distance)), tx_power_dbm=tx_power_dbm
        )
    return rng.binomial(message_bits, analytic, size=distances.size) / message_bits, rssi


def _fig17_per_point_batch(
    phone_power_dbm=10.0,
    phone_to_transmitter_inches=3.0,
    max_separation_inches=34.0,
    step_inches=2.0,
    messages_per_point=200,
    seed=17,
):
    """The reference: fig17's batch engine with one card-link evaluation per separation."""
    rng = np.random.default_rng(seed)
    link = CardToCardLink(
        phone_power_dbm=phone_power_dbm, phone_to_transmitter_inches=phone_to_transmitter_inches, rng=rng
    )
    separations = distance_grid(2.0, max_separation_inches, step_inches)
    analytic = np.array([link.bit_error_rate(float(separation)) for separation in separations])
    total_bits = messages_per_point * CARD_PAYLOAD_BITS
    return analytic, rng.binomial(total_bits, analytic, size=separations.size) / total_bits


class TestFig13:
    def test_low_ber_out_to_about_18_feet(self):
        result = fig13_downlink_ber.run()
        assert 14.0 <= result.range_below_1pct_feet <= 24.0
        # Beyond the cliff the BER rises sharply.
        assert result.ber[-1] > 0.2

    @pytest.mark.parametrize("params", _FIG13_BATCH_PARAMS, ids=("defaults", "fast", "fine-grid"))
    def test_batch_engine_is_bit_for_bit_the_per_point_loop(self, params):
        result = fig13_downlink_ber.run(engine="batch", **params)
        ber, rssi = _fig13_per_point_batch(**params)
        assert result.ber.tolist() == ber.tolist()
        assert result.rssi_dbm.tolist() == rssi.tolist()

    def test_batch_run_evaluates_one_link_per_distance(self):
        result = Runner().run("fig13", engine="batch")
        assert result.telemetry["counters"]["channel.link_realisations"] == 26


class TestFig14:
    def test_rssi_distribution(self):
        result = fig14_zigbee_rssi.run()
        assert result.detectable_fraction > 0.9
        assert -95.0 < result.median_rssi_dbm < -55.0
        values, fractions = result.cdf
        assert np.all(np.diff(values) >= 0)
        assert fractions[-1] == pytest.approx(1.0)


class TestFig15:
    def test_contact_lens_range(self):
        result = fig15_contact_lens.run()
        assert result.range_by_power[20.0] >= 24.0
        assert result.range_by_power[20.0] >= result.range_by_power[10.0]
        for rssi in result.rssi_by_power.values():
            assert np.all(np.diff(rssi) < 0)


class TestFig16:
    def test_neural_implant_range(self):
        result = fig16_neural_implant.run()
        # Tens of inches — far beyond the 1-2 cm of prior implant readers.
        assert result.range_by_power[10.0] >= 10.0
        assert result.range_by_power[20.0] >= result.range_by_power[10.0]


class TestFig17:
    def test_card_to_card_range(self):
        result = fig17_card_to_card.run(messages_per_point=50)
        assert 20.0 <= result.usable_range_inches <= 36.0
        assert np.all(np.diff(result.analytic_ber) >= 0)

    @pytest.mark.parametrize("params", _FIG17_BATCH_PARAMS, ids=("defaults", "fast", "fine-grid"))
    def test_batch_engine_is_bit_for_bit_the_per_point_loop(self, params):
        result = fig17_card_to_card.run(engine="batch", **params)
        analytic, measured = _fig17_per_point_batch(**params)
        assert result.analytic_ber.tolist() == analytic.tolist()
        assert result.measured_ber.tolist() == measured.tolist()

    @pytest.mark.parametrize(
        ("engine", "params", "realisations"),
        (
            ("batch", {}, 17),
            # One per separation for the analytic curve, then one per message.
            ("scalar", {"messages_per_point": 20, "step_inches": 4.0}, 9 + 9 * 20),
        ),
        ids=("batch-defaults", "scalar-fast"),
    )
    def test_link_realisations_per_run(self, engine, params, realisations):
        result = Runner().run("fig17", engine=engine, params=params)
        assert result.telemetry["counters"]["channel.link_realisations"] == realisations


class TestTables:
    def test_power_budget(self):
        result = table_power.run()
        reference = result.reference
        assert reference.total_uw == pytest.approx(28.0, abs=0.1)
        for key, value in table_power.PAPER_POWER_UW.items():
            if key != "total_uw":
                assert getattr(reference, key) == pytest.approx(value, abs=0.01)
        assert result.savings_vs_active["zigbee_active_tx"] > 500.0

    def test_packet_sizes(self):
        result = table_packet_sizes.run()
        assert result.max_psdu_bytes == table_packet_sizes.PAPER_PACKET_SIZES
        assert not result.one_mbps_fits
        assert result.goodput_bps[11.0] > result.goodput_bps[2.0]


class TestMacScaling:
    def test_sweep_shapes_and_contention(self):
        result = mac_scaling.run(
            fleet_sizes=(1, 30), macs=("aloha", "tdma"), duration_s=1.0
        )
        assert result.macs == ("aloha", "tdma")
        for series in (result.delivery_ratio, result.throughput_bps, result.attempt_per):
            assert set(series) == {"aloha", "tdma"}
            assert all(v.shape == (2,) for v in series.values())
        # Contention costs ALOHA attempts; polling stays collision-free.
        assert result.attempt_per["aloha"][1] > result.attempt_per["aloha"][0]
        assert result.attempt_per["tdma"][1] < 0.05
        assert result.utilization["aloha"][1] > result.utilization["aloha"][0]


class TestMacScalingEpochEngine:
    @pytest.fixture(scope="class")
    def result(self):
        return mac_scaling.run(
            fleet_sizes=(5, 25, 75),
            macs=("aloha", "tdma"),
            period_s=0.005,
            duration_s=1.0,
            engine="batched",
        )

    def test_sweep_shapes(self, result):
        assert result.macs == ("aloha", "tdma")
        for series in (result.delivery_ratio, result.throughput_bps, result.utilization):
            assert set(series) == {"aloha", "tdma"}
            assert all(v.shape == (3,) for v in series.values())

    def test_random_access_collapses_polling_degrades_gracefully(self, result):
        aloha = result.delivery_ratio["aloha"]
        tdma = result.delivery_ratio["tdma"]
        assert aloha[0] > 0.9 > aloha[-1]
        assert tdma[-1] > aloha[-1]

    def test_driver_hooks_cover_every_mac(self, result):
        lines = mac_scaling.summarize(result)
        assert len(lines) == len(result.macs) + 1
        scalars = mac_scaling.metrics(result)
        assert set(scalars) == {"delivery_aloha", "delivery_tdma", "goodput_kbps_aloha", "goodput_kbps_tdma"}
        figure = mac_scaling.plot(result)
        assert len(figure.series) == len(result.macs)

    def test_contention_knobs_reach_the_epoch_mac(self):
        def sweep(**knobs):
            return mac_scaling.run(
                fleet_sizes=(25,), macs=("aloha",), period_s=0.005, duration_s=0.5, engine="batched", **knobs
            )

        strict = sweep(max_attempts=1)
        lax = sweep(max_attempts=8)
        # A deeper retry ladder means strictly more attempts on a saturated channel.
        assert lax.attempt_per["aloha"][0] != strict.attempt_per["aloha"][0]
        assert sweep(duty_cycle=0.05).utilization["aloha"][0] < lax.utilization["aloha"][0]

    def test_duty_cycle_is_rejected_on_the_heap_engine(self):
        with pytest.raises(ConfigurationError, match="duty_cycle"):
            mac_scaling.run(fleet_sizes=(5,), macs=("aloha",), duration_s=0.2, duty_cycle=0.5, engine="scalar")


#: Each distance-sweep driver's (step, stop) parameters; every grid starts at or above 1.
_GRID_KNOBS = {
    "fig10": ("step_feet", "max_distance_feet"),
    "fig13": ("step_feet", "max_distance_feet"),
    "fig15": ("step_inches", "max_distance_inches"),
    "fig16": ("step_inches", "max_distance_inches"),
    "fig17": ("step_inches", "max_separation_inches"),
}


@pytest.mark.parametrize(
    ("knob", "value"),
    (
        ("step", 0.0),
        ("step", -1.0),
        ("step", float("nan")),
        ("step", float("inf")),
        ("step", True),
        ("stop", 0.5),
        # Every grid spans at least one unit, so this step overshoots the cap.
        ("step", 1.0 / MAX_GRID_POINTS),
    ),
    ids=("step=0", "step=-1", "step=nan", "step=inf", "step=True", "stop-below-start", "over-the-point-cap"),
)
@pytest.mark.parametrize("experiment", sorted(_GRID_KNOBS))
def test_a_distance_grid_no_sweep_can_use_is_rejected(experiment, knob, value):
    step, stop = _GRID_KNOBS[experiment]
    with pytest.raises(ConfigurationError):
        Runner().run(experiment, params={step if knob == "step" else stop: value})
