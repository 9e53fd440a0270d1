"""Tests for the vectorised link-budget helpers and the experiment engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.channel.link_budget import BackscatterLinkBudget, DirectLinkBudget
from repro.channel.propagation import PathLossModel
from repro.channel.tissue import TISSUE_PRESETS
from repro.experiments import fig11_per, fig13_downlink_ber, fig14_zigbee_rssi
from repro.mc import backscatter_link_batch
from repro.obs.metrics import Collector


class TestBackscatterLinkBatch:
    def test_matches_scalar_without_shadowing(self):
        budget = BackscatterLinkBudget(source_power_dbm=10.0)
        distances = np.array([0.5, 2.0, 8.0])
        batch = backscatter_link_batch(budget, 0.3, distances)
        for index, distance in enumerate(distances):
            scalar = budget.evaluate(0.3, float(distance))
            assert batch.rssi_dbm[index] == scalar.rssi_dbm
            assert batch.incident_power_dbm[index] == scalar.incident_power_dbm
            assert batch.snr_db[index] == scalar.snr_db
            assert bool(batch.detectable[index]) == scalar.detectable

    def test_shadowing_statistics_match_scalar(self):
        budget = BackscatterLinkBudget(
            source_power_dbm=4.0, path_loss=PathLossModel(shadowing_sigma_db=4.0)
        )
        rng_scalar = np.random.default_rng(0)
        rng_batch = np.random.default_rng(1)
        scalar = np.array(
            [budget.evaluate(0.3, 5.0, rng=rng_scalar).rssi_dbm for _ in range(4000)]
        )
        batch = backscatter_link_batch(
            budget, 0.3, np.full(4000, 5.0), rng=rng_batch
        ).rssi_dbm
        assert abs(scalar.mean() - batch.mean()) < 0.5
        assert abs(scalar.std() - batch.std()) < 0.5

    def test_omitted_rng_still_draws_shadowing(self):
        # Parity with PathLossModel.loss_db: no rng means an unseeded draw,
        # not silently disabled shadowing.
        budget = BackscatterLinkBudget(path_loss=PathLossModel(shadowing_sigma_db=4.0))
        rssi = backscatter_link_batch(budget, 0.3, np.full(500, 5.0)).rssi_dbm
        assert float(np.std(rssi)) > 1.0

    def test_scalar_hop_broadcasts(self):
        budget = BackscatterLinkBudget()
        batch = backscatter_link_batch(budget, 0.3, np.array([1.0, 2.0]))
        assert batch.rssi_dbm.shape == (2,)
        assert batch.rssi_dbm[0] > batch.rssi_dbm[1]


class TestDirectRssiBatch:
    def test_matches_scalar(self):
        budget = DirectLinkBudget(tx_power_dbm=20.0)
        distances = np.array([0.5, 3.0, 7.5])
        batch = budget.received_power_dbm(distances)
        for index, distance in enumerate(distances):
            scalar = budget.received_power_dbm(float(distance))
            assert type(scalar) is float
            assert batch[index] == scalar

    @pytest.mark.parametrize("tissue", sorted(TISSUE_PRESETS))
    def test_tissue_layer_matches_scalar(self, tissue):
        budget = DirectLinkBudget(tx_power_dbm=20.0, tissue=tissue)
        distances = np.array([0.5, 3.0])
        batch = budget.received_power_dbm(distances)
        for index, distance in enumerate(distances):
            assert batch[index] == budget.received_power_dbm(float(distance))
        open_air = DirectLinkBudget(tx_power_dbm=20.0).received_power_dbm(distances)
        np.testing.assert_allclose(open_air - batch, TISSUE_PRESETS[tissue].one_way_loss_db)

    def test_one_shadowing_draw_per_element(self):
        sigma = 4.0
        shadowed = DirectLinkBudget(tx_power_dbm=20.0, path_loss=PathLossModel(shadowing_sigma_db=sigma))
        distances = np.array([1.0, 2.0, 4.0])
        collector = Collector()
        with collector.activate():
            rssi = shadowed.received_power_dbm(distances, rng=np.random.default_rng(5))
        assert collector.counters["channel.link_realisations"] == distances.size
        draws = np.random.default_rng(5).normal(0.0, sigma, size=distances.size)
        expected = DirectLinkBudget(tx_power_dbm=20.0).received_power_dbm(distances) - draws
        np.testing.assert_allclose(rssi, expected, rtol=0, atol=1e-12)


class TestExperimentEngines:
    """The batch engine must agree with the scalar loop up to MC noise."""

    def test_fig11_batch_matches_scalar_distribution(self):
        scalar = fig11_per.run(num_locations=300, num_packets=100, engine="scalar")
        batch = fig11_per.run(num_locations=300, num_packets=100, engine="batch")
        for rate in (2.0, 11.0):
            assert abs(scalar.median_per[rate] - batch.median_per[rate]) < 0.1
            assert (
                abs(
                    float(np.mean(scalar.per_by_rate[rate]))
                    - float(np.mean(batch.per_by_rate[rate]))
                )
                < 0.08
            )

    def test_fig13_batch_matches_scalar_curve(self):
        scalar = fig13_downlink_ber.run(engine="scalar")
        batch = fig13_downlink_ber.run(engine="batch")
        assert np.array_equal(scalar.distances_feet, batch.distances_feet)
        # Identical analytic RSSI/BER inputs; only the binomial draws differ.
        assert np.allclose(scalar.rssi_dbm, batch.rssi_dbm)
        assert abs(scalar.range_below_1pct_feet - batch.range_below_1pct_feet) <= 2.0
        assert np.all(np.abs(scalar.ber - batch.ber) < 0.12)

    def test_fig14_batch_matches_scalar_distribution(self):
        scalar = fig14_zigbee_rssi.run(packets_per_location=200, engine="scalar")
        batch = fig14_zigbee_rssi.run(packets_per_location=200, engine="batch")
        assert abs(scalar.median_rssi_dbm - batch.median_rssi_dbm) < 1.0
        assert abs(scalar.detectable_fraction - batch.detectable_fraction) < 0.05

    def test_unknown_engine_rejected(self):
        for runner in (fig11_per.run, fig13_downlink_ber.run, fig14_zigbee_rssi.run):
            with pytest.raises(ConfigurationError):
                runner(engine="warp")
