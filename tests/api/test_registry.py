"""Tests for the central experiment registry."""

from __future__ import annotations

import pytest

from repro.api import experiment_names, get_experiment, iter_experiments, register
from repro.exceptions import ConfigurationError

ALL_EXPERIMENTS = [
    "coded_ofdm",
    "fig06",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "mac_scaling",
    "table_packet_sizes",
    "table_power",
]


class TestDiscovery:
    def test_all_fourteen_experiments_registered(self):
        assert sorted(experiment_names()) == sorted(ALL_EXPERIMENTS)

    def test_iter_matches_names(self):
        assert [e.name for e in iter_experiments()] == experiment_names()

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(ConfigurationError, match="fig11"):
            get_experiment("fig99")


class TestMetadata:
    def test_batch_engines_declared(self):
        for name in ("fig10", "fig11", "fig13", "fig14", "fig17"):
            experiment = get_experiment(name)
            assert experiment.engine_names == ("scalar", "batch")
            # The capability table carries a real implementation per engine.
            assert all(callable(impl) for impl in experiment.engines.values())

    def test_mac_scaling_declares_every_netsim_engine(self):
        experiment = get_experiment("mac_scaling")
        assert experiment.engine_names == ("scalar", "batched", "reference")
        assert experiment.default_engine == "scalar"

    def test_coded_ofdm_is_batch_only(self):
        experiment = get_experiment("coded_ofdm")
        assert experiment.engine_names == ("batch",)
        assert experiment.default_engine == "batch"

    def test_scalar_only_experiments(self):
        for name in ("fig06", "fig09", "fig12", "fig15", "fig16", "table_power", "table_packet_sizes"):
            assert get_experiment(name).engine_names == ("scalar",)

    def test_every_experiment_has_title_summary_and_schema(self):
        for experiment in iter_experiments():
            assert experiment.title
            assert experiment.summarize is not None
            assert experiment.parameters
            assert experiment.description

    def test_seed_introspection(self):
        fig11 = get_experiment("fig11")
        assert fig11.takes_seed and fig11.default_seed == 11
        table = get_experiment("table_power")
        assert not table.takes_seed and table.default_seed is None

    def test_paper_artifacts_labelled(self):
        artifacts = {e.name: e.artifact for e in iter_experiments()}
        assert artifacts["fig11"] == "Fig. 11"
        assert artifacts["mac_scaling"] is None

    def test_fast_params_respect_schema(self):
        for experiment in iter_experiments():
            experiment.check_params(experiment.fast_params)


class TestValidation:
    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            get_experiment("fig11").check_params({"bogus": 1})

    def test_duplicate_registration_rejected(self):
        existing = get_experiment("fig11")
        with pytest.raises(ConfigurationError, match="already registered"):
            register(name="fig11", title="dup", run=existing.run)

    def test_unknown_engine_rejected_at_registration(self):
        existing = get_experiment("fig11")
        with pytest.raises(ConfigurationError, match="unknown engines"):
            register(name="brand_new", title="x", run=existing.run, engines=("warp",))

    def test_experiment_is_callable(self):
        result = get_experiment("table_packet_sizes")()
        assert result.max_psdu_bytes[2.0] == 38
