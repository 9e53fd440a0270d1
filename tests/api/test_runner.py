"""Tests for the engine-dispatching Runner and ExperimentSpec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentSpec, Runner, load_specs, payload_equal
from repro.exceptions import ConfigurationError
from repro.netsim import FleetScenario


class TestSeedPolicy:
    def test_driver_default_seed_used_when_unset(self):
        result = Runner().run("fig11", params={"num_locations": 5, "num_packets": 10})
        assert result.seed == 11

    def test_runner_seed_applies_to_seedable_experiments(self):
        result = Runner(seed=321).run("fig11", params={"num_locations": 5, "num_packets": 10})
        assert result.seed == 321

    def test_params_seed_beats_spec_and_runner(self):
        runner = Runner(seed=1)
        spec = ExperimentSpec("fig11", params={"num_locations": 5, "num_packets": 10, "seed": 99})
        assert runner.run(spec).seed == 99

    def test_spec_seed_beats_runner(self):
        runner = Runner(seed=1)
        spec = ExperimentSpec("fig11", params={"num_locations": 5, "num_packets": 10}, seed=42)
        assert runner.run(spec).seed == 42

    def test_deterministic_experiment_records_no_seed(self):
        result = Runner(seed=5).run("table_power")
        assert result.seed is None

    def test_same_seed_is_reproducible(self):
        params = {"num_locations": 8, "num_packets": 20}
        first = Runner(seed=7).run("fig11", params=params)
        second = Runner(seed=7).run("fig11", params=params)
        assert payload_equal(first.payload, second.payload)

    def test_different_seeds_differ(self):
        params = {"num_locations": 8, "num_packets": 20}
        first = Runner(seed=7).run("fig11", params=params)
        second = Runner(seed=8).run("fig11", params=params)
        assert not payload_equal(first.payload, second.payload)


class TestEngineDispatch:
    def test_default_engine_is_scalar(self):
        assert Runner().run("table_power").engine == "scalar"

    def test_batch_engine_dispatches(self):
        result = Runner().run("fig14", engine="batch", params={"packets_per_location": 5})
        assert result.engine == "batch"

    def test_unsupported_engine_raises_not_falls_back(self):
        with pytest.raises(ConfigurationError, match="engine not supported"):
            Runner().run("fig15", engine="batch")

    def test_unsupported_engine_raises_for_tables(self):
        with pytest.raises(ConfigurationError, match="engine not supported"):
            Runner().run("table_power", engine="fast_path")

    def test_runner_level_engine_checked_per_experiment(self):
        runner = Runner(engine="batch")
        assert runner.run("fig11", params={"num_locations": 5, "num_packets": 10}).engine == "batch"
        with pytest.raises(ConfigurationError, match="engine not supported"):
            runner.run("fig12")

    def test_removed_fast_path_engine_is_rejected_everywhere(self):
        # The heap engine's PER-table twin is gone and no alias runs it as
        # another engine: the scenario, the runner and a grid naming it fail.
        with pytest.raises(ConfigurationError, match=r"unknown netsim engine 'fast_path'; available: \["):
            FleetScenario(engine="fast_path")
        with pytest.raises(ConfigurationError, match="engine not supported"):
            Runner().run("mac_scaling", engine="fast_path", params={"fleet_sizes": (1,), "duration_s": 0.2})
        sweep = {
            "experiment": "mac_scaling",
            "grid": {"fleet_sizes": [[100], [200]]},
            "engine": "fast_path",
            "replicates": 3,
        }
        with pytest.raises(ConfigurationError, match="engine not supported"):
            load_specs({"sweeps": [sweep]})

    def test_fig10_batch_matches_scalar_exactly(self):
        scalar = Runner().run("fig10", params={"step_feet": 10.0}).payload
        batch = Runner().run("fig10", engine="batch", params={"step_feet": 10.0}).payload
        for key, curve in scalar.curves.items():
            assert np.allclose(curve.rssi_dbm, batch.curves[key].rssi_dbm)
            assert curve.range_feet == batch.curves[key].range_feet


    def test_repro_backend_environment_is_ignored(self, monkeypatch):
        params = {"packets_per_location": 5}
        reference = Runner().run("fig14", engine="batch", params=params)
        monkeypatch.setenv("REPRO_BACKEND", "warp-drive")
        result = Runner().run("fig14", engine="batch", params=params)
        assert result.to_dict().keys() == reference.to_dict().keys()
        assert payload_equal(result.payload, reference.payload)


class TestSpecs:
    def test_engine_inside_params_rejected(self):
        with pytest.raises(ConfigurationError, match="params\\['engine'\\]"):
            Runner().run(ExperimentSpec("fig11", params={"engine": "batch"}))

    def test_seed_in_params_and_spec_rejected(self):
        spec = ExperimentSpec("fig11", params={"seed": 1}, seed=2)
        with pytest.raises(ConfigurationError, match="seed given both"):
            Runner().run(spec)

    def test_spec_seed_on_a_deterministic_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="deterministic"):
            ExperimentSpec("table_power", seed=3).resolve()
        with pytest.raises(ConfigurationError, match="deterministic"):
            Runner().run("table_power", seed=3)
        # A runner-wide seed stays a default that deterministic experiments ignore.
        assert Runner(seed=3).run("table_power").seed is None

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            Runner().run("fig11", params={"bogus": 1})

    def test_backend_param_rejected_as_unknown(self):
        with pytest.raises(ConfigurationError, match=r"no parameter\(s\) \['backend'\]"):
            Runner().run(ExperimentSpec("fig14", engine="batch", params={"backend": "numpy"}))

    def test_spec_dict_roundtrip(self):
        spec = ExperimentSpec("fig10", params={"step_feet": 10.0}, engine="batch")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_run_batch_executes_in_order(self):
        specs = [
            ExperimentSpec("table_packet_sizes"),
            ExperimentSpec("fig11", params={"num_locations": 5, "num_packets": 10}, engine="batch"),
        ]
        results = Runner().run_batch(specs)
        assert [r.experiment for r in results] == ["table_packet_sizes", "fig11"]
        assert results[1].engine == "batch"

    def test_run_with_overrides_on_spec(self):
        spec = ExperimentSpec("fig11", params={"num_locations": 5, "num_packets": 10})
        result = Runner().run(spec, engine="batch", seed=123)
        assert result.engine == "batch"
        assert result.seed == 123


class TestRunAll:
    def test_run_all_fast_covers_every_experiment(self):
        results = Runner().run_all(fast=True, names=["table_power", "table_packet_sizes", "fig13"])
        assert sorted(r.experiment for r in results) == ["fig13", "table_packet_sizes", "table_power"]
        for result in results:
            assert result.runtime_s >= 0.0
            assert result.payload is not None

    def test_run_all_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="fig9"):
            Runner().run_all(names=["fig9"])


class TestPlacementHelpers:
    def test_furthest_reach_strict_excludes_exact_threshold(self):
        from repro.api import furthest_reach

        grid = np.array([1.0, 2.0, 3.0])
        values = np.array([0.0, 0.01, 0.5])
        assert furthest_reach(grid, values, 0.01, below=True) == 2.0
        assert furthest_reach(grid, values, 0.01, below=True, strict=True) == 1.0
        assert furthest_reach(grid, values, 0.01, strict=True) == 3.0
        assert furthest_reach(grid, values, 1.0, below=True, strict=True) == 3.0
