"""Tests for declarative sweep campaigns (SweepSpec, seed derivation, grids)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, SweepSpec, derive_seed, load_specs, read_specs
from repro.exceptions import ConfigurationError

GRIDS = Path(__file__).resolve().parents[2] / "examples" / "grids"


def _small_sweep(**overrides) -> SweepSpec:
    settings = dict(
        experiment="fig17",
        grid={"phone_power_dbm": [6.0, 10.0], "step_inches": [4.0, 8.0]},
        params={"messages_per_point": 10},
        seed=17,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestExpansion:
    def test_cartesian_product_size_and_order(self):
        specs = _small_sweep().expand()
        assert len(specs) == 4
        # Outermost grid key varies slowest.
        assert [s.params["phone_power_dbm"] for s in specs] == [6.0, 6.0, 10.0, 10.0]
        assert [s.params["step_inches"] for s in specs] == [4.0, 8.0, 4.0, 8.0]
        for spec in specs:
            assert spec.params["messages_per_point"] == 10
            assert isinstance(spec, ExperimentSpec)

    def test_size_property_matches_expansion(self):
        sweep = _small_sweep(replicates=3)
        assert sweep.size == 12
        assert len(sweep.expand()) == 12

    def test_grid_overrides_base_params(self):
        specs = SweepSpec(
            experiment="fig17", grid={"messages_per_point": [5, 10]}, params={"step_inches": 8.0}, seed=1
        ).expand()
        assert [s.params["messages_per_point"] for s in specs] == [5, 10]

    def test_expansion_is_deterministic(self):
        first = _small_sweep(replicates=2).expand()
        second = _small_sweep(replicates=2).expand()
        assert first == second


class TestSeedDerivation:
    def test_derived_seeds_distinct_per_point_and_replicate(self):
        specs = _small_sweep(replicates=2).expand()
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == len(seeds)
        assert all(isinstance(seed, int) for seed in seeds)

    def test_derivation_depends_on_content_not_order(self):
        params = {"messages_per_point": 10, "phone_power_dbm": 6.0}
        reordered = {"phone_power_dbm": 6.0, "messages_per_point": 10}
        assert derive_seed(17, "fig17", params) == derive_seed(17, "fig17", reordered)
        assert derive_seed(17, "fig17", params) != derive_seed(18, "fig17", params)
        assert derive_seed(17, "fig17", params) != derive_seed(17, "fig13", params)
        assert derive_seed(17, "fig17", params, 0) != derive_seed(17, "fig17", params, 1)

    def test_no_base_seed_keeps_driver_defaults(self):
        specs = _small_sweep(seed=None).expand()
        assert all(spec.seed is None for spec in specs)

    def test_deterministic_experiment_gets_no_seed(self):
        specs = SweepSpec(
            experiment="table_packet_sizes", grid={"advertising_interval_s": [0.02, 0.04]}, seed=5
        ).expand()
        assert all(spec.seed is None for spec in specs)


class TestValidation:
    def test_unknown_grid_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            SweepSpec(experiment="fig17", grid={"bogus": [1]}).expand()

    def test_backend_grid_axis_rejected_as_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match=r"no parameter\(s\) \['backend'\]"):
            SweepSpec(experiment="fig14", grid={"backend": ["numpy", "array-api-strict"]}).expand()

    def test_seed_in_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="SweepSpec.seed"):
            SweepSpec(experiment="fig17", grid={"seed": [1, 2]}).expand()

    def test_engine_in_params_rejected(self):
        with pytest.raises(ConfigurationError, match="SweepSpec.engine"):
            SweepSpec(experiment="fig17", params={"engine": "batch"}).expand()

    def test_grid_params_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="both grid and params"):
            SweepSpec(
                experiment="fig17", grid={"step_inches": [2.0]}, params={"step_inches": 4.0}
            ).expand()

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty sequence"):
            SweepSpec(experiment="fig17", grid={"step_inches": []}).expand()

    def test_string_grid_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty sequence"):
            SweepSpec(experiment="mac_scaling", grid={"profile": "contact_lens"}).expand()

    def test_unsupported_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine not supported"):
            SweepSpec(experiment="fig15", engine="batch").expand()

    def test_replicates_require_seed(self):
        with pytest.raises(ConfigurationError, match="without a"):
            _small_sweep(seed=None, replicates=2).expand()

    def test_replicates_require_seedable_experiment(self):
        with pytest.raises(ConfigurationError, match="deterministic"):
            SweepSpec(experiment="table_power", seed=1, replicates=2).expand()

    def test_nonpositive_replicates_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            _small_sweep(replicates=0).expand()


class TestSerialization:
    def test_dict_roundtrip(self):
        sweep = _small_sweep(engine="batch", replicates=2)
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_json_roundtrip(self):
        sweep = _small_sweep()
        restored = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert restored.expand() == sweep.expand()

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="'gird'"):
            SweepSpec.from_dict({"experiment": "fig17", "gird": {"step_inches": [2.0]}})
        with pytest.raises(ConfigurationError, match="'backend'"):
            SweepSpec.from_dict({"experiment": "fig14", "backend": "numpy"})

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            SweepSpec.from_dict({"grid": {"step_inches": [2.0]}})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="object"):
            SweepSpec.from_dict(["fig17"])


class TestSpecFromDictStrictness:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="'sead'"):
            ExperimentSpec.from_dict({"experiment": "fig17", "sead": 1})
        with pytest.raises(ConfigurationError, match="'backend'"):
            ExperimentSpec.from_dict({"experiment": "fig14", "backend": "numpy"})

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            ExperimentSpec.from_dict({"params": {}})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="object"):
            ExperimentSpec.from_dict("fig17")


class TestGridDocuments:
    def test_document_with_sweeps_and_specs(self):
        document = {
            "sweeps": [_small_sweep().to_dict()],
            "specs": [{"experiment": "table_power"}],
        }
        specs = load_specs(document)
        assert len(specs) == 5
        assert specs[-1].experiment == "table_power"

    def test_bare_list_mixes_sweeps_and_specs(self):
        specs = load_specs([_small_sweep().to_dict(), {"experiment": "table_power"}])
        assert len(specs) == 5

    def test_single_sweep_object(self):
        assert len(load_specs(_small_sweep().to_dict())) == 4

    def test_single_spec_object(self):
        specs = load_specs({"experiment": "fig13", "engine": "batch"})
        assert specs == [ExperimentSpec(experiment="fig13", engine="batch")]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="'sweep'"):
            load_specs({"sweep": [], "sweeps": []})

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigurationError, match="object or list"):
            load_specs("fig17")

    def test_non_object_element_rejected_by_position(self):
        with pytest.raises(ConfigurationError, match="must be an object, got str"):
            load_specs({"specs": [{"experiment": "fig17"}, "fig06"]})

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"experiment": "fig99"}, "unknown experiment"),
            ({"experiment": "fig17", "params": {"bogus": 1}}, "no parameter"),
            ({"experiment": "mac_scaling", "engine": "fast_path"}, "engine not supported"),
            ({"experiment": "fig13", "params": {"engine": "batch"}}, "params\\['engine'\\]"),
            ({"experiment": "fig17", "params": {"seed": 1}, "seed": 2}, "seed given both"),
        ],
        ids=["experiment", "parameter", "engine", "params-engine", "seed-twice"],
    )
    @pytest.mark.parametrize(
        "wrap",
        [lambda spec: {"specs": [spec]}, lambda spec: spec, lambda spec: [spec]],
        ids=["specs-list", "bare-object", "top-level-list"],
    )
    def test_plain_specs_are_checked_on_load(self, bad, match, wrap):
        """A plain spec is held to the registry at load time, as a sweep is."""
        with pytest.raises(ConfigurationError, match=match):
            load_specs(wrap(bad))

    def test_read_specs_roundtrip(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"sweeps": [_small_sweep().to_dict()]}))
        assert read_specs(path) == _small_sweep().expand()

    def test_read_specs_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            read_specs(path)

    def test_read_specs_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_specs(tmp_path / "absent.json")

    def test_read_specs_rejects_empty_document(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError, match="zero specs"):
            read_specs(path)

    def test_shipped_fleet_grid_expands_to_100_plus_heterogeneous_specs(self):
        specs = read_specs(GRIDS / "fleet_grid.json")
        assert len(specs) >= 100
        profiles = {spec.params.get("profile", "contact_lens") for spec in specs}
        assert profiles == {"contact_lens", "neural_implant", "card_to_card"}
        assert {spec.engine for spec in specs} == {None, "batched"}
        assert {spec.experiment for spec in specs} == {"mac_scaling"}
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_shipped_per_grid_expands(self):
        specs = read_specs(GRIDS / "per_grid.json")
        assert len(specs) == 10
        assert specs[-1].experiment == "fig13"
