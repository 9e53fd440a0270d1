"""Tests for cross-campaign analytics (Frame, replicate groups, aggregate)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    Frame,
    ResultStore,
    Result,
    Runner,
    SweepSpec,
    aggregate,
    mean_std_ci,
    payload_equal,
    replicate_groups,
)
from repro.api.analytics import _t_quantile
from repro.exceptions import ConfigurationError


class TestFrame:
    def test_numeric_columns_become_numpy(self):
        frame = Frame({"a": [1.0, 2.0], "n": [3, 4], "label": ["x", "y"]})
        assert isinstance(frame.column("a"), np.ndarray)
        assert frame.column("a").dtype == np.float64
        assert frame.column("n").dtype == np.int64
        assert frame.column("label") == ["x", "y"]

    def test_rows_unwrap_numpy_scalars(self):
        frame = Frame({"a": np.array([1.5]), "b": ["x"]})
        rows = frame.rows()
        assert rows == [{"a": 1.5, "b": "x"}]
        assert type(rows[0]["a"]) is float

    def test_json_roundtrip_preserves_equality(self):
        frame = Frame({"a": np.array([1.0, math.nan]), "b": ["x", "y"], "n": [1, 2]})
        restored = Frame.from_dict(frame.to_dict())
        assert frame.equals(restored)
        assert restored.column_names == ["a", "b", "n"]

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="rows"):
            Frame({"a": [1.0], "b": [1.0, 2.0]})

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(ConfigurationError, match="1-D"):
            Frame({"a": np.zeros((2, 2))})

    def test_unknown_column_lookup_names_available(self):
        with pytest.raises(ConfigurationError, match="available"):
            Frame({"a": [1.0]}).column("b")

    def test_empty_frame(self):
        frame = Frame({"a": [], "b": []})
        assert frame.num_rows == 0
        assert len(frame) == 0
        assert frame.rows() == []


class TestMeanStdCi:
    def test_hand_computed_three_samples(self):
        mean, std, half, n = mean_std_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)
        # t(0.975, df=2) = 4.3027; half = t * 1 / sqrt(3)
        assert half == pytest.approx(4.302652 / math.sqrt(3), rel=1e-4)
        assert n == 3

    def test_single_sample_degenerates_to_point(self):
        assert mean_std_ci([5.0]) == (5.0, 0.0, 0.0, 1)

    def test_nan_samples_excluded(self):
        mean, std, half, n = mean_std_ci([1.0, math.nan, 3.0])
        assert mean == pytest.approx(2.0)
        assert n == 2

    def test_all_nan_gives_nan(self):
        mean, std, half, n = mean_std_ci([math.nan, math.nan])
        assert math.isnan(mean) and math.isnan(std) and math.isnan(half)
        assert n == 0

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_confidence_outside_the_open_unit_interval_is_rejected(self, confidence):
        # Unchecked, -0.5 gives a negative half-width, 1.5 NaN and 1.0 inf.
        with pytest.raises(ConfigurationError, match="confidence must be in"):
            mean_std_ci([1.0, 2.0, 3.0], confidence=confidence)

    def test_quantile_equals_scipy_stats_t_ppf_bit_for_bit(self):
        # The half-width calls scipy.special.stdtrit so that no process
        # imports scipy.stats; t.ppf evaluates stdtrit itself.  A scipy
        # release that computes either differently fails here by name
        # instead of moving EXPERIMENTS.md.  (At confidence -1, i.e. p = 0,
        # the two differ in sign; the confidence check keeps it unreachable.)
        from scipy import stats

        dfs = np.arange(1, 2001)
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.0, 1.0, 1.5, -0.5, math.nan):
            expected = stats.t.ppf(0.5 + confidence / 2.0, df=dfs)
            quantiles = np.array([_t_quantile(confidence, int(df)) for df in dfs])
            # A NaN's payload bits carry no value; every other bit must match.
            assert np.array_equal(np.isnan(quantiles), np.isnan(expected)), confidence
            number = ~np.isnan(expected)
            assert quantiles[number].tobytes() == expected[number].tobytes(), confidence


@pytest.fixture(scope="module")
def replicated_store(tmp_path_factory):
    """A store with 2 grid points × 3 seed-replicates of fig17 (batch engine)."""
    store = ResultStore(tmp_path_factory.mktemp("agg-store"))
    sweep = SweepSpec(
        experiment="fig17",
        grid={"phone_power_dbm": [6.0, 10.0]},
        params={"messages_per_point": 10, "step_inches": 8.0},
        engine="batch",
        seed=17,
        replicates=3,
    )
    Runner().run_batch(sweep.expand(), store=store)
    return store


class TestReplicateGroups:
    def test_groups_by_params_minus_seed(self, replicated_store):
        groups = replicate_groups(replicated_store.query("fig17"))
        assert len(groups) == 2
        for group in groups:
            assert group.replicates == 3
            assert len(set(group.seeds)) == 3
            assert "seed" not in group.params

    def test_group_order_is_deterministic(self, replicated_store):
        results = replicated_store.query("fig17")
        first = [g.params["phone_power_dbm"] for g in replicate_groups(results)]
        second = [g.params["phone_power_dbm"] for g in replicate_groups(list(reversed(results)))]
        assert first == second


class TestAggregate:
    def test_mean_ci_frame_over_replicates(self, replicated_store):
        frame = aggregate(replicated_store, "fig17", group_by=["phone_power_dbm"])
        assert frame.num_rows == 2
        assert list(frame.column("replicates")) == [3, 3]
        assert frame.column("engines") == ["batch", "batch"]
        assert "usable_range_inches_mean" in frame.column_names
        assert "usable_range_inches_std" in frame.column_names
        assert "usable_range_inches_ci95" in frame.column_names
        # Every half-width is finite and non-negative with 3 replicates.
        assert np.all(frame.column("usable_range_inches_ci95") >= 0.0)
        assert np.all(np.isfinite(frame.column("mean_measured_ber_mean")))

    def test_matches_hand_computed_mean(self, replicated_store):
        results = replicated_store.query("fig17", phone_power_dbm=6.0)
        expected = np.mean([r.payload.usable_range_inches for r in results])
        frame = aggregate(replicated_store, "fig17", group_by=["phone_power_dbm"])
        index = list(frame.column("phone_power_dbm")).index(6.0)
        assert frame.column("usable_range_inches_mean")[index] == pytest.approx(expected)

    def test_aggregation_is_deterministic(self, replicated_store):
        first = aggregate(replicated_store, "fig17", group_by=["phone_power_dbm"])
        second = aggregate(replicated_store, "fig17", group_by=["phone_power_dbm"])
        assert first.equals(second)

    def test_single_replicate_ci_degenerates_to_point(self, tmp_path):
        store = ResultStore(tmp_path)
        Runner().run_batch(
            [spec for spec in SweepSpec(experiment="table_power").expand()], store=store
        )
        frame = aggregate(store, "table_power")
        assert frame.num_rows == 1
        assert frame.column("replicates")[0] == 1
        assert frame.column("energy_per_bit_nj_std")[0] == 0.0
        assert frame.column("energy_per_bit_nj_ci95")[0] == 0.0

    def test_mixed_engines_at_one_grid_point(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner()
        params = {"messages_per_point": 10, "step_inches": 8.0}
        store.append(runner.run("fig17", params=dict(params), engine="scalar", seed=17))
        store.append(runner.run("fig17", params=dict(params), engine="batch", seed=18))
        frame = aggregate(store, "fig17")
        assert frame.num_rows == 1
        assert frame.column("replicates")[0] == 2
        assert frame.column("engines") == ["batch,scalar"]

    def test_nan_metric_samples_are_excluded(self, tmp_path):
        store = ResultStore(tmp_path)
        result = Runner().run("table_power")
        store.append(result)
        store.append(replace(result, seed=1))

        calls = iter([math.nan, 2.0])

        def reduce(payload):
            return {"metric": next(calls)}

        frame = aggregate(store, "table_power", reduce=reduce)
        assert frame.column("metric_mean")[0] == pytest.approx(2.0)
        assert frame.column("metric_std")[0] == 0.0

    def test_heterogeneous_group_rejected(self, replicated_store):
        # Without group_by the two phone_power_dbm grid points would pool
        # into one fake "replicate" set; aggregate refuses instead.
        with pytest.raises(ConfigurationError, match=r"phone_power_dbm.*not seed-replicates"):
            aggregate(replicated_store, "fig17")

    def test_partially_recorded_parameter_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner()
        store.append(runner.run("fig17", params={"messages_per_point": 10, "step_inches": 8.0}, seed=1))
        store.append(runner.run("fig17", params={"step_inches": 8.0}, seed=2))  # default messages
        with pytest.raises(ConfigurationError, match="messages_per_point"):
            aggregate(store, "fig17")

    def test_empty_store_yields_empty_frame(self, tmp_path):
        frame = aggregate(ResultStore(tmp_path), "fig17", group_by=["phone_power_dbm"])
        assert frame.num_rows == 0
        assert frame.column_names == ["phone_power_dbm", "replicates", "engines"]

    def test_scalar_reduce_gets_value_column(self, replicated_store):
        frame = aggregate(
            replicated_store,
            "fig17",
            group_by=["phone_power_dbm"],
            reduce=lambda payload: payload.usable_range_inches,
        )
        assert "value_mean" in frame.column_names

    def test_unknown_group_by_parameter_rejected(self, replicated_store):
        with pytest.raises(ConfigurationError, match="no such parameter"):
            aggregate(replicated_store, "fig17", group_by=["no_such_param"])

    def test_missing_metrics_hook_requires_reduce(self, tmp_path):
        from repro.api.registry import _REGISTRY, get_experiment

        experiment = get_experiment("fig17")
        _REGISTRY["fig17"] = replace(experiment, metrics=None)
        try:
            with pytest.raises(ConfigurationError, match="metrics hook"):
                aggregate(ResultStore(tmp_path), "fig17")
        finally:
            _REGISTRY["fig17"] = experiment

    def test_non_scalar_metric_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(Runner().run("table_power"))
        with pytest.raises(ConfigurationError, match="not a scalar"):
            aggregate(store, "table_power", reduce=lambda payload: {"bad": [1, 2]})

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_confidence_outside_the_open_unit_interval_is_rejected(self, replicated_store, confidence):
        # Unchecked, 1.5 gives NaN half-widths in a column labelled ci150.
        with pytest.raises(ConfigurationError, match="confidence must be in"):
            aggregate(replicated_store, "fig17", group_by=["phone_power_dbm"], confidence=confidence)

    def test_results_iterable_accepted_directly(self, replicated_store):
        results = replicated_store.query("fig17")
        frame = aggregate(results, "fig17", group_by=["phone_power_dbm"])
        assert frame.num_rows == 2
        assert payload_equal(
            frame.column("usable_range_inches_mean"),
            aggregate(replicated_store, "fig17", group_by=["phone_power_dbm"]).column(
                "usable_range_inches_mean"
            ),
        )


def _result_with(experiment: str, seed: int | None, engine: str = "scalar", **params) -> Result:
    return Result(experiment=experiment, engine=engine, seed=seed, params=params, payload=None)


class TestReplicateGroupShape:
    def test_deterministic_runs_form_singleton_groups(self):
        groups = replicate_groups([_result_with("fig06", None), _result_with("fig06", None, x=1.0)])
        assert [g.replicates for g in groups] == [1, 1]
        assert all(g.seeds == (None,) for g in groups)

    def test_members_ordered_by_seed(self):
        groups = replicate_groups(
            [_result_with("fig17", 9), _result_with("fig17", 1), _result_with("fig17", 5)]
        )
        assert len(groups) == 1
        assert groups[0].seeds == (1, 5, 9)

    def test_backend_era_replicates_group_together(self):
        # Stores written while envelopes recorded an array backend: runs that
        # differ only in that field are seed-replicates of one grid point.
        documents = [
            {**_result_with("fig17", seed, step_inches=8.0).to_dict(), "backend": backend}
            for seed, backend in ((1, "numpy"), (2, "array-api-strict"))
        ]
        groups = replicate_groups([Result.from_dict(document) for document in documents])
        assert len(groups) == 1
        assert groups[0].seeds == (1, 2)
