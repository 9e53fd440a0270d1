"""Tests for the telemetry analytics over a store (:mod:`repro.obs.stats`)."""

from __future__ import annotations

from repro.api.result import Result
from repro.api.store import ResultStore
from repro.obs.metrics import TELEMETRY_VERSION
from repro.obs.stats import counter_totals, span_count, stats_frame


def _telemetry(counters: dict[str, int], spans: list | None = None) -> dict:
    return {
        "telemetry_version": TELEMETRY_VERSION,
        "counters": counters,
        "gauges": {},
        "spans": spans if spans is not None else [],
    }


def _span(name: str, children: list | None = None) -> dict:
    return {"name": name, "attrs": {}, "duration_s": 0.0, "children": children or []}


def _result(experiment: str, runtime_s: float, telemetry: dict | None) -> Result:
    return Result(
        experiment=experiment,
        engine="scalar",
        seed=0,
        params={},
        runtime_s=runtime_s,
        payload=None,
        telemetry=telemetry,
    )


class TestSpanCount:
    def test_counts_whole_tree(self):
        document = _telemetry({}, spans=[_span("root", [_span("a"), _span("b", [_span("c")])])])
        assert span_count(document) == 4

    def test_empty_document(self):
        assert span_count(_telemetry({})) == 0


class TestCounterTotals:
    def test_sums_across_results_sorted(self):
        results = [
            _result("x", 1.0, _telemetry({"b": 2, "a": 1})),
            _result("y", 1.0, _telemetry({"b": 3})),
            _result("z", 1.0, None),  # unobserved runs are skipped
        ]
        assert counter_totals(results) == {"a": 1, "b": 5}
        assert list(counter_totals(results)) == ["a", "b"]

    def test_experiment_filter(self):
        results = [
            _result("x", 1.0, _telemetry({"a": 1})),
            _result("y", 1.0, _telemetry({"a": 10})),
        ]
        assert counter_totals(results, experiment="y") == {"a": 10}

    def test_accepts_a_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_result("x", 1.0, _telemetry({"a": 4})))
        assert counter_totals(store) == {"a": 4}


class TestStatsFrame:
    def test_one_row_per_experiment_sorted(self):
        results = [
            _result("zeta", 1.0, _telemetry({})),
            _result("alpha", 2.0, _telemetry({})),
        ]
        frame = stats_frame(results)
        assert list(frame.column("experiment")) == ["alpha", "zeta"]

    def test_runtime_percentiles_and_observed(self):
        results = [
            _result("x", 1.0, _telemetry({})),
            _result("x", 3.0, None),
        ]
        row = stats_frame(results).rows()[0]
        assert row["runs"] == 2
        assert row["observed"] == 1
        assert row["runtime_mean_s"] == 2.0
        assert row["runtime_p50_s"] == 2.0

    def test_events_per_second_uses_observed_runtime(self):
        telemetry = _telemetry({"netsim.events.dispatched": 500})
        row = stats_frame([_result("x", 2.0, telemetry)]).rows()[0]
        assert row["events_per_s"] == 250.0

    def test_rates_are_zero_not_nan_without_denominator(self):
        row = stats_frame([_result("x", 0.0, None)]).rows()[0]
        assert row["events_per_s"] == 0.0

    def test_span_totals(self):
        telemetry = _telemetry({}, spans=[_span("root", [_span("leaf")])])
        row = stats_frame([_result("x", 1.0, telemetry)]).rows()[0]
        assert row["spans"] == 2
