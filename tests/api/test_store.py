"""Tests for the JSONL ResultStore (sharding, dedup, query, merge)."""

from __future__ import annotations


import pytest

from repro.api import Result, ResultStore, Runner, invocation_key, payload_equal, result_key
from repro.api.report import generate_report
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def results():
    """A handful of cheap, distinct results to populate stores with."""
    runner = Runner()
    return [
        runner.run("table_power"),
        runner.run("table_packet_sizes"),
        runner.run("table_packet_sizes", params={"advertising_interval_s": 0.04}),
        runner.run("fig17", params={"messages_per_point": 10, "step_inches": 8.0}, seed=3),
    ]


class TestKeys:
    def test_key_is_stable_and_param_order_independent(self, results):
        result = results[3]
        assert result_key(result) == result_key(result)
        shuffled = dict(reversed(list(result.params.items())))
        assert invocation_key(result.experiment, result.engine, result.seed, shuffled) == result_key(result)

    def test_key_distinguishes_invocations(self, results):
        keys = {result_key(result) for result in results}
        assert len(keys) == len(results)

    def test_key_ignores_payload_and_runtime(self, results):
        from dataclasses import replace

        slower = replace(results[0], runtime_s=999.0)
        assert result_key(slower) == result_key(results[0])

    @pytest.mark.parametrize("backend", ["numpy", "array-api-strict", None])
    def test_recorded_backend_does_not_enter_the_key(self, tmp_path, results, backend):
        # Envelopes written while invocations carried an array-backend term.
        store = ResultStore(tmp_path)
        store.append_document({**results[3].to_dict(), "backend": backend})
        assert store.existing_keys() == {result_key(results[3])}


class TestAppendAndIterate:
    def test_roundtrip(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        restored = list(store.iter_results())
        assert len(restored) == len(results)
        for original, decoded in zip(results, restored, strict=True):
            assert decoded.experiment == original.experiment
            assert payload_equal(decoded.payload, original.payload)

    def test_multiple_shards_are_all_read(self, tmp_path, results):
        ResultStore(tmp_path, shard="a.jsonl").append(results[0])
        ResultStore(tmp_path, shard="b.jsonl").append(results[1])
        store = ResultStore(tmp_path)
        assert len(store) == 2
        assert len(store.shard_paths()) == 2

    def test_duplicates_collapse_on_read(self, tmp_path, results):
        store = ResultStore(tmp_path)
        store.append(results[0])
        store.append(results[0])
        assert len(list(store.iter_documents())) == 2
        assert len(list(store.iter_results())) == 1
        assert len(store) == 1

    def test_backend_only_differences_collapse_on_read(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for backend in ("numpy", "array-api-strict"):
            store.append_document({**results[3].to_dict(), "backend": backend})
        assert len(list(store.iter_documents())) == 2
        assert len(store) == 1

    def test_decoding_drops_the_backend_field(self, results):
        document = results[3].to_dict()
        assert "backend" not in document
        assert Result.from_dict({**document, "backend": "numpy"}).to_dict() == document

    def test_truncated_trailing_line_is_skipped(self, tmp_path, results):
        store = ResultStore(tmp_path, shard="killed.jsonl")
        store.append(results[0])
        with open(store.shard_path, "a") as handle:
            handle.write(results[1].to_json()[:40])  # a writer died mid-line
        assert len(list(ResultStore(tmp_path).iter_results())) == 1

    def test_shard_name_must_be_bare(self, tmp_path):
        with pytest.raises(ConfigurationError, match="separators"):
            ResultStore(tmp_path, shard="sub/dir.jsonl")

    def test_file_as_store_root_rejected(self, tmp_path):
        path = tmp_path / "not_a_dir"
        path.write_text("occupied")
        with pytest.raises(ConfigurationError, match="is a file"):
            ResultStore(path)

    def test_keyed_documents_match_result_keys(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        keyed = {key for key, _ in store.iter_keyed_documents()}
        assert keyed == {result_key(result) for result in results}

    def test_iter_skips_non_object_lines(self, tmp_path, results):
        store = ResultStore(tmp_path, shard="odd.jsonl")
        store.append(results[0])
        with open(store.shard_path, "a") as handle:
            handle.write("[1, 2]\n\n")
        assert len(list(ResultStore(tmp_path).iter_results())) == 1

    def test_envelopes_with_a_backend_field_still_read(self, tmp_path):
        # Stores written while envelopes recorded an array backend carry a
        # "backend" field: the array-API drivers wrote "numpy", all others null.
        params = {"packets_per_location": 5}
        fig14 = Runner().run("fig14", engine="batch", params=params)
        fig06 = Runner().run("fig06", params={"payload": b"\x55" * 16})
        store = ResultStore(tmp_path)
        store.append_document({**fig14.to_dict(), "backend": "numpy"})
        store.append_document({**fig06.to_dict(), "backend": None})

        loaded = {result.experiment: result for result in store.iter_results()}
        assert sorted(loaded) == ["fig06", "fig14"]
        assert loaded["fig14"].same_payload(fig14) and loaded["fig06"].same_payload(fig06)
        assert [result.experiment for result in store.query(engine="batch")] == ["fig14"]
        assert len(store.query("fig06")) == 1
        report = generate_report(store)
        assert "Measured (batch engine, seed 14):" in report
        assert "Measured (scalar engine):" in report
        # Resume sees the old fig14 envelope as the same invocation as the spec.
        assert result_key(loaded["fig14"]) == invocation_key("fig14", "batch", 14, {**params, "seed": 14})


class TestQuery:
    def test_query_by_experiment(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        assert len(store.query("table_packet_sizes")) == 2
        assert store.query("fig17")[0].seed == 3

    def test_query_by_param_value(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        matches = store.query("table_packet_sizes", advertising_interval_s=0.04)
        assert len(matches) == 1
        assert matches[0].params["advertising_interval_s"] == 0.04

    def test_query_by_seed_and_engine(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        assert len(store.query(seed=3)) == 1
        assert len(store.query(engine="scalar")) == len(results)

    def test_query_unknown_param_matches_nothing(self, tmp_path, results):
        # Documented default: a filter key an envelope does not record is a
        # silent non-match, not an error (stores mix signatures).
        store = ResultStore(tmp_path)
        store.append(results[0])
        assert store.query(bogus_param=1) == []

    def test_strict_query_raises_on_unknown_filter_key(self, tmp_path, results):
        store = ResultStore(tmp_path)
        store.append(results[2])  # table_packet_sizes(advertising_interval_s=0.04)
        with pytest.raises(ConfigurationError, match=r"bogus_param.*known parameters"):
            store.query("table_packet_sizes", strict=True, bogus_param=1)

    def test_strict_query_tolerates_default_runs(self, tmp_path, results):
        # results[1] ran table_packet_sizes with driver defaults, so the
        # envelope records no parameters; the key is still in the schema,
        # so strict mode treats it as a quiet non-match, not a typo.
        store = ResultStore(tmp_path)
        store.append(results[1])
        assert store.query("table_packet_sizes", strict=True, advertising_interval_s=0.04) == []

    def test_strict_query_with_known_keys_matches_normally(self, tmp_path, results):
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        strict = store.query("table_packet_sizes", strict=True, advertising_interval_s=0.04)
        relaxed = store.query("table_packet_sizes", advertising_interval_s=0.04)
        assert len(strict) == len(relaxed) == 1

    def test_strict_query_only_checks_candidate_envelopes(self, tmp_path, results):
        # fig17 records messages_per_point; table_* results do not, but the
        # experiment filter excludes them before the key check applies.
        store = ResultStore(tmp_path)
        for result in results:
            store.append(result)
        assert len(store.query("fig17", strict=True, messages_per_point=10)) == 1

    def test_strict_query_on_empty_store_raises_nothing(self, tmp_path):
        assert ResultStore(tmp_path).query("fig17", strict=True, bogus_param=1) == []

    def test_backend_filter_is_an_unknown_parameter(self, tmp_path, results):
        store = ResultStore(tmp_path)
        store.append_document({**results[3].to_dict(), "backend": "numpy"})
        assert store.query("fig17", backend="numpy") == []
        with pytest.raises(ConfigurationError, match="backend"):
            store.query("fig17", strict=True, backend="numpy")


class TestMerge:
    def test_merge_copies_only_missing(self, tmp_path, results):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        left.append(results[0])
        left.append(results[1])
        right.append(results[1])
        right.append(results[2])
        stats = left.merge(right)
        assert stats.ingested == 1
        assert stats.deduped == 1
        assert stats.torn_lines_skipped == 0
        assert len(left) == 3
        # Merging again is a no-op.
        assert left.merge(right).ingested == 0
        assert len(left) == 3

    def test_merge_accepts_a_path(self, tmp_path, results):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        right.append(results[0])
        assert left.merge(tmp_path / "right").ingested == 1

    def test_merge_counts_torn_lines(self, tmp_path, results):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        right.append(results[0])
        with open(right.shard_path, "a", encoding="utf-8") as handle:
            handle.write('{"experiment": "trunc')  # killed-writer tail
        stats = left.merge(right)
        assert stats.ingested == 1
        assert stats.torn_lines_skipped == 1

    def test_old_shard_dedups_against_new_envelopes(self, tmp_path, results):
        new = ResultStore(tmp_path / "new")
        old = ResultStore(tmp_path / "old")
        new.append(results[3])
        for backend in ("numpy", "array-api-strict"):
            old.append_document({**results[3].to_dict(), "backend": backend})
        old.append_document({**results[0].to_dict(), "backend": None})
        stats = new.merge(old)
        assert (stats.ingested, stats.deduped) == (1, 2)
        assert new.existing_keys() == {result_key(results[0]), result_key(results[3])}
