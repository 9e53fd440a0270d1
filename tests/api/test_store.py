"""Tests for the JSONL ResultStore (sharding, dedup, query, merge, line index)."""

from __future__ import annotations

import json
import os

import pytest

import repro.api.store as store_module
from repro.api import (
    ExperimentSpec,
    Result,
    ResultStore,
    Runner,
    SweepSpec,
    aggregate,
    invocation_key,
    payload_equal,
    result_key,
)
from repro.api.report import generate_report
from repro.api.serialization import canonical_json
from repro.exceptions import ConfigurationError
from repro.plots.gallery import generate_gallery


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


def _lines(*results):
    """The shard text ``append`` writes for *results*."""
    return "".join(json.dumps(result.to_dict(), separators=(",", ":")) + "\n" for result in results)


def _fingerprint(results):
    return [json.dumps(result.to_dict(), sort_keys=True) for result in results]


#: One query per filter kind; each maps to its keyword arguments.
_QUERIES = {
    "all": {},
    "experiment": {"experiment": "table_packet_sizes"},
    "engine": {"engine": "scalar"},
    "seed": {"seed": 3},
    "deterministic": {"seed": None},
    "param": {"experiment": "table_packet_sizes", "advertising_interval_s": 0.04},
    "unknown-param": {"bogus_param": 1},
    "strict-known": {"experiment": "fig17", "strict": True, "messages_per_point": 10},
}

#: Invocations the mixed store below holds, so resuming them executes nothing.
_RESUMED = [
    ExperimentSpec("table_power"),
    ExperimentSpec("table_packet_sizes", params={"advertising_interval_s": 0.04}),
    ExperimentSpec("fig17", params={"messages_per_point": 10, "step_inches": 8.0}, seed=3),
]


def _answers(store):
    """What every keyed reader returns for *store*."""
    queries = {name: _fingerprint(store.query(**kwargs)) for name, kwargs in _QUERIES.items()}
    with pytest.raises(ConfigurationError) as strict:
        store.query("fig17", strict=True, bogus_param=1)
    cached = []
    resumed = Runner().run_batch(_RESUMED, store=store, on_result=lambda i, r, hit: cached.append(hit))
    assert cached == [True] * len(_RESUMED)
    return {
        "iter_results": _fingerprint(store.iter_results()),
        "queries": queries,
        "strict-unknown": str(strict.value),
        "existing_keys": store.existing_keys(),
        "len": len(store),
        "envelopes": store.envelope_count(),
        "aggregate": canonical_json(aggregate(store, "fig17").rows()),
        "report": generate_report(store),
        "gallery": generate_gallery(store),
        "resume": _fingerprint(resumed),
    }


class TestLineIndex:
    """One instance's reads answer as a fresh instance's do, whatever happened between them."""

    def test_next_read_sees_appends_from_another_instance_or_shard(self, tmp_path, results):
        reader = ResultStore(tmp_path, shard="a.jsonl")
        reader.append(results[0])
        assert len(reader) == 1
        ResultStore(tmp_path, shard="a.jsonl").append(results[1])
        assert len(reader) == 2
        ResultStore(tmp_path, shard="b.jsonl").append(results[2])
        assert [result.experiment for result in reader.query("table_packet_sizes")] == ["table_packet_sizes"] * 2
        assert _fingerprint(reader.iter_results()) == _fingerprint(ResultStore(tmp_path).iter_results())

    def test_truncated_shard_reads_as_a_fresh_instance(self, tmp_path, results):
        reader = ResultStore(tmp_path, shard="a.jsonl")
        for result in results[:3]:
            reader.append(result)
        assert len(reader) == 3
        assert reader.shard_path.read_text() == _lines(*results[:3])
        os.truncate(reader.shard_path, len(_lines(results[0])))
        assert len(reader) == 1
        assert _fingerprint(reader.iter_results()) == _fingerprint(ResultStore(tmp_path).iter_results())

    def test_shard_rewritten_longer_in_place_reads_as_a_fresh_instance(self, tmp_path, results):
        # Same inode, and no shorter than the part indexed: only the bytes
        # of the last indexed line show the shard is not the one indexed.
        reader = ResultStore(tmp_path, shard="a.jsonl")
        for result in results[:3]:
            reader.append(result)
        assert len(reader) == 3
        inode = os.stat(reader.shard_path).st_ino
        reader.shard_path.write_text(_lines(results[3], results[0], results[0], results[1]))
        assert os.stat(reader.shard_path).st_ino == inode
        fresh = ResultStore(tmp_path)
        expected = {result_key(result) for result in (results[0], results[1], results[3])}
        assert reader.existing_keys() == fresh.existing_keys() == expected
        assert reader.envelope_count() == 4
        assert _fingerprint(reader.iter_results()) == _fingerprint(fresh.iter_results())

    def test_shard_replaced_by_a_new_file_reads_as_a_fresh_instance(self, tmp_path, results):
        # The new file differs only in the first line's seed: same size,
        # same last line, so only its inode shows it is another file.
        reader = ResultStore(tmp_path, shard="a.jsonl")
        reader.append(results[3])
        reader.append(results[0])
        assert len(reader) == 2
        reseeded = Result.from_dict({**results[3].to_dict(), "seed": 4})
        replacement = tmp_path / "replacement.tmp"
        replacement.write_text(_lines(reseeded, results[0]))
        assert replacement.stat().st_size == reader.shard_path.stat().st_size
        os.replace(replacement, reader.shard_path)
        fresh = ResultStore(tmp_path)
        assert reader.existing_keys() == fresh.existing_keys() == {result_key(reseeded), result_key(results[0])}
        assert _fingerprint(reader.iter_results()) == _fingerprint(fresh.iter_results())

    def test_line_rewritten_in_place_is_indexed_again(self, tmp_path, results):
        # Swapping the middle lines keeps the inode, the size and the last
        # line, so only a selected line that no longer parses as indexed
        # shows the change; the read goes on from that line.
        reader = ResultStore(tmp_path, shard="a.jsonl")
        for result in results:
            reader.append(result)
        assert len(list(reader.iter_documents())) == 4
        reader.shard_path.write_text(_lines(results[0], results[2], results[1], results[3]))
        fresh = [document for _, document in ResultStore(tmp_path).iter_documents()]
        assert [document for _, document in reader.iter_documents()] == fresh

    def test_line_rewritten_in_place_under_another_header_is_indexed_again(self, tmp_path, results):
        # The same line with another seed has the same length, and parses:
        # only its header shows that it changed.
        reader = ResultStore(tmp_path, shard="a.jsonl")
        for result in (results[0], results[3], results[2]):
            reader.append(result)
        assert len(list(reader.iter_results())) == 3
        old_line, new_line = (
            json.dumps({**results[3].to_dict(), "seed": seed}, separators=(",", ":")) for seed in (3, 4)
        )
        assert len(old_line) == len(new_line)
        reader.shard_path.write_text(reader.shard_path.read_text().replace(old_line, new_line))
        fresh = ResultStore(tmp_path)
        assert [result.seed for result in reader.query("fig17")] == [4]
        assert reader.existing_keys() == fresh.existing_keys()
        assert _fingerprint(reader.query(seed=4)) == _fingerprint(fresh.query(seed=4))

    def test_a_read_nested_in_another_indexes_each_line_once(self, tmp_path, results):
        writer = ResultStore(tmp_path, shard="a.jsonl")
        for result in results[:3]:
            writer.append(result)
        reader = ResultStore(tmp_path)
        outer = reader.iter_results()
        first = next(outer)  # the outer read has indexed one line
        assert len(reader) == 3  # the nested read indexes the other two
        experiments = [result.experiment for result in (first, *outer)]
        assert experiments == ["table_power", "table_packet_sizes", "table_packet_sizes"]
        assert reader.envelope_count() == 3

    def test_torn_tail_counts_once_per_read_until_completed(self, tmp_path, results):
        reader = ResultStore(tmp_path, shard="killed.jsonl")
        reader.append(results[0])
        tail = results[1].to_json()
        with open(reader.shard_path, "a") as handle:
            handle.write(tail[:40])  # a writer mid-line
        assert len(list(reader.iter_results())) == 1
        assert len(list(reader.iter_results())) == 1
        assert reader.torn_lines_skipped == 2
        with open(reader.shard_path, "a") as handle:
            handle.write(tail[40:] + "\n")
        assert [result.experiment for result in reader.iter_results()] == ["table_power", "table_packet_sizes"]
        assert reader.torn_lines_skipped == 2

    def test_every_reader_matches_a_fresh_instance_before_and_after_an_append(self, tmp_path, results):
        replicate = Runner().run("fig17", params={"messages_per_point": 10, "step_inches": 8.0}, seed=4)
        first = ResultStore(tmp_path, shard="a.jsonl")
        for result in (results[0], results[1], results[0], results[2], results[3]):
            first.append(result)
        ResultStore(tmp_path, shard="b.jsonl").append_document({**results[3].to_dict(), "backend": "numpy"})
        before = _answers(first)
        assert before == _answers(ResultStore(tmp_path))
        ResultStore(tmp_path, shard="b.jsonl").append(replicate)
        ResultStore(tmp_path, shard="a.jsonl").append(results[1])
        after = _answers(first)
        assert after == _answers(ResultStore(tmp_path))
        assert after["aggregate"] != before["aggregate"]  # the seed-4 replicate joined fig17's row
        assert (before["len"], before["envelopes"], after["len"], after["envelopes"]) == (4, 6, 5, 8)

    def test_reads_parse_only_the_lines_they_return(self, tmp_path, monkeypatch):
        specs = [
            spec
            for experiment, seed in (("fig13", 13), ("fig17", 17), ("fig14", 14))
            for spec in SweepSpec(experiment=experiment, engine="batch", seed=seed, replicates=2).expand()
        ]
        store = ResultStore(tmp_path)
        Runner().run_batch(specs, store=store)
        assert len(list(store.iter_results())) == 6  # indexes every line

        calls = {"loads": 0, "from_dict": 0}

        class CountingJson:
            def __getattr__(self, name):
                return getattr(json, name)

            @staticmethod
            def loads(*args, **kwargs):
                calls["loads"] += 1
                return json.loads(*args, **kwargs)

        decode = Result.from_dict.__func__

        def counting_from_dict(cls, data):
            calls["from_dict"] += 1
            return decode(cls, data)

        monkeypatch.setattr(store_module, "json", CountingJson())
        monkeypatch.setattr(Result, "from_dict", classmethod(counting_from_dict))
        assert [result.experiment for result in store.query("fig13")] == ["fig13", "fig13"]
        assert calls == {"loads": 2, "from_dict": 2}
        assert len(store) == 6
        assert store.envelope_count() == 6
        assert calls == {"loads": 2, "from_dict": 2}


#: A good envelope's fields, changed into a malformed one.
_MALFORMED = {
    "missing-field": lambda document: {"schema_version": 1, "engine": "scalar"},
    "ill-typed-seed": lambda document: {**document, "seed": "3"},
    "malformed-params": lambda document: {**document, "params": {"__kind__": "mystery"}},
}

_READERS = {
    "len": len,
    "iter_results": lambda store: list(store.iter_results()),
    "query": lambda store: store.query("table_power"),
    "report": generate_report,
    "run_batch": lambda store: Runner().run_batch([ExperimentSpec("table_power")], store=store),
}


class TestMalformedEnvelopes:
    @pytest.mark.parametrize("reader", list(_READERS.values()), ids=list(_READERS))
    @pytest.mark.parametrize("malform", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_every_read_raises_naming_shard_and_line(self, tmp_path, results, malform, reader):
        store = ResultStore(tmp_path, shard="bad.jsonl")
        store.append(results[0])
        store.append_document(malform(results[1].to_dict()))
        for _ in range(2):  # indexed lines before it change nothing
            with pytest.raises(ConfigurationError, match=r"malformed result envelope at .*bad\.jsonl:2: "):
                reader(store)

    def test_a_merged_remote_envelope_is_validated(self, tmp_path, results):
        shard = tmp_path / "remote.jsonl"
        shard.write_text(json.dumps({"schema_version": 1, "engine": "scalar"}) + "\n")
        with pytest.raises(ConfigurationError, match=r"malformed result envelope at .*remote\.jsonl:1: .*'experiment'"):
            ResultStore(tmp_path / "into").merge(shard.as_uri())


#: Faults an array node of a fig13 payload can carry, each applied to its ``ber`` node.
_MALFORMED_ARRAYS = {
    "unknown-marker": lambda node: node["data"].__setitem__(0, "bogus"),
    "shape-size": lambda node: node.__setitem__("shape", [len(node["data"]) + 1]),
    "unparseable-dtype": lambda node: node.__setitem__("dtype", "notatype"),
    "nested-list": lambda node: node["data"].__setitem__(0, [node["data"][0]]),
}


class TestMalformedArrayNodes:
    @pytest.fixture(scope="class")
    def fig13(self):
        return Runner(telemetry=False).run("fig13", engine="batch").to_dict()

    @pytest.mark.parametrize("malform", list(_MALFORMED_ARRAYS.values()), ids=list(_MALFORMED_ARRAYS))
    def test_decode_and_every_read_raise_a_configuration_error(self, tmp_path, fig13, malform):
        document = json.loads(json.dumps(fig13))
        malform(document["payload"]["fields"]["ber"])
        with pytest.raises(ConfigurationError, match=r"at payload\.ber: ndarray"):
            Result.from_dict(document)
        store = ResultStore(tmp_path, shard="bad.jsonl")
        store.append_document(document)
        for reader in (len, lambda store: store.query("fig13")):
            with pytest.raises(
                ConfigurationError, match=r"malformed result envelope at .*bad\.jsonl:1: .*payload\.ber: ndarray"
            ):
                reader(store)
