"""Shard fan-in from ``file://`` URIs: URI resolution and ``ResultStore.merge`` ingestion.

The fan-in contract: a ``file://`` shard URI merges exactly like a local
store directory — lines read by the store's own rule, torn lines counted
and skipped, duplicates deduplicated by result key.
"""

from __future__ import annotations

import pytest

from repro.api import MergeStats, ResultStore, Runner
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.fabric.remote import is_uri, uri_path


def _two_specs():
    return [
        ExperimentSpec(experiment="fig13", params={"step_feet": 4.0}),
        ExperimentSpec(experiment="fig13", params={"step_feet": 6.0}),
    ]


class TestUriDetection:
    def test_schemes_are_uris_paths_are_not(self):
        assert is_uri("file:///tmp/store")
        assert is_uri("https://ci.example/shard.jsonl")
        assert not is_uri("/tmp/store")
        assert not is_uri("relative/store")
        assert not is_uri("C:\\store")  # a drive letter is not a scheme


class TestUriPath:
    def test_a_file_uri_names_its_local_path(self, tmp_path):
        shard = tmp_path / "a shard.jsonl"
        assert uri_path(shard.resolve().as_uri()) == shard.resolve()  # percent-encoded space decoded
        assert uri_path(f"file://localhost{shard.resolve()}") == shard.resolve()

    @pytest.mark.parametrize("scheme", ["ftp", "http", "https"])
    def test_unsupported_scheme_raises(self, scheme):
        with pytest.raises(ConfigurationError, match=f"unsupported shard URI scheme '{scheme}'"):
            uri_path(f"{scheme}://127.0.0.1:1/shard.jsonl")

    def test_a_host_other_than_localhost_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="names the host 'out'"):
            uri_path("file://out/store")
        with pytest.raises(ConfigurationError, match="names the host 'out'"):
            ResultStore(tmp_path / "into").merge("file://out/store")  # not the relative out/store


class TestMergeFromUris:
    def test_file_uri_merges_like_a_local_store(self, tmp_path):
        source = ResultStore(tmp_path / "source")
        Runner(telemetry=False).run_batch(_two_specs(), store=source)
        destination = ResultStore(tmp_path / "destination")
        stats = destination.merge(source.root.resolve().as_uri())
        assert stats.ingested == 2
        again = destination.merge(str(source.root))  # plain path, same content
        assert (again.ingested, again.deduped) == (0, 2)
        assert len(destination) == 2

    def test_shard_file_uri_merges_with_dedup_and_torn_tolerance(self, tmp_path):
        source = ResultStore(tmp_path / "source")
        Runner(telemetry=False).run_batch(_two_specs(), store=source)
        [shard] = source.shard_paths()
        copied = tmp_path / "copied.jsonl"
        # A blank line and JSON that is not an object are passed over, uncounted.
        copied.write_text(shard.read_text() + "\n[1, 2, 3]\n" + shard.read_text() + "{torn\n")
        destination = ResultStore(tmp_path / "destination")
        stats = destination.merge(copied.resolve().as_uri())
        assert stats == MergeStats(ingested=2, deduped=2, torn_lines_skipped=1)  # doubled lines deduplicate

    def test_a_missing_shard_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read shard"):
            ResultStore(tmp_path / "into").merge((tmp_path / "absent.jsonl").resolve().as_uri())

    def test_a_line_that_is_not_utf8_is_torn_by_path_and_by_uri(self, tmp_path):
        source = ResultStore(tmp_path / "source")
        Runner(telemetry=False).run_batch([ExperimentSpec(experiment="table_power")], store=source)
        [shard] = source.shard_paths()
        with open(shard, "ab") as handle:
            handle.write(b'{"bad": "\xff\xfe"}\n')
        sources = [str(source.root), source.root.resolve().as_uri(), shard.resolve().as_uri()]
        stats = [ResultStore(tmp_path / f"into-{number}").merge(uri) for number, uri in enumerate(sources)]
        assert stats == [MergeStats(ingested=1, deduped=0, torn_lines_skipped=1)] * 3
