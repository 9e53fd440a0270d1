"""Shard determinism and resume semantics of the process-sharded Runner.

The campaign contract: the same spec batch produces byte-identical result
payloads no matter how many worker processes execute it, and a killed
partial store merges cleanly on rerun (completed specs are not
re-executed; the final store holds exactly one result per spec).
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, ResultStore, Runner, SweepSpec, canonical_json
from repro.api.runner import _run_spec_task
from repro.api.store import result_key
from repro.exceptions import ConfigurationError


def _grid_specs():
    """A small but heterogeneous seeded grid (8 specs, two experiments)."""
    fleet = SweepSpec(
        experiment="mac_scaling",
        grid={"macs": [["aloha"], ["tdma"]], "fleet_sizes": [[3], [6]]},
        params={"duration_s": 0.2, "period_s": 0.05},
        seed=2016,
    ).expand()
    per = SweepSpec(
        experiment="fig17",
        grid={"phone_power_dbm": [6.0, 10.0]},
        params={"messages_per_point": 10, "step_inches": 8.0},
        seed=17,
        replicates=2,
    ).expand()
    return fleet + per


def _payload_bytes(results):
    """Sorted canonical JSON of every payload — the byte-identity fingerprint."""
    return sorted(canonical_json(result.payload) for result in results)


class TestShardDeterminism:
    def test_jobs_4_matches_jobs_1_byte_identically(self):
        specs = _grid_specs()
        serial = Runner(jobs=1).run_batch(specs)
        sharded = Runner(jobs=4).run_batch(specs)
        assert _payload_bytes(serial) == _payload_bytes(sharded)
        # Order, seeds and identities survive sharding too, not just the set.
        assert [result_key(r) for r in serial] == [result_key(r) for r in sharded]
        assert [r.seed for r in serial] == [r.seed for r in sharded]

    def test_sharded_stores_hold_identical_content(self, tmp_path):
        specs = _grid_specs()
        Runner(jobs=1).run_batch(specs, store=ResultStore(tmp_path / "serial"))
        Runner(jobs=3).run_batch(specs, store=ResultStore(tmp_path / "sharded"))
        serial = list(ResultStore(tmp_path / "serial").iter_results())
        sharded = list(ResultStore(tmp_path / "sharded").iter_results())
        assert _payload_bytes(serial) == _payload_bytes(sharded)

    def test_worker_task_roundtrips_in_process(self, tmp_path):
        # The worker entry point itself, executed in-process: spec dict in,
        # envelope dict out, shard appended.
        spec = _grid_specs()[0]
        document = _run_spec_task((spec.to_dict(), None, None, str(tmp_path), True))
        assert document["experiment"] == "mac_scaling"
        assert document["telemetry"]["counters"]["netsim.events.dispatched"] > 0
        assert len(ResultStore(tmp_path)) == 1

    def test_invalid_spec_aborts_before_any_worker_runs(self, tmp_path):
        from repro.api import ExperimentSpec

        specs = _grid_specs()[:2] + [ExperimentSpec(experiment="fig17", params={"bogus": 1})]
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError, match="bogus"):
            Runner(jobs=4).run_batch(specs, store=store)
        assert len(store) == 0  # validation happens before execution starts

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            Runner(jobs=0)


class TestResume:
    def test_partial_store_not_reexecuted(self, tmp_path):
        specs = _grid_specs()
        store = ResultStore(tmp_path)
        # Simulate a killed campaign: only the first half completed...
        Runner().run_batch(specs[: len(specs) // 2], store=store)
        # ...plus one envelope torn mid-write.
        with open(store.shard_path, "a") as handle:
            handle.write('{"experiment": "mac_sca')
        executed: list[bool] = []
        results = Runner(jobs=2).run_batch(
            specs, store=store, on_result=lambda i, r, cached: executed.append(not cached)
        )
        assert len(results) == len(specs)
        assert executed.count(True) == len(specs) - len(specs) // 2
        assert executed.count(False) == len(specs) // 2
        # Exactly one result per spec, rerun or not.
        assert len(store) == len(specs)
        assert sorted(result_key(r) for r in results) == sorted(store.existing_keys())

    def test_rerun_of_complete_store_executes_nothing(self, tmp_path):
        specs = _grid_specs()[:3]
        store = ResultStore(tmp_path)
        first = Runner().run_batch(specs, store=store)
        executed: list[bool] = []
        second = Runner().run_batch(specs, store=store, on_result=lambda i, r, c: executed.append(not c))
        assert executed == [False, False, False]
        assert _payload_bytes(first) == _payload_bytes(second)

    def test_no_resume_reexecutes_and_dedups_on_read(self, tmp_path):
        specs = _grid_specs()[:2]
        store = ResultStore(tmp_path)
        Runner().run_batch(specs, store=store)
        Runner().run_batch(specs, store=store, resume=False)
        assert len(list(store.iter_documents())) == 4  # both runs appended...
        assert len(store) == 2  # ...but reads collapse to one per invocation

    def test_resume_reuses_an_envelope_that_recorded_a_backend(self, tmp_path):
        # A store written while envelopes carried an array backend still
        # resumes: the field is not part of the invocation key.
        spec = ExperimentSpec("fig14", engine="batch", params={"packets_per_location": 5})
        fresh = Runner().run_batch([spec])[0]
        store = ResultStore(tmp_path)
        store.append_document({**fresh.to_dict(), "backend": "numpy"})
        cached: list[bool] = []
        [reused] = Runner().run_batch([spec], store=store, on_result=lambda i, r, c: cached.append(c))
        assert cached == [True]
        assert reused.same_payload(fresh) and result_key(reused) == result_key(fresh)

    def test_resume_without_store_runs_everything(self):
        specs = _grid_specs()[:2]
        executed: list[bool] = []
        Runner().run_batch(specs, on_result=lambda i, r, c: executed.append(not c))
        assert executed == [True, True]

    def test_on_result_streams_during_execution(self, monkeypatch):
        # Progress must fire as each spec completes, not after the batch: by
        # the time spec i runs, on_result has already seen specs 0..i-1.
        from repro.api import runner as runner_module

        specs = _grid_specs()[:3]
        seen: list[int] = []
        original = Runner._execute

        def tracking_execute(self, spec):
            tracking_execute.seen_before.append(len(seen))
            return original(self, spec)

        tracking_execute.seen_before = []
        monkeypatch.setattr(runner_module.Runner, "_execute", tracking_execute)
        Runner().run_batch(specs, on_result=lambda i, r, c: seen.append(i))
        assert tracking_execute.seen_before == [0, 1, 2]


class TestRunAllSharded:
    def test_run_all_respects_jobs_and_store(self, tmp_path):
        store = ResultStore(tmp_path)
        results = Runner(jobs=2).run_all(
            fast=True, names=["table_power", "table_packet_sizes", "fig17"], store=store
        )
        assert sorted(r.experiment for r in results) == ["fig17", "table_packet_sizes", "table_power"]
        assert len(store) == 3
