"""Telemetry instrumentation through the runner, store and documents.

The observability contract has two halves: every observed run carries a
valid, structurally deterministic telemetry document — and turning
telemetry off (or on) changes *nothing* about result identity or any
generated byte-deterministic artefact.
"""

from __future__ import annotations

import json

from repro.api.registry import get_experiment
from repro.api.report import generate_report
from repro.api.runner import Runner
from repro.api.spec import ExperimentSpec
from repro.api.store import ResultStore, result_key
from repro.api.serialization import payload_equal
from repro.obs.metrics import structure, validate_telemetry
from repro.plots.gallery import generate_gallery


def _fast_spec(name: str) -> ExperimentSpec:
    return ExperimentSpec(experiment=name, params=dict(get_experiment(name).fast_params))


class TestRunnerAttachesTelemetry:
    def test_run_carries_validated_document(self):
        result = Runner(seed=0).run("fig11", params=dict(get_experiment("fig11").fast_params))
        assert result.telemetry is not None
        validate_telemetry(result.telemetry)

    def test_root_span_names_the_experiment(self):
        result = Runner(seed=0).run("table_power")
        assert result.telemetry["spans"][0]["name"] == "run.table_power"

    def test_telemetry_off_yields_none(self):
        result = Runner(seed=0, telemetry=False).run("table_power")
        assert result.telemetry is None

    def test_netsim_run_counts_events_and_resolutions(self):
        result = Runner(seed=0).run(
            "mac_scaling", params=dict(get_experiment("mac_scaling").fast_params)
        )
        counters = result.telemetry["counters"]
        assert counters["netsim.events.dispatched"] > 0
        assert counters["netsim.medium.resolutions"] > 0

    def test_scalar_mc_run_counts_link_realisations(self):
        result = Runner(seed=0).run("fig11", params=dict(get_experiment("fig11").fast_params))
        assert result.telemetry["counters"]["channel.link_realisations"] > 0

    def test_telemetry_survives_envelope_json_round_trip(self):
        from repro.api.result import Result

        result = Runner(seed=0).run("table_power")
        round_tripped = Result.from_json(result.to_json())
        assert round_tripped.telemetry == result.telemetry


class TestDeterminism:
    def test_same_spec_and_seed_give_identical_structure(self):
        runner = Runner(seed=0)
        params = dict(get_experiment("mac_scaling").fast_params)
        first = runner.run("mac_scaling", params=params)
        second = runner.run("mac_scaling", params=params)
        assert structure(first.telemetry) == structure(second.telemetry)

    def test_result_key_ignores_telemetry(self):
        on = Runner(seed=0).run("table_power")
        off = Runner(seed=0, telemetry=False).run("table_power")
        assert result_key(on) == result_key(off)

    def test_payloads_identical_with_and_without_telemetry(self):
        on = Runner(seed=0).run("fig11", params=dict(get_experiment("fig11").fast_params))
        off = Runner(seed=0, telemetry=False).run(
            "fig11", params=dict(get_experiment("fig11").fast_params)
        )
        assert payload_equal(on.payload, off.payload)


class TestByteIdentityOnOff:
    """EXPERIMENTS.md and every figure must not notice telemetry at all."""

    NAMES = ("fig10", "fig11", "table_power")

    def _store(self, root, *, telemetry: bool) -> ResultStore:
        store = ResultStore(root)
        Runner(seed=0, telemetry=telemetry).run_batch(
            [_fast_spec(name) for name in self.NAMES], store=store
        )
        return store

    def test_report_and_gallery_bytes_identical(self, tmp_path):
        on = self._store(tmp_path / "on", telemetry=True)
        off = self._store(tmp_path / "off", telemetry=False)
        assert generate_report(on) == generate_report(off)
        text_on, images_on = generate_gallery(on)
        text_off, images_off = generate_gallery(off)
        assert text_on == text_off
        assert images_on.keys() == images_off.keys()
        for name in images_on:
            assert images_on[name] == images_off[name]

    def test_double_render_identity_with_telemetry_on(self, tmp_path):
        store = self._store(tmp_path / "on", telemetry=True)
        first = generate_gallery(store)
        second = generate_gallery(store)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestCrossProcessAggregation:
    def test_worker_telemetry_rides_in_envelopes(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(seed=0, jobs=2)
        specs = [_fast_spec("fig11"), _fast_spec("fig13")]
        results = runner.run_batch(specs, store=store)
        for result in results:
            assert result.telemetry is not None
            validate_telemetry(result.telemetry)
        # the documents survived the worker → parent JSON hop via the store
        stored = {result.experiment: result for result in store.iter_results()}
        for name in ("fig11", "fig13"):
            assert stored[name].telemetry["counters"]["channel.link_realisations"] > 0

    def test_resume_counts_hits_and_misses(self, tmp_path):
        from repro.obs.metrics import collect

        store = ResultStore(tmp_path)
        runner = Runner(seed=0)
        specs = [_fast_spec("fig11")]
        runner.run_batch(specs, store=store)
        with collect() as collector:
            runner.run_batch(specs, store=store)
        assert collector.counters.get("store.resume_hits") == 1
        assert "store.resume_misses" not in collector.counters

    def test_strict_json_documents(self):
        result = Runner(seed=0).run("fig11", params=dict(get_experiment("fig11").fast_params))
        encoded = json.dumps(result.telemetry, allow_nan=False)
        assert json.loads(encoded) == result.telemetry
