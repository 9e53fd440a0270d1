"""Tests for the registry-driven EXPERIMENTS.md report generator."""

from __future__ import annotations

import pytest

from repro.api import (
    ResultStore,
    Runner,
    SweepSpec,
    check_report,
    experiment_names,
    generate_report,
    payload_equal,
    write_report,
)


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("report_store"))
    runner = Runner()
    runner.run_batch(
        SweepSpec(
            experiment="fig17",
            grid={"phone_power_dbm": [6.0, 10.0]},
            params={"messages_per_point": 10, "step_inches": 8.0},
            seed=17,
        ).expand(),
        store=store,
    )
    store.append(runner.run("table_power"))
    return store


class TestGenerate:
    def test_covers_every_registered_experiment(self, populated_store):
        text = generate_report(populated_store)
        for name in experiment_names():
            assert f"## {name} — " in text

    def test_present_experiments_show_runs_and_sweeps(self, populated_store):
        text = generate_report(populated_store)
        assert "- runs: 2" in text
        assert "- swept `phone_power_dbm`: 6.0, 10.0" in text
        assert "Measured (scalar engine" in text

    def test_absent_experiments_point_at_the_command(self, populated_store):
        text = generate_report(populated_store)
        assert "python -m repro run fig11 --store <dir>" in text

    def test_deterministic_for_same_store(self, populated_store):
        assert generate_report(populated_store) == generate_report(populated_store)

    def test_excludes_runtime(self, populated_store):
        assert "runtime" not in generate_report(populated_store).lower()

    def test_envelope_of_a_removed_engine_still_reads_and_renders(self, tmp_path):
        # Stores written while mac_scaling had a `fast_path` engine hold
        # envelopes under that name; nothing checks engine names on read.
        result = Runner().run("mac_scaling", params={"fleet_sizes": (1, 2), "duration_s": 0.2})
        store = ResultStore(tmp_path)
        store.append_document({**result.to_dict(), "engine": "fast_path"})
        (stored,) = store.iter_results()
        assert stored.engine == "fast_path"
        assert payload_equal(stored.payload, result.payload)
        text = generate_report(store)
        assert "- engines: fast_path" in text
        assert "Measured (fast_path engine" in text


class TestWriteAndCheck:
    def test_write_then_check_is_up_to_date(self, populated_store, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        text = write_report(populated_store, path)
        assert path.read_text() == text
        up_to_date, _ = check_report(populated_store, path)
        assert up_to_date

    def test_missing_file_is_out_of_date(self, populated_store, tmp_path):
        up_to_date, rendered = check_report(populated_store, tmp_path / "absent.md")
        assert not up_to_date
        assert rendered.startswith("# EXPERIMENTS")

    def test_stale_file_is_out_of_date(self, populated_store, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        write_report(populated_store, path)
        path.write_text(path.read_text() + "drift\n")
        up_to_date, _ = check_report(populated_store, path)
        assert not up_to_date
