"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.api import Result, ResultStore, payload_equal
from repro.api.cli import _check_envelope, main
from repro.api.registry import KNOWN_ENGINES
from repro.exceptions import ReproError
from repro.experiments import fig11_per


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig06", "fig11", "mac_scaling", "table_power"):
            assert name in out

    def test_json_listing_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert len(entries) == 14
        assert by_name["fig11"]["engines"] == ["scalar", "batch"]
        assert by_name["mac_scaling"]["artifact"] is None


class TestInfo:
    def test_info_shows_schema(self, capsys):
        assert main(["info", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "engines: scalar, batch" in out
        assert "num_locations" in out
        assert "seed = 11" in out

    def test_info_unknown_experiment_fails(self, capsys):
        assert main(["info", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestRun:
    def test_run_writes_envelope_identical_to_direct_call(self, tmp_path, capsys):
        out_path = tmp_path / "fig11.json"
        code = main(
            [
                "run",
                "fig11",
                "--engine",
                "batch",
                "--set",
                "num_locations=10",
                "--set",
                "num_packets=40",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        envelope = Result.from_json(out_path.read_text())
        assert envelope.engine == "batch"
        direct = fig11_per.run(num_locations=10, num_packets=40, engine="batch")
        assert payload_equal(envelope.payload, direct)

    def test_run_prints_summary(self, capsys):
        assert main(["run", "table_power"]) == 0
        out = capsys.readouterr().out
        assert "28 µW" in out or "27.99" in out

    def test_run_all_fast_validates_and_writes_dir(self, tmp_path, capsys):
        code = main(["run", "--all", "--fast", "--validate", "--quiet", "--json-dir", str(tmp_path)])
        assert code == 0
        written = sorted(path.stem for path in tmp_path.glob("*.json"))
        assert len(written) == 14
        for path in tmp_path.glob("*.json"):
            document = json.loads(path.read_text())
            assert document["schema_version"] == 1
            assert document["experiment"] == path.stem

    def test_seed_flag_is_recorded(self, tmp_path):
        out_path = tmp_path / "out.json"
        assert main(["run", "fig13", "--fast", "--seed", "77", "--json", str(out_path)]) == 0
        assert Result.from_json(out_path.read_text()).seed == 77

    def test_validate_rejects_a_round_trip_that_changes_the_bytes(self, monkeypatch):
        result = Result(experiment="table_power", engine="scalar", seed=None, payload={"margin_db": -0.0})
        _check_envelope(result)  # the JSON round trip keeps -0.0
        decoded = replace(result, payload={"margin_db": 0.0})
        assert decoded.same_payload(result)  # payload equality holds 0.0 == -0.0
        monkeypatch.setattr(Result, "from_dict", classmethod(lambda cls, data: decoded))
        with pytest.raises(ReproError, match="did not survive the JSON round trip"):
            _check_envelope(result)


def _write_grid(tmp_path, *, experiment="fig17", seed=17):
    grid = {
        "sweeps": [
            {
                "experiment": experiment,
                "grid": {"phone_power_dbm": [6.0, 10.0]},
                "params": {"messages_per_point": 10, "step_inches": 8.0},
                "seed": seed,
            }
        ]
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return path


class TestCampaigns:
    def test_specs_run_populates_store(self, tmp_path, capsys):
        grid = _write_grid(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["run", "--specs", str(grid), "--jobs", "2", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 spec(s), 2 executed, 0 reused" in out
        store = ResultStore(store_dir)
        assert len(store) == 2
        assert len(store.query("fig17")) == 2

    def test_specs_rerun_reuses_store(self, tmp_path, capsys):
        grid = _write_grid(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["run", "--specs", str(grid), "--store", str(store_dir), "--quiet"]) == 0
        assert main(["run", "--specs", str(grid), "--store", str(store_dir), "--quiet"]) == 0
        assert "0 executed, 2 reused" in capsys.readouterr().out
        assert len(ResultStore(store_dir)) == 2

    def test_summaries_count_envelopes_beside_results(self, tmp_path, capsys):
        # A forced rerun stores each invocation twice: two results, four envelopes.
        grid = _write_grid(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["run", "--specs", str(grid), "--store", str(store_dir), "--quiet"]) == 0
        assert "2 executed, 0 reused; store" in capsys.readouterr().out
        assert main(["run", "--specs", str(grid), "--store", str(store_dir), "--no-resume", "--quiet"]) == 0
        assert "now holds 2 result(s), 4 envelope(s)" in capsys.readouterr().out
        other = tmp_path / "other"
        assert main(["run", "table_power", "--store", str(other), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["merge", str(other), "--into", str(store_dir)]) == 0
        assert "now holds 3 result(s) (+1), 5 envelope(s)" in capsys.readouterr().out

    def test_specs_run_without_store_prints_progress(self, tmp_path, capsys):
        grid = _write_grid(tmp_path)
        assert main(["run", "--specs", str(grid), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "[1/2] fig17 [scalar]" in out
        assert "[2/2]" in out

    def test_all_with_jobs_and_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(["run", "--all", "--fast", "--jobs", "2", "--store", str(store_dir), "--quiet"])
        assert code == 0
        assert len(ResultStore(store_dir)) == 14

    def test_named_run_with_store_appends(self, tmp_path):
        store_dir = tmp_path / "store"
        assert main(["run", "table_power", "--store", str(store_dir), "--quiet"]) == 0
        assert len(ResultStore(store_dir).query("table_power")) == 1

    def test_report_roundtrip_and_check(self, tmp_path, capsys):
        grid = _write_grid(tmp_path)
        store_dir, doc = tmp_path / "store", tmp_path / "EXPERIMENTS.md"
        main(["run", "--specs", str(grid), "--store", str(store_dir), "--quiet"])
        assert main(["report", "--store", str(store_dir), "--output", str(doc)]) == 0
        assert doc.read_text().startswith("# EXPERIMENTS")
        assert main(["report", "--store", str(store_dir), "--output", str(doc), "--check"]) == 0
        doc.write_text(doc.read_text() + "drift\n")
        assert main(["report", "--store", str(store_dir), "--output", str(doc), "--check"]) == 1
        assert "out of date" in capsys.readouterr().err

    def test_report_to_stdout(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["run", "table_power", "--store", str(store_dir), "--quiet"])
        assert main(["report", "--store", str(store_dir), "--output", "-"]) == 0
        assert "# EXPERIMENTS" in capsys.readouterr().out


class TestOverrideParsing:
    def test_json_list_value(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            ["run", "mac_scaling", "--fast", "--set", 'macs=["aloha"]', "--set", "duration_s=0.2", "--json", str(out)]
        )
        assert code == 0
        assert Result.from_json(out.read_text()).params["macs"] == ["aloha"]

    def test_json_bool_and_dict_values_parse(self):
        from repro.api.cli import _parse_override

        assert _parse_override("x=true") == ("x", True)
        assert _parse_override("x=null") == ("x", None)
        assert _parse_override('x={"a": [1, 2]}') == ("x", {"a": [1, 2]})

    def test_python_literal_still_accepted(self):
        from repro.api.cli import _parse_override

        assert _parse_override("x=(1, 5)") == ("x", (1, 5))
        assert _parse_override("x=1e-3") == ("x", 0.001)

    def test_bare_word_stays_string(self):
        from repro.api.cli import _parse_override

        assert _parse_override("profile=contact_lens") == ("profile", "contact_lens")

    def test_unparseable_value_raises_clear_error(self):
        import argparse

        from repro.api.cli import _parse_override

        with pytest.raises(argparse.ArgumentTypeError, match="cannot parse value"):
            _parse_override("x=[1, 2")
        with pytest.raises(argparse.ArgumentTypeError, match="cannot parse value"):
            _parse_override("x=")

    def test_unparseable_value_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig11", "--set", "x=[1,"])
        assert excinfo.value.code == 2
        assert "cannot parse value" in capsys.readouterr().err


class TestErrors:
    def test_run_without_names_or_all_fails(self, capsys):
        assert main(["run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_run_with_names_and_all_fails(self):
        assert main(["run", "fig11", "--all"]) == 2

    def test_specs_with_names_fails(self, tmp_path):
        grid = _write_grid(tmp_path)
        assert main(["run", "fig11", "--specs", str(grid)]) == 2

    def test_specs_with_set_fails(self, tmp_path):
        grid = _write_grid(tmp_path)
        assert main(["run", "--specs", str(grid), "--set", "x=1"]) == 2

    def test_specs_with_json_dir_fails(self, tmp_path):
        grid = _write_grid(tmp_path)
        assert main(["run", "--specs", str(grid), "--json-dir", str(tmp_path)]) == 2

    def test_store_with_json_fails(self, tmp_path):
        assert main(["run", "fig11", "--store", str(tmp_path / "s"), "--json", str(tmp_path / "x.json")]) == 2

    def test_bad_jobs_fails(self):
        assert main(["run", "--all", "--jobs", "0"]) == 2

    def test_missing_grid_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--specs", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_single_json_with_multiple_names_fails(self, tmp_path, capsys):
        assert main(["run", "fig11", "fig13", "--json", str(tmp_path / "x.json")]) == 2

    def test_overrides_with_multiple_names_fail(self):
        assert main(["run", "table_power", "table_packet_sizes", "--set", "x=1"]) == 2

    def test_unsupported_engine_fails_cleanly(self, capsys):
        assert main(["run", "fig15", "--engine", "batch"]) == 1
        assert "engine not supported" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "trace"])
    def test_engine_help_names_the_known_engines(self, verb, capsys):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert f"({'/'.join(KNOWN_ENGINES)})" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["backends", "lint"])
    def test_retired_verb_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["run", "fig14"], ["trace", "fig11"]], ids=["run", "trace"])
    def test_retired_backend_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err

    def test_closed_stdout_pipe_exits_1_without_a_traceback(self):
        # ``list`` would exit 0 with a reader, so its 1 comes from the broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: the first write meets a broken pipe
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr

    def test_stdout_closed_from_the_start_is_not_an_error(self):
        # Python sets sys.stdout to None then, and print writes nothing.
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestObservability:
    def _store(self, tmp_path):
        store_dir = tmp_path / "store"
        main(["run", "fig11", "--fast", "--store", str(store_dir), "--quiet"])
        main(["run", "table_power", "--store", str(store_dir), "--quiet"])
        return store_dir

    def test_stats_renders_table_and_counters(self, tmp_path, capsys):
        store_dir = self._store(tmp_path)
        assert main(["stats", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "events/s" in out and "fast-path" not in out
        assert "fig11" in out and "table_power" in out
        assert "channel.link_realisations" in out

    def test_stats_experiment_filter_and_json(self, tmp_path, capsys):
        store_dir = self._store(tmp_path)
        capsys.readouterr()  # drain the campaign output
        assert main(["stats", "--store", str(store_dir), "--experiment", "fig11", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [row["experiment"] for row in document["experiments"]] == ["fig11"]
        assert document["counters"]["channel.link_realisations"] > 0

    def test_stats_unknown_experiment_fails(self, tmp_path, capsys):
        store_dir = self._store(tmp_path)
        assert main(["stats", "--store", str(store_dir), "--experiment", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_stats_empty_store_fails(self, tmp_path, capsys):
        assert main(["stats", "--store", str(tmp_path / "empty")]) == 1
        assert "no matching results" in capsys.readouterr().err

    def test_trace_prints_span_tree(self, capsys):
        assert main(["trace", "fig11", "--fast", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== Fig. 11")
        assert "run.fig11" in out
        assert "counters:" in out
        assert "channel.link_realisations" in out

    def test_trace_unknown_experiment_fails(self, capsys):
        assert main(["trace", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_merge_reports_stats_per_source(self, tmp_path, capsys):
        left, right = tmp_path / "left", tmp_path / "right"
        main(["run", "table_power", "--store", str(left), "--quiet"])
        main(["run", "table_power", "--store", str(right), "--quiet"])
        main(["run", "fig11", "--fast", "--store", str(right), "--quiet"])
        capsys.readouterr()
        assert main(["merge", str(right), "--into", str(left)]) == 0
        out = capsys.readouterr().out
        assert "1 ingested, 1 deduplicated, 0 torn line(s) skipped" in out
        assert "now holds 2 result(s) (+1)" in out
