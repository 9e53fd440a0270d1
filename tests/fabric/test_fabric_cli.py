"""End-to-end CLI tests of the distributed campaign fabric.

The headline acceptance check lives here: running a grid serially and
running it as four shard slices (merged back through manifests) produce
**byte-identical** ``EXPERIMENTS.md`` documents.  Plus the satellite CLI
surfaces: ``merge --json``, multi-``--specs`` concatenation, campaign
cache counters in ``stats``, and the argument-validation guard rails.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api.cli import main
from repro.api.report import generate_report
from repro.api.store import ResultStore

_GRIDS = Path(__file__).resolve().parents[2] / "examples" / "grids"
_PER_GRID = str(_GRIDS / "per_grid.json")


def _write_grid(tmp_path: Path, name: str, step_feet: list[float]) -> str:
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "sweeps": [
                    {
                        "experiment": "fig13",
                        "grid": {"step_feet": step_feet},
                        "engine": "batch",
                        "seed": 13,
                    }
                ]
            }
        )
    )
    return str(path)


class TestShardedByteIdentity:
    def test_four_way_shards_merge_to_the_serial_report(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        assert main(["run", "--specs", _PER_GRID, "--store", str(serial), "--quiet"]) == 0

        manifests = []
        for index in range(4):
            store = tmp_path / f"shard{index}"
            manifest = tmp_path / f"manifest{index}.json"
            code = main(
                [
                    "run",
                    "--specs",
                    _PER_GRID,
                    "--shard-index",
                    str(index),
                    "--shard-count",
                    "4",
                    "--store",
                    str(store),
                    "--manifest",
                    str(manifest),
                    "--quiet",
                ]
            )
            assert code == 0
            manifests.extend(["--manifest", str(manifest)])

        merged = tmp_path / "merged"
        assert main(["merge", "--into", str(merged), *manifests]) == 0
        capsys.readouterr()

        serial_report = generate_report(ResultStore(serial))
        merged_report = generate_report(ResultStore(merged))
        assert serial_report == merged_report  # byte-identical fan-in

    def test_report_check_passes_against_the_merged_store(self, tmp_path, capsys):
        grid = _write_grid(tmp_path, "grid.json", [2.0, 3.0])
        for index in range(2):
            args = ["run", "--specs", grid, "--shard-index", str(index), "--shard-count", "2"]
            assert main([*args, "--store", str(tmp_path / f"s{index}"), "--quiet"]) == 0
        merged = tmp_path / "merged"
        assert main(["merge", "--into", str(merged), str(tmp_path / "s0"), str(tmp_path / "s1")]) == 0
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--store", str(merged), "--output", str(output)]) == 0
        assert main(["report", "--store", str(merged), "--output", str(output), "--check"]) == 0


class TestMergeJson:
    def test_json_output_reports_per_source_stats(self, tmp_path, capsys):
        grid = _write_grid(tmp_path, "grid.json", [2.0])
        assert main(["run", "--specs", grid, "--store", str(tmp_path / "source"), "--quiet"]) == 0
        capsys.readouterr()
        code = main(
            ["merge", "--into", str(tmp_path / "dest"), "--json", str(tmp_path / "source"), str(tmp_path / "source")]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry["ingested"] for entry in document["sources"]] == [1, 0]
        assert (document["ingested"], document["deduped"], document["results"]) == (1, 1, 1)

    def test_manifest_fan_in_refuses_a_missing_shard(self, tmp_path, capsys):
        grid = _write_grid(tmp_path, "grid.json", [2.0, 3.0])
        manifest = tmp_path / "manifest0.json"
        args = ["run", "--specs", grid, "--shard-index", "0", "--shard-count", "2"]
        assert main([*args, "--store", str(tmp_path / "s0"), "--manifest", str(manifest), "--quiet"]) == 0
        assert main(["merge", "--into", str(tmp_path / "dest"), "--manifest", str(manifest)]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_no_sources_at_all_is_a_usage_error(self, tmp_path, capsys):
        assert main(["merge", "--into", str(tmp_path / "dest")]) == 2
        assert "give SOURCE" in capsys.readouterr().err


class TestMultiSpecs:
    def test_batches_concatenate_and_duplicates_are_rejected(self, tmp_path, capsys):
        first = _write_grid(tmp_path, "first.json", [2.0, 3.0])
        second = _write_grid(tmp_path, "second.json", [4.0])
        store = tmp_path / "store"
        assert main(["run", "--specs", first, "--specs", second, "--store", str(store), "--quiet"]) == 0
        assert "campaign: 3 spec(s)" in capsys.readouterr().out
        assert len(ResultStore(store)) == 3

        overlapping = _write_grid(tmp_path, "overlap.json", [3.0, 5.0])
        assert main(["run", "--specs", first, "--specs", overlapping, "--store", str(store)]) == 1
        assert "duplicate spec" in capsys.readouterr().err


class TestCampaignCounters:
    def test_stats_reports_resume_hits_and_misses(self, tmp_path, capsys):
        grid = _write_grid(tmp_path, "grid.json", [2.0, 3.0])
        store = tmp_path / "store"
        assert main(["run", "--specs", grid, "--store", str(store), "--quiet"]) == 0
        assert main(["run", "--specs", grid, "--store", str(store), "--quiet"]) == 0  # warm rerun
        capsys.readouterr()
        assert main(["stats", "--store", str(store), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["campaign_counters"]["store.resume_misses"] == 2
        assert document["campaign_counters"]["store.resume_hits"] == 2
        assert main(["stats", "--store", str(store)]) == 0
        assert "campaign counters" in capsys.readouterr().out

    def test_no_resume_forces_re_execution(self, tmp_path, capsys):
        grid = _write_grid(tmp_path, "grid.json", [2.0])
        store = tmp_path / "store"
        assert main(["run", "--specs", grid, "--store", str(store), "--quiet"]) == 0
        assert main(["run", "--specs", grid, "--store", str(store), "--no-resume", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 reused; store" in out.splitlines()[-1]


class TestGuardRails:
    def test_shard_flags_come_as_a_pair_and_require_specs(self, capsys):
        assert main(["run", "--specs", _PER_GRID, "--shard-index", "0"]) == 2
        assert "pair" in capsys.readouterr().err
        assert main(["run", "fig13", "--shard-index", "0", "--shard-count", "2"]) == 2
        assert "require --specs" in capsys.readouterr().err

    def test_manifest_requires_specs(self, tmp_path, capsys):
        assert main(["run", "fig13", "--manifest", str(tmp_path / "m.json")]) == 2
        assert "--manifest requires --specs" in capsys.readouterr().err

    def test_no_resume_requires_store(self, capsys):
        assert main(["run", "table_power", "--no-resume"]) == 2
        assert "--no-resume requires --store" in capsys.readouterr().err

    def test_out_of_range_shard_index_fails_cleanly(self, capsys):
        assert main(["run", "--specs", _PER_GRID, "--shard-index", "4", "--shard-count", "4"]) == 1
        assert "shard" in capsys.readouterr().err
