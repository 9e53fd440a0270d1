"""Tests for the CI benchmark-regression compare script."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "compare_benchmarks.py"


def _payload(entries: dict[str, tuple[float, float]]) -> dict:
    return {
        "benchmarks": [
            {"fullname": name, "stats": {"median": median, "min": minimum}}
            for name, (median, minimum) in entries.items()
        ]
    }


def _run(tmp_path: Path, baseline: dict, current: dict, *extra: str):
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(baseline))
    current_path.write_text(json.dumps(current))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(baseline_path), str(current_path), *extra],
        capture_output=True,
        text=True,
    )


def test_identical_runs_pass(tmp_path):
    payload = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8)})
    result = _run(tmp_path, payload, payload)
    assert result.returncode == 0
    assert "OK" in result.stdout


def test_uniform_machine_slowdown_is_normalised_away(tmp_path):
    baseline = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (3.0, 2.7)})
    current = _payload({"a": (2.0, 1.8), "b": (4.0, 3.6), "c": (6.0, 5.4)})
    result = _run(tmp_path, baseline, current)
    assert result.returncode == 0


def test_single_benchmark_regression_fails(tmp_path):
    baseline = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (3.0, 2.7)})
    current = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (9.0, 8.1)})
    result = _run(tmp_path, baseline, current)
    assert result.returncode == 1
    assert "REGRESSION" in result.stdout


def test_noisy_median_with_stable_min_passes(tmp_path):
    baseline = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (3.0, 2.7)})
    current = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (9.0, 2.7)})
    result = _run(tmp_path, baseline, current)
    assert result.returncode == 0
    assert "noisy median" in result.stdout


def test_absolute_mode_flags_uniform_slowdown(tmp_path):
    baseline = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8)})
    current = _payload({"a": (2.0, 1.8), "b": (4.0, 3.6)})
    result = _run(tmp_path, baseline, current, "--absolute")
    assert result.returncode == 1


def test_large_speedups_do_not_flag_unchanged_benchmarks(tmp_path):
    # Two benchmarks sped up 80x; the others are untouched.  A geometric-mean
    # centre would report the untouched ones as relative regressions.
    entries = {f"b{i}": (1.0, 0.9) for i in range(8)}
    baseline = _payload(entries)
    faster = dict(entries)
    faster["b0"] = (1.0 / 80.0, 0.9 / 80.0)
    faster["b1"] = (1.0 / 80.0, 0.9 / 80.0)
    result = _run(tmp_path, baseline, _payload(faster))
    assert result.returncode == 0
    assert "REGRESSION" not in result.stdout


def test_disjoint_benchmark_sets_error(tmp_path):
    result = _run(tmp_path, _payload({"a": (1.0, 0.9)}), _payload({"b": (1.0, 0.9)}))
    assert result.returncode == 1
    assert "no common benchmarks" in result.stderr
    assert "regressed" not in result.stdout


def test_json_out_writes_machine_readable_report(tmp_path):
    baseline = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (3.0, 2.7)})
    current = _payload({"a": (1.0, 0.9), "b": (2.0, 1.8), "c": (9.0, 8.1)})
    out = tmp_path / "compare.json"
    result = _run(tmp_path, baseline, current, "--json", str(out))
    assert result.returncode == 1
    document = json.loads(out.read_text())
    assert document["regressions"] == 1
    assert document["benchmarks"]["c"]["regressed"] is True
    assert document["benchmarks"]["a"]["regressed"] is False
    assert document["benchmarks"]["c"]["baseline_median_s"] == 3.0
    assert "normalization" in document


def test_per_backend_key_gated_exactly_when_baseline_has_it(tmp_path):
    baseline = _payload({"v[numpy]": (1.0, 0.9), "v[strict]": (1.0, 0.9), "w": (2.0, 1.8)})
    current = _payload({"v[numpy]": (1.0, 0.9), "v[strict]": (9.0, 8.1), "w": (2.0, 1.8)})
    result = _run(tmp_path, baseline, current)
    assert result.returncode == 1
    assert "v[strict]" in result.stdout and "REGRESSION" in result.stdout


def test_slim_keeps_only_the_gated_stats(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "machine_info": {"cpu": "test"},
                "datetime": "2026-01-01",
                "benchmarks": [
                    {
                        "fullname": "a",
                        "stats": {"median": 1.0, "min": 0.9, "rounds": 5, "data": [1.0] * 999},
                    }
                ],
            }
        )
    )
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--slim", str(baseline_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    slimmed = json.loads(baseline_path.read_text())
    assert "data" not in slimmed["benchmarks"][0]["stats"]
    assert slimmed["benchmarks"][0]["stats"] == {"median": 1.0, "min": 0.9, "rounds": 5}
