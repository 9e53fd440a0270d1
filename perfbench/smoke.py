"""Smoke check of the benchmark itself: every workload, tiny, plain and traced.

Run from the repository root::

    python3 perfbench/smoke.py

Each workload runs at ``--size tiny`` for one second, once with
``--trace 0`` and once with ``--trace 1``.  The check fails unless every
run exits 0, reports ``correct``, and emits exactly the metrics that
``BENCHMARK.json`` names for that mode, each with its declared unit.
The file is deliberately not named ``test_*.py``: it is not part of the
pytest suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_docs", "fleet_100k", "spec_churn")


def smoke_run(workload: str, trace: int, declared: list[dict]) -> list[str]:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    expected = {entry["name"]: entry["unit"] for entry in declared}
    if sorted(metrics) != sorted(expected):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} emitted as {entry!r}, expected a number in {unit}")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            found = smoke_run(workload, trace, declared[kind])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
