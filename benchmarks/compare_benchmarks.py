#!/usr/bin/env python
"""Compare two pytest-benchmark JSON files and fail on median-time regressions.

Usage::

    python benchmarks/compare_benchmarks.py BASELINE.json CURRENT.json \
        [--threshold 1.30] [--absolute]

The committed ``benchmarks/baseline.json`` was produced on one machine and
CI runs on another, so absolute medians are not comparable.  By default the
script therefore *normalises* each benchmark's ``current / baseline`` median
ratio by the median of all ratios — a uniform machine-speed factor cancels
out exactly (and a few order-of-magnitude speedups cannot drag the centre),
so only benchmarks that slowed down *relative to the rest of the suite* by
more than ``--threshold`` fail the gate.  To reject
transient load spikes on shared runners, a benchmark must exceed the
threshold on **both** its median and its minimum round time to count as a
regression.  Pass ``--absolute`` to compare raw ratios instead (useful when
both files come from the same machine).

Refreshing the baseline after an intentional performance change::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-json=benchmarks/baseline.json
    python benchmarks/compare_benchmarks.py --slim benchmarks/baseline.json

then commit the regenerated baseline together with the change that explains
it.  The ``--slim`` pass strips pytest-benchmark's raw per-round samples
(several MB) down to the per-benchmark medians/minimums the gate actually
reads.

``--json OUT`` writes the comparison as machine-readable JSON next to the
human table: normalisation factors, per-benchmark ratios and the
regression verdicts.
"""

from __future__ import annotations

import argparse
import json


def load_stats(path: str) -> dict[str, tuple[float, float]]:
    """Map benchmark fullname → (median, min) seconds from a pytest-benchmark JSON."""
    with open(path) as handle:
        payload = json.load(handle)
    return {
        entry["fullname"]: (float(entry["stats"]["median"]), float(entry["stats"]["min"]))
        for entry in payload.get("benchmarks", [])
    }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def compare(
    baseline: dict[str, tuple[float, float]],
    current: dict[str, tuple[float, float]],
    *,
    threshold: float,
    absolute: bool,
    json_out: str | None = None,
) -> int:
    """Print a comparison table; return the number of regressions.

    A benchmark counts as regressed only when *both* its median and its
    minimum round time exceed the threshold: a genuine slowdown shifts the
    whole timing distribution, while a transient load spike on the runner
    inflates the median but leaves the minimum untouched.  With
    ``json_out``, the same comparison is also written as machine-readable
    JSON.
    """
    common = sorted(set(current) & set(baseline))
    if not common:
        raise SystemExit(
            "error: no common benchmarks between the two files — "
            "was the baseline refreshed after a benchmark rename? "
            "(see --slim / the refresh procedure in the module docstring)"
        )
    for name in sorted(set(baseline) - set(current)):
        print(f"warning: benchmark disappeared from the current run: {name}")
    for name in sorted(set(current) - set(baseline)):
        print(f"note: new benchmark without a baseline entry: {name}")

    median_ratios = {name: current[name][0] / baseline[name][0] for name in common}
    min_ratios = {name: current[name][1] / baseline[name][1] for name in common}
    median_scale = min_scale = 1.0
    if not absolute:
        # Median of ratios, not geometric mean: a couple of benchmarks sped
        # up 80x by an optimisation PR must not drag the centre down and
        # flag every *unchanged* benchmark as a relative regression.
        median_scale = _median(list(median_ratios.values()))
        min_scale = _median(list(min_ratios.values()))
        print(f"machine-speed normalisation factor (median ratio): {median_scale:.3f}")

    regressions = 0
    width = max(len(name) for name in common)
    report: dict[str, dict] = {}
    print(f"{'benchmark'.ljust(width)} | baseline | current  | median | min")
    for name in common:
        norm_median = median_ratios[name] / median_scale
        norm_min = min_ratios[name] / min_scale
        regressed = norm_median > threshold and norm_min > threshold
        flag = ""
        if regressed:
            regressions += 1
            flag = f"  REGRESSION (> {threshold:.2f}x)"
        elif norm_median > threshold:
            flag = "  noisy median, min within bounds"
        print(
            f"{name.ljust(width)} | {baseline[name][0] * 1e3:7.2f}ms | "
            f"{current[name][0] * 1e3:7.2f}ms | {norm_median:5.2f}x | {norm_min:5.2f}x{flag}"
        )
        report[name] = {
            "baseline_median_s": baseline[name][0],
            "baseline_min_s": baseline[name][1],
            "current_median_s": current[name][0],
            "current_min_s": current[name][1],
            "median_ratio": median_ratios[name],
            "min_ratio": min_ratios[name],
            "normalized_median": norm_median,
            "normalized_min": norm_min,
            "regressed": regressed,
        }
    if json_out is not None:
        document = {
            "threshold": threshold,
            "absolute": absolute,
            "normalization": {"median": median_scale, "min": min_scale},
            "benchmarks": report,
            "regressions": regressions,
        }
        with open(json_out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote machine-readable comparison to {json_out}")
    return regressions


def slim(path: str) -> None:
    """Rewrite *path* keeping only the stats the regression gate reads."""
    with open(path) as handle:
        payload = json.load(handle)
    slimmed = {
        "machine_info": payload.get("machine_info", {}),
        "datetime": payload.get("datetime"),
        "benchmarks": [
            {
                "fullname": entry["fullname"],
                "stats": {
                    "median": entry["stats"]["median"],
                    "min": entry["stats"]["min"],
                    "rounds": entry["stats"].get("rounds"),
                },
            }
            for entry in payload.get("benchmarks", [])
        ],
    }
    with open(path, "w") as handle:
        json.dump(slimmed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"slimmed {path}: kept median/min for {len(slimmed['benchmarks'])} benchmarks")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (or file to slim with --slim)")
    parser.add_argument("current", nargs="?", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.30,
        help="maximum tolerated (normalised) median slowdown factor (default 1.30)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw ratios without machine-speed normalisation",
    )
    parser.add_argument(
        "--slim",
        action="store_true",
        help="rewrite BASELINE in place, stripping raw samples down to the gated stats",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="OUT",
        help="also write the comparison as machine-readable JSON to this file",
    )
    args = parser.parse_args(argv)

    if args.slim:
        slim(args.baseline)
        return 0
    if args.current is None:
        parser.error("CURRENT is required unless --slim is given")

    regressions = compare(
        load_stats(args.baseline),
        load_stats(args.current),
        threshold=args.threshold,
        absolute=args.absolute,
        json_out=args.json_out,
    )
    if regressions:
        print(f"\nFAIL: {regressions} benchmark(s) regressed beyond {args.threshold:.2f}x")
        return 1
    print("\nOK: no benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
