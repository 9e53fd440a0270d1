"""Telemetry analytics over a result store.

The runner attaches one :mod:`repro.obs.metrics` document per envelope;
this module folds a whole campaign's documents back into summary tables.
:func:`stats_frame` produces one :class:`~repro.api.analytics.Frame` row
per experiment — wall-time mean/p50/p95, span counts and event
throughput — and :func:`counter_totals` sums every counter across the
store.  Both feed ``python -m repro stats``.

Like every analytics path, iteration order is deterministic (experiments
sorted by name, counters by name) so the same store always renders the
same tables.  Only the *values* are machine-dependent: wall times and
events/sec measure the host that ran the campaign.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.api.analytics import Frame
from repro.api.result import Result
from repro.api.store import ResultStore

__all__ = ["campaign_counter_totals", "counter_totals", "span_count", "stats_frame"]


def span_count(document: dict[str, Any]) -> int:
    """Total number of spans (children included) in a telemetry document."""

    def walk(entry: dict[str, Any]) -> int:
        return 1 + sum(walk(child) for child in entry.get("children", ()))

    return sum(walk(entry) for entry in document.get("spans", ()))


def _observed(results: list[Result]) -> list[Result]:
    return [result for result in results if result.telemetry is not None]


def _counter_sum(results: list[Result], name: str) -> int:
    return sum(result.telemetry["counters"].get(name, 0) for result in _observed(results))


def _ratio(numerator: float, denominator: float) -> float:
    """A JSON-safe rate: 0.0 (not NaN) when the denominator is empty."""
    return numerator / denominator if denominator > 0 else 0.0


def counter_totals(
    store: "ResultStore | list[Result]", *, experiment: str | None = None
) -> dict[str, int]:
    """Every telemetry counter summed across the store, sorted by name."""
    results = list(store.iter_results() if isinstance(store, ResultStore) else store)
    if experiment is not None:
        results = [result for result in results if result.experiment == experiment]
    totals: dict[str, int] = {}
    for result in _observed(results):
        for name, value in result.telemetry["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return {name: totals[name] for name in sorted(totals)}


def campaign_counter_totals(store: ResultStore) -> dict[str, int]:
    """Campaign-level counters summed across the store's telemetry sidecar.

    Per-run telemetry documents only see what happens *inside* a driver
    call; resume hits and misses and merge fan-in happen in the
    coordinating process before or between runs.  The CLI records those
    in the store's campaign-telemetry sidecar
    (:meth:`~repro.api.store.ResultStore.append_campaign_telemetry`);
    this sums every sidecar counter, sorted by name.
    """
    totals: dict[str, int] = {}
    for document in store.iter_campaign_telemetry():
        for name, value in document.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return {name: totals[name] for name in sorted(totals)}


def stats_frame(
    store: "ResultStore | list[Result]", *, experiment: str | None = None
) -> Frame:
    """One summary row per experiment in the store.

    Columns: ``experiment``, ``runs`` (distinct stored invocations),
    ``observed`` (runs carrying telemetry), ``runtime_mean_s`` /
    ``runtime_p50_s`` / ``runtime_p95_s`` (over every run's recorded
    ``runtime_s``), ``spans`` (total spans collected) and ``events_per_s``
    (netsim events dispatched per second of observed wall time).
    """
    results = list(store.iter_results() if isinstance(store, ResultStore) else store)
    if experiment is not None:
        results = [result for result in results if result.experiment == experiment]

    by_experiment: dict[str, list[Result]] = {}
    for result in results:
        by_experiment.setdefault(result.experiment, []).append(result)

    names = sorted(by_experiment)
    runs: list[int] = []
    observed_counts: list[int] = []
    runtime_mean: list[float] = []
    runtime_p50: list[float] = []
    runtime_p95: list[float] = []
    spans: list[int] = []
    events_per_s: list[float] = []
    for name in names:
        members = by_experiment[name]
        observed = _observed(members)
        runtimes = np.asarray([member.runtime_s for member in members], dtype=float)
        runs.append(len(members))
        observed_counts.append(len(observed))
        runtime_mean.append(float(np.mean(runtimes)))
        runtime_p50.append(float(np.percentile(runtimes, 50)))
        runtime_p95.append(float(np.percentile(runtimes, 95)))
        spans.append(sum(span_count(member.telemetry) for member in observed))
        events = _counter_sum(members, "netsim.events.dispatched")
        observed_runtime = sum(member.runtime_s for member in observed)
        events_per_s.append(_ratio(events, observed_runtime))
    return Frame(
        {
            "experiment": names,
            "runs": runs,
            "observed": observed_counts,
            "runtime_mean_s": np.asarray(runtime_mean, dtype=float),
            "runtime_p50_s": np.asarray(runtime_p50, dtype=float),
            "runtime_p95_s": np.asarray(runtime_p95, dtype=float),
            "spans": spans,
            "events_per_s": np.asarray(events_per_s, dtype=float),
        }
    )
