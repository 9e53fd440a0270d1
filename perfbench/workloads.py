"""The benchmark's workloads: ``paper_docs``, ``fleet_100k`` and ``spec_churn``.

``BENCHMARK.json`` gates ``paper_docs`` and ``spec_churn``; ``fleet_100k``
runs only by hand (see README.md for why).  Every workload is built from the workload seed and a size (``full`` is
the benchmark, ``tiny`` the smoke check) and has three steps:

* ``setup()`` does every import and builds every input the timed phase
  needs, so the setup probes measure what a user pays before any work;
* ``run(state, workdir)`` is the timed phase and returns an
  :class:`Outcome`;
* ``check(state, outcome)`` validates the outputs after the clock stopped
  and returns one message per failed operation.

The imports sit inside ``setup`` on purpose: each workload pays only for
the modules it uses, and the setup probe of a fresh process times them.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import hostclock
from layers import BenchmarkError, Site

#: ``--seed`` value that reproduces the committed documents and the
#: recorded fleet fingerprint; any other seed offsets every base seed.
CANONICAL_SEED = 0

ROOT = Path(__file__).resolve().parent.parent

#: The experiments with a declared ``driver_s.<experiment>`` metric in BENCHMARK.json.
DRIVERS = tuple(
    entry["name"].removeprefix("driver_s.")
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if entry["name"].startswith("driver_s.")
)

#: The epoch engine, wrapped on its class so every driver's instance is seen.
BATCHED_SITES = [
    Site("netsim.batched.init", "repro.netsim.batched", "BatchedFleetSimulator.__init__"),
    Site(
        "netsim.batched.run", "repro.netsim.batched", "BatchedFleetSimulator.run",
        lambda sim, _: {"epochs": sim.epochs_processed, "tx_resolved": sim.transmissions_resolved},
    ),
]


def seed_offset(seed: int) -> int:
    return seed % 2**31


@dataclass
class Outcome:
    """What one timed phase did, for checks and metrics."""

    attempted: int
    #: Workload-level figures printed beside the gated metrics: name -> (value, unit).
    summary: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer values the workload measures itself (not through wrappers).
    layer: dict[str, float] = field(default_factory=dict)
    #: Telemetry counters the program emitted for freshly executed work.
    counters: dict[str, int] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class Batch:
    results: list
    cached: list[bool]
    intervals_s: np.ndarray
    elapsed_s: float

    @property
    def fresh(self) -> list:
        return [result for result, hit in zip(self.results, self.cached, strict=True) if not hit]


def run_batch(runner: Any, specs: list, store: Any) -> Batch:
    """``Runner.run_batch`` with per-spec completion timestamps from ``on_result``."""
    stamps: list[float] = []
    cached: list[bool] = []

    def on_result(index: int, result: Any, was_cached: bool) -> None:
        stamps.append(hostclock.now())
        cached.append(was_cached)

    start = hostclock.now()
    results = runner.run_batch(specs, store=store, on_result=on_result)
    elapsed = hostclock.now() - start
    return Batch(results, cached, np.diff([start, *stamps]), elapsed)


def add_counters(totals: dict[str, int], documents: list[dict | None]) -> dict[str, int]:
    for document in documents:
        for name, value in (document or {}).get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def campaign_layers(cold: Batch, store: Any) -> dict[str, float]:
    """Runner overhead, per-driver time and store footprint of a cold pass into an empty store."""
    fresh = cold.fresh
    driver_s = dict.fromkeys(DRIVERS, 0.0)
    for result in fresh:
        if result.experiment not in driver_s:
            raise BenchmarkError(
                f"experiment {result.experiment!r} ran, but BENCHMARK.json declares no "
                f"driver_s.{result.experiment} metric; add it to per_layer"
            )
        driver_s[result.experiment] += result.runtime_s
    shard_bytes = sum(path.stat().st_size for path in store.shard_paths())
    return {
        "runner.overhead_ms_per_spec": 1e3 * (cold.elapsed_s - sum(driver_s.values())) / max(len(fresh), 1),
        "store.bytes_per_envelope": shard_bytes / max(len(fresh), 1),
        **{f"driver_s.{name}": seconds for name, seconds in driver_s.items()},
    }


def cold_summary(cold: Batch) -> dict[str, tuple[float, str]]:
    return {
        "specs_per_s": (len(cold.fresh) / cold.elapsed_s, "1/s"),
        "spec_p50_ms": (1e3 * float(np.percentile(cold.intervals_s, 50)), "ms"),
        "spec_p99_ms": (1e3 * float(np.percentile(cold.intervals_s, 99)), "ms"),
    }


def check_cold(cold: Batch) -> list[str]:
    """A cold pass executes every spec and every envelope validates."""
    from repro.api import validate_result_dict
    from repro.exceptions import ReproError

    problems = [f"cold pass served spec {i} from the store" for i, hit in enumerate(cold.cached) if hit]
    for result in cold.results:
        try:
            validate_result_dict(result.to_dict())
        except ReproError as exc:
            problems.append(f"{result.experiment} envelope invalid: {exc}")
    return problems


# --------------------------------------------------------------------- paper_docs

#: Experiments, with parameter overrides, that the tiny paper_docs runs.
_TINY_PAPER = {
    "fig06": {},
    "table_power": {},
    "coded_ofdm": {"trials": 50, "snr_stop_db": 4.0},
    "mac_scaling": {"fleet_sizes": (1, 5), "duration_s": 0.2},
    "mac_density": {"densities": (5, 10), "duration_s": 0.2},
}


def _shift_document_seeds(document: dict, offset: int) -> dict:
    shifted = copy.deepcopy(document)
    for element in [*shifted.get("sweeps", []), *shifted.get("specs", [])]:
        if element.get("seed") is not None:
            element["seed"] += offset
    return shifted


class PaperDocs:
    """The canonical document recipe: fast campaign plus both example grids, then the documents."""

    name = "paper_docs"
    sites = [
        *BATCHED_SITES,
        Site("netsim.heap.run", "repro.netsim.fleet", "FleetSimulator.run"),
        Site("mc.sweep", "repro.experiments.coded_ofdm", "run_sweep"),
        Site("mc.viterbi", "repro.mc.viterbi", "BatchViterbiDecoder.decode_batch"),
        Site("fabric.cas.hash", "repro.fabric.cas", "driver_source_hash"),
        Site("store.append", "repro.api.store", "ResultStore.append"),
        Site("store.scan", "repro.api.store", "ResultStore.iter_documents"),
        Site("analytics", "repro.api.report", "replicate_groups"),
        Site("analytics", "repro.api.report", "mean_std_ci"),
        Site("analytics", "repro.plots.gallery", "replicate_groups"),
        Site("report.render", "repro.api.report", "generate_report"),
        Site("plots.gallery", "repro.plots.gallery", "generate_gallery"),
    ]

    def __init__(self, seed: int, size: str):
        self.offset = seed_offset(seed)
        self.size = size

    @property
    def canonical(self) -> bool:
        return self.offset == CANONICAL_SEED and self.size == "full"

    def setup(self) -> dict:
        import repro.plots.gallery  # noqa: F401  (rendered in the timed phase)
        from repro.api import ExperimentSpec, iter_experiments, load_specs

        specs = []
        for experiment in iter_experiments():
            if self.size == "tiny" and experiment.name not in _TINY_PAPER:
                continue
            params = dict(experiment.fast_params)
            if self.size == "tiny":
                params.update(_TINY_PAPER[experiment.name])
            seed = None
            if self.offset and experiment.takes_seed and experiment.default_seed is not None:
                seed = experiment.default_seed + self.offset
            specs.append(ExperimentSpec(experiment=experiment.name, params=params, seed=seed))
        grids = ["per_grid.json"] if self.size == "tiny" else ["fleet_grid.json", "per_grid.json"]
        for grid in grids:
            document = json.loads((ROOT / "examples" / "grids" / grid).read_text())
            specs.extend(load_specs(_shift_document_seeds(document, self.offset)))
        return {"specs": specs}

    def run(self, state: dict, workdir: Path) -> Outcome:
        from repro.api import ResultStore, Runner, report
        from repro.plots import gallery

        store = ResultStore(workdir / "store")
        runner = Runner(jobs=1)
        cold = run_batch(runner, state["specs"], store)
        text = report.generate_report(store)
        gallery_text, images = gallery.generate_gallery(store)
        return Outcome(
            attempted=len(cold.results) + 2,
            summary=cold_summary(cold),
            layer=campaign_layers(cold, store),
            counters=add_counters({}, [result.telemetry for result in cold.fresh]),
            data={"cold": cold, "report": text, "gallery": gallery_text, "images": images},
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        data = outcome.data
        problems = check_cold(data["cold"])
        if not data["report"] or not data["gallery"] or not data["images"]:
            problems.append("a document rendered empty")
        if self.canonical:
            problems += committed_document_drift(data["report"], data["gallery"], data["images"])
        return problems


def committed_document_drift(report: str, gallery: str, images: dict[str, bytes]) -> list[str]:
    """Differences between the documents rendered in the timed phase and the committed ones.

    The comparisons of ``check_report`` and ``check_gallery`` (document
    text, every image, no orphaned image), made on the in-memory render
    instead of a second one.
    """
    problems = []
    if (ROOT / "EXPERIMENTS.md").read_text() != report:
        problems.append("EXPERIMENTS.md differs from the in-memory report")
    if (ROOT / "FIGURES.md").read_text() != gallery:
        problems.append("FIGURES.md differs from the in-memory gallery")
    figures = ROOT / "figures"
    for name, image in images.items():
        target = figures / name
        if not target.is_file() or target.read_bytes() != image:
            problems.append(f"figures/{name} is missing or differs from the in-memory render")
    problems += [f"figures/{orphan.name} is orphaned" for orphan in sorted(figures.glob("*.svg"))
                 if orphan.name not in images]
    return problems


# --------------------------------------------------------------------- fleet_100k

#: The 10^5-device contact-lens ALOHA fleet of the batched-engine benchmark.
FLEET = {"profile": "contact_lens", "mac": "aloha", "duration_s": 60.0, "period_s": 10.0,
         "engine": "batched", "mac_params": {"queue_limit": 8}}
FLEET_DEVICES = {"full": 100_000, "tiny": 1_000}
FLEET_EPOCH_S = 2e-3
FLEET_BASE_SEED = 2016

#: :func:`fleet_digest` of the full fleet at the canonical seed.
FLEET_CANONICAL_DIGEST = "ddfdaeb8a89af51e295fe390d8b2cda175842e65301144e0a0fae31d562f59d4"


class Fleet100k:
    """``repro.netsim.batched`` on a 10^5-device fleet; the scenario and simulator are set-up."""

    name = "fleet_100k"
    sites = BATCHED_SITES

    def __init__(self, seed: int, size: str):
        self.offset = seed_offset(seed)
        self.size = size
        self.devices = FLEET_DEVICES[size]
        self.duration_s = FLEET["duration_s"] if size == "full" else 2.0

    def setup(self) -> dict:
        from repro.netsim.batched import BatchedFleetSimulator
        from repro.netsim.fleet import FleetScenario

        scenario = FleetScenario(
            **{**FLEET, "duration_s": self.duration_s},
            num_devices=self.devices,
            seed=FLEET_BASE_SEED + self.offset,
        )
        # What repro.netsim.batched.simulate(scenario, epoch_s=...) runs,
        # split so that construction counts as set-up.
        return {"sim": BatchedFleetSimulator(scenario, epoch_s=FLEET_EPOCH_S)}

    def run(self, state: dict, workdir: Path) -> Outcome:
        start = hostclock.now()
        metrics = state["sim"].run()
        elapsed = hostclock.now() - start
        device_s = self.devices * self.duration_s
        return Outcome(
            attempted=1,
            summary={"device_s_per_s": (device_s / elapsed, "1/s")},
            data={"metrics": metrics},
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        metrics = outcome.data["metrics"]
        # Free the simulator before fingerprinting, so the check never sets the peak RSS.
        pending = state.pop("sim").pending_packets()
        aggregate = metrics.aggregate()
        problems = []
        if aggregate.num_devices != self.devices:
            problems.append(f"fleet has {aggregate.num_devices} devices, expected {self.devices}")
        accounted = aggregate.delivered + aggregate.dropped + aggregate.queue_dropped + pending
        if aggregate.generated != accounted:
            problems.append(f"packet conservation broken: {aggregate.generated} generated, {accounted} accounted")
        if self.offset == CANONICAL_SEED and self.size == "full":
            digest = fleet_digest(metrics)
            if digest != FLEET_CANONICAL_DIGEST:
                problems.append(f"fleet fingerprint {digest} != recorded {FLEET_CANONICAL_DIGEST}")
        return problems


def fleet_digest(metrics: Any) -> str:
    """sha256 over the ``repr`` of each per-device row of ``FleetMetrics.fingerprint()``."""
    digest = hashlib.sha256()
    for row in metrics.fingerprint():
        digest.update(repr(row).encode())
    return digest.hexdigest()


# --------------------------------------------------------------------- spec_churn

#: (experiment, base seed) of the cheap batch-engine specs.
CHURN = (("fig13", 13), ("fig17", 17), ("fig14", 14))
CHURN_REPLICATES = {"full": 400, "tiny": 10}


class SpecChurn:
    """Many cheap specs: a cold pass, a warm resume pass, then query, aggregate and report."""

    name = "spec_churn"
    sites = [
        Site("fabric.cas.hash", "repro.fabric.cas", "driver_source_hash"),
        Site("store.append", "repro.api.store", "ResultStore.append"),
        Site("store.scan", "repro.api.store", "ResultStore.iter_documents"),
        Site("store.query", "repro.api.store", "ResultStore.query"),
        Site("analytics", "repro.api.analytics", "aggregate"),
        Site("analytics", "repro.api.report", "replicate_groups"),
        Site("analytics", "repro.api.report", "mean_std_ci"),
        Site("report.render", "repro.api.report", "generate_report"),
    ]

    def __init__(self, seed: int, size: str):
        self.offset = seed_offset(seed)
        self.replicates = CHURN_REPLICATES[size]

    def setup(self) -> dict:
        from repro.api import SweepSpec

        specs = []
        for experiment, base_seed in CHURN:
            sweep = SweepSpec(experiment=experiment, engine="batch", seed=base_seed + self.offset,
                              replicates=self.replicates)
            specs.extend(sweep.expand())
        return {"specs": specs}

    def run(self, state: dict, workdir: Path) -> Outcome:
        from repro.api import ResultStore, Runner, analytics, report

        store = ResultStore(workdir / "store")
        runner = Runner(jobs=1)
        cold = run_batch(runner, state["specs"], store)
        warm = run_batch(runner, state["specs"], store)
        names = [experiment for experiment, _ in CHURN]
        queried = {name: store.query(name) for name in names}
        frames = {name: analytics.aggregate(store, name) for name in names}
        text = report.generate_report(store)
        return Outcome(
            attempted=len(cold.results) + len(warm.results) + 2 * len(names) + 1,
            summary={**cold_summary(cold), "resume_specs_per_s": (len(warm.results) / warm.elapsed_s, "1/s")},
            layer=campaign_layers(cold, store),
            counters=add_counters({}, [result.telemetry for result in cold.fresh]),
            data={"cold": cold, "warm": warm, "queried": queried, "frames": frames, "report": text},
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        from repro.api import result_key

        data = outcome.data
        problems = check_cold(data["cold"])
        problems += [f"warm pass re-executed spec {i}" for i, hit in enumerate(data["warm"].cached) if not hit]
        for index, (first, again) in enumerate(zip(data["cold"].results, data["warm"].results, strict=True)):
            if result_key(first) != result_key(again):
                problems.append(f"warm pass returned another result_key for spec {index}")
        for name, results in data["queried"].items():
            if len(results) != self.replicates:
                problems.append(f"query({name!r}) returned {len(results)} results, expected {self.replicates}")
        problems += [f"aggregate({name!r}) is empty" for name, frame in data["frames"].items() if len(frame) == 0]
        if not data["report"]:
            problems.append("report rendered empty")
        return problems


WORKLOADS = {workload.name: workload for workload in (PaperDocs, Fleet100k, SpecChurn)}
