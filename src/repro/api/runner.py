"""The engine-dispatching, process-sharding experiment runner.

The :class:`Runner` is the one execution path for every registered
experiment.  It owns the three policies the bespoke drivers used to each
carry on their own:

* **Seeding** — an explicit ``params["seed"]`` wins, then the spec's seed,
  then the runner's, then the driver's signature default.  Experiments
  without a ``seed`` parameter are deterministic and record ``seed=None``.
* **Engine dispatch** — the requested engine must be one the experiment
  registered; anything else raises
  :class:`~repro.exceptions.ConfigurationError` (never a silent scalar
  fallback).  Drivers with a native ``engine`` keyword receive it; for
  scalar-only drivers ``scalar`` is implied.
* **Sharding** — ``Runner(jobs=N)`` executes spec batches across ``N``
  worker processes (:class:`concurrent.futures.ProcessPoolExecutor`).
  Every spec's effective seed is resolved *before* dispatch, each spec
  owns its whole RNG stream, and results come back in spec order — so a
  batch is bit-identical regardless of shard count.

Runs come back as :class:`repro.api.result.Result` envelopes.
:meth:`Runner.run_batch` optionally streams them into a
:class:`~repro.api.store.ResultStore` (workers append to their own JSONL
shard) and, with ``resume=True``, skips specs whose results a partial
store already holds for the current code — a killed campaign continues
where it stopped, and an edit to the code re-executes what it may have
changed (see :mod:`repro.fabric.cas`).

Every driver call executes inside a root :mod:`repro.obs` span
(``run.<experiment>``), so the instrumentation points threaded through
netsim and mc land in one telemetry document per run, attached to the
envelope's ``telemetry`` field.  Worker processes each collect their own
runs' telemetry; because it rides inside the envelope JSON, sharded
campaigns aggregate it across the process boundary for free.  Pass
``Runner(telemetry=False)`` to disable collection entirely — results,
reports and figures are byte-identical either way.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Any

from repro.api.registry import Experiment, iter_experiments, load_registry
from repro.api.result import Result
from repro.api.spec import ExperimentSpec
from repro.api.store import EnvelopeHeader, ResultStore, invocation_key
from repro.exceptions import ConfigurationError, ReproError

# Module (not name) import: attribute lookup at call time lets tracing
# wrappers and tests substitute ``cas.driver_source_hash``.
from repro.fabric import cas as _cas
from repro.obs import metrics as obs
from repro.obs.metrics import Collector

__all__ = ["Runner"]


def _recorded_params(call_params: dict[str, Any]) -> dict[str, Any]:
    """Driver call params minus ``engine``, which the envelope records separately."""
    return {name: value for name, value in call_params.items() if name != "engine"}


def _run_spec_task(
    task: tuple[dict[str, Any], int | None, str | None, str | None, bool],
) -> dict[str, Any]:
    """Worker entry point: execute one serialized spec, return its envelope.

    Module-level (hence picklable under any multiprocessing start method);
    crosses the process boundary as plain JSON-compatible dicts so payload
    dataclasses never need to pickle.  When a store directory is given the
    worker appends the envelope to its own PID-named shard.
    """
    spec_dict, seed, engine, store_dir, telemetry = task
    result = Runner(seed=seed, engine=engine, telemetry=telemetry).run(ExperimentSpec.from_dict(spec_dict))
    document = result.to_dict()
    if store_dir is not None:
        ResultStore(store_dir).append_document(document)
    return document


class Runner:
    """Executes registered experiments uniformly.

    Parameters
    ----------
    seed:
        Default seed applied to every seedable experiment this runner
        executes (unless a spec or params override it).  ``None`` keeps
        each driver's own default, which reproduces the historical runs.
    engine:
        Default engine for every run; ``None`` uses each experiment's
        first registered engine (``scalar``, except ``batch`` for
        ``coded_ofdm``, whose only engine it is).
    jobs:
        Worker processes for :meth:`run_batch` / :meth:`run_all`.  ``1``
        (the default) executes in-process; results are identical either
        way because seeds are resolved per spec before dispatch.
    telemetry:
        Whether to collect a :mod:`repro.obs` telemetry document per run
        and attach it to the envelope (default ``True``).  Payloads,
        result keys, reports and figures are byte-identical either way.

    Every envelope records :func:`repro.fabric.cas.driver_source_hash` as
    its ``source_hash``, computed once per distinct experiment of a batch.
    :meth:`run_batch` reuses a stored envelope only when its invocation key
    matches the spec's and that hash equals the current one;
    ``resume=False`` is the only way to turn reuse off.
    """

    def __init__(
        self,
        *,
        seed: int | None = None,
        engine: str | None = None,
        jobs: int = 1,
        telemetry: bool = True,
    ):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.seed = seed
        self.engine = engine
        self.jobs = jobs
        self.telemetry = telemetry

    def run(
        self,
        experiment: str | ExperimentSpec,
        *,
        params: dict[str, Any] | None = None,
        engine: str | None = None,
        seed: int | None = None,
    ) -> Result:
        """Run one experiment and wrap its payload in a :class:`Result`.

        ``experiment`` may be a registry name (with optional keyword
        overrides) or a ready-made :class:`ExperimentSpec`.
        """
        if isinstance(experiment, ExperimentSpec):
            spec = experiment
            if params or engine or seed is not None:
                spec = ExperimentSpec(
                    experiment=spec.experiment,
                    params={**spec.params, **(params or {})},
                    engine=engine or spec.engine,
                    seed=seed if seed is not None else spec.seed,
                )
        else:
            spec = ExperimentSpec(experiment=experiment, params=dict(params or {}), engine=engine, seed=seed)
        return self.run_batch([spec])[0]

    def run_batch(
        self,
        specs: Iterable[ExperimentSpec],
        *,
        store: ResultStore | None = None,
        resume: bool = True,
        on_result: Callable[[int, Result, bool], None] | None = None,
    ) -> list[Result]:
        """Execute a batch of specs, one :class:`Result` per spec, in order.

        With ``jobs > 1`` the batch is sharded across worker processes;
        per-spec seeds were fixed when the specs were built, so the results
        are bit-identical to a serial run.  With a ``store``, every fresh
        envelope is appended to it (workers write their own shards) and —
        unless ``resume=False`` — specs whose invocation the store already
        holds with the current ``source_hash`` are *not* re-executed; their
        stored envelopes are returned in place, so a killed campaign merges
        cleanly on rerun.  A spec whose source hash is unavailable never
        reuses a stored envelope.

        ``on_result(index, result, was_cached)`` is invoked as each spec
        completes (in spec order), for progress reporting.
        """
        specs = list(specs)
        # Resolve every spec up front: invalid names/params/engines abort the
        # batch before any work (or worker process) starts, and the resolved
        # identities are what cache matching compares against the store.
        identities = [self._resolve_identity(spec) for spec in specs]
        # One digest per distinct experiment: resume compares it, and every
        # envelope the batch executes in this process carries it.
        source_hashes: dict[str, str | None] = {}
        for experiment, *_ in identities:
            if experiment.name not in source_hashes:
                source_hashes[experiment.name] = _cas.driver_source_hash(experiment)

        cached: dict[int, Result] = {}
        pending: list[int] = list(range(len(specs)))
        if store is not None and resume:
            # Select on the store index's headers: only the envelopes this
            # batch wants, written by the current code, are parsed and
            # decoded, the first one per invocation.
            by_key = self._cache_index(identities, source_hashes)

            def current(header: EnvelopeHeader) -> bool:
                wanted = by_key.get(header.key)
                return wanted is not None and header.source_hash == wanted[1]

            for header, document in store.iter_documents(current, distinct=True):
                cached[by_key[header.key][0]] = Result.from_dict(document)
            pending = [index for index in range(len(specs)) if index not in cached]
            # Zero-valued counters would clutter every observed batch's
            # document; record only what actually happened.
            if cached:
                obs.count("store.resume_hits", len(cached))
            if pending:
                obs.count("store.resume_misses", len(pending))

        # Cached and pending indices are complementary and both ascending, so
        # walking spec order and pulling fresh results lazily reports each
        # spec as soon as it (or its stored envelope) is available.
        fresh = self._iter_pending(specs, pending, store, source_hashes)
        results: list[Result] = []
        for index in range(len(specs)):
            was_cached = index in cached
            if was_cached:
                result = cached[index]
            else:
                fresh_index, result = next(fresh)
                if fresh_index != index:
                    raise ReproError(
                        f"batch execution order desynchronised: expected spec {index}, "
                        f"got {fresh_index}"
                    )
            if on_result is not None:
                on_result(index, result, was_cached)
            results.append(result)
        return results

    def _iter_pending(
        self,
        specs: list[ExperimentSpec],
        pending: list[int],
        store: ResultStore | None,
        source_hashes: dict[str, str | None],
    ) -> "Iterator[tuple[int, Result]]":
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for index in pending:
                result = self._execute(specs[index])
                result = replace(result, source_hash=source_hashes[result.experiment])
                if store is not None:
                    store.append(result)
                yield index, result
            return
        store_dir = str(store.root) if store is not None else None
        tasks = [
            (specs[index].to_dict(), self.seed, self.engine, store_dir, self.telemetry)
            for index in pending
        ]
        chunksize = max(1, len(tasks) // (self.jobs * 4))
        with ProcessPoolExecutor(max_workers=self.jobs, initializer=load_registry) as executor:
            for index, document in zip(pending, executor.map(_run_spec_task, tasks, chunksize=chunksize), strict=True):
                yield index, Result.from_dict(document)

    def run_all(
        self,
        *,
        fast: bool = False,
        names: Sequence[str] | None = None,
        store: ResultStore | None = None,
        resume: bool = True,
    ) -> list[Result]:
        """Run every registered experiment (optionally with fast parameters).

        ``names`` restricts the sweep; an unknown name raises rather than
        being silently skipped.  Honours the runner's ``jobs`` and, like
        :meth:`run_batch`, can stream into (and resume from) a store.
        """
        registered = [experiment.name for experiment in iter_experiments()]
        if names is not None:
            unknown = sorted(set(names) - set(registered))
            if unknown:
                raise ConfigurationError(f"unknown experiment(s) {unknown}; available: {registered}")
        specs = [
            ExperimentSpec(experiment=experiment.name, params=dict(experiment.fast_params) if fast else {})
            for experiment in iter_experiments()
            if names is None or experiment.name in names
        ]
        return self.run_batch(specs, store=store, resume=resume)

    def _resolve_identity(
        self, spec: ExperimentSpec
    ) -> tuple[Experiment, str, int | None, dict[str, Any]]:
        """Validate *spec* and return its resolved invocation material.

        ``(experiment, engine, seed, recorded params)`` — enough to derive
        its invocation key without running anything.
        """
        experiment = spec.resolve()
        call_params, engine, seed = self._resolve_call(spec, experiment)
        return experiment, engine, seed, _recorded_params(call_params)

    def _cache_index(
        self,
        identities: list[tuple[Experiment, str, int | None, dict[str, Any]]],
        source_hashes: dict[str, str | None],
    ) -> dict[str, tuple[int, str]]:
        """Map each spec's invocation key to its batch position and current source hash.

        Specs whose source hash is unavailable get no entry at all, so they
        can never reuse a stored envelope — they just re-run.
        """
        index: dict[str, tuple[int, str]] = {}
        for position, (experiment, engine, seed, recorded) in enumerate(identities):
            source_hash = source_hashes[experiment.name]
            if source_hash is not None:
                key = invocation_key(experiment.name, engine, seed, recorded)
                index[key] = (position, source_hash)
        return index

    def _execute(self, spec: ExperimentSpec) -> Result:
        """Run *spec*'s driver; the caller stamps the envelope's ``source_hash``."""
        experiment = spec.resolve()
        call_params, effective_engine, effective_seed = self._resolve_call(spec, experiment)
        telemetry: dict[str, Any] | None = None
        start = time.perf_counter()
        if self.telemetry:
            collector = Collector()
            with collector.activate(), collector.span(
                f"run.{experiment.name}", engine=effective_engine, seed=effective_seed
            ):
                payload = experiment.run(**call_params)
            telemetry = collector.to_dict()
        else:
            payload = experiment.run(**call_params)
        runtime = time.perf_counter() - start
        return Result(
            experiment=experiment.name,
            engine=effective_engine,
            seed=effective_seed,
            params=_recorded_params(call_params),
            runtime_s=runtime,
            payload=payload,
            telemetry=telemetry,
        )

    def _resolve_call(
        self, spec: ExperimentSpec, experiment: Experiment
    ) -> tuple[dict[str, Any], str, int | None]:
        params = dict(spec.params)

        engine = spec.engine or self.engine or experiment.default_engine
        # A runner-level default engine may not fit every experiment in a
        # batch; a spec-level request was already validated by resolve().
        experiment.check_engine(engine)
        if experiment.takes_engine:
            params["engine"] = engine

        seed: int | None = None
        if experiment.takes_seed:
            if "seed" in params:
                seed = params["seed"]
            elif spec.seed is not None:
                seed = spec.seed
            elif self.seed is not None:
                seed = self.seed
            else:
                seed = experiment.default_seed
            params["seed"] = seed
        return params, engine, seed
