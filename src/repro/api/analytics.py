"""Cross-campaign analytics: grouped aggregation over a :class:`ResultStore`.

Contract: the input is the decoded :class:`~repro.api.result.Result`
envelopes a store holds (JSON on disk); the output is a :class:`Frame` — a
plain dict-of-columns table (numpy-backed for numeric columns) that
round-trips through the same serialization layer as every envelope
(:meth:`Frame.to_dict` / :meth:`Frame.from_dict` are strict JSON).
Everything here is deterministic: groups are ordered by their canonical
JSON key, never by shard or insertion order, so aggregating the same store
twice yields equal frames byte for byte.

:func:`aggregate` is the headline entry point — it collapses the
seed-replicates a campaign ran at each grid point into mean / sample std /
95 % confidence half-width columns, one row per distinct combination of
the ``group_by`` parameters.  Metric samples come from each experiment's
registered ``metrics`` hook (payload → named scalars) or from an explicit
``reduce`` callable.  :func:`replicate_groups` is the lower-level helper
the report and the figure gallery share: it buckets results that differ
only in their seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import special

from repro.api.registry import get_experiment
from repro.api.result import Result
from repro.api.serialization import canonical_json, decode, encode, payload_equal
from repro.api.store import ResultStore
from repro.exceptions import ConfigurationError

__all__ = ["Frame", "ReplicateGroup", "aggregate", "mean_std_ci", "replicate_groups"]


class Frame:
    """A small column-oriented table: name → equal-length column.

    Numeric columns are held as numpy arrays (``float64`` for measures,
    ``int64`` for counts); non-numeric columns (group labels, engine
    names) stay plain lists.  The frame serializes through the envelope
    encoding (:func:`repro.api.serialization.encode`), so it survives the
    same strict-JSON round trip as every stored result.
    """

    def __init__(self, columns: Mapping[str, Any]):
        normalized: dict[str, Any] = {}
        length: int | None = None
        for name, values in columns.items():
            if not isinstance(name, str):
                raise ConfigurationError(f"frame column names must be strings, got {name!r}")
            column = self._normalize(name, values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ConfigurationError(
                    f"frame column {name!r} has {len(column)} rows, expected {length}"
                )
            normalized[name] = column
        self._columns = normalized
        self._length = length or 0

    @staticmethod
    def _normalize(name: str, values: Any) -> Any:
        if isinstance(values, np.ndarray):
            if values.ndim != 1:
                raise ConfigurationError(f"frame column {name!r} must be 1-D, got shape {values.shape}")
            return values
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ConfigurationError(f"frame column {name!r} must be a sequence, got {type(values).__name__}")
        values = list(values)
        if values and all(isinstance(v, bool) for v in values):
            return np.asarray(values, dtype=bool)
        if values and all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            return np.asarray(values, dtype=np.int64)
        if values and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            return np.asarray(values, dtype=np.float64)
        return values

    @property
    def column_names(self) -> list[str]:
        """Column names, in construction order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        """Number of rows (every column has this length)."""
        return self._length

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> Any:
        """One column by name (numpy array or list)."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"frame has no column {name!r}; available: {self.column_names}"
            ) from exc

    def rows(self) -> list[dict[str, Any]]:
        """The table as one dict per row (numpy scalars unwrapped)."""
        out = []
        for index in range(self._length):
            row = {}
            for name, values in self._columns.items():
                value = values[index]
                row[name] = value.item() if isinstance(value, np.generic) else value
            out.append(row)
        return out

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-compatible dict form (columns pass through ``encode``)."""
        return {"columns": {name: encode(values) for name, values in self._columns.items()}}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Frame":
        """Rebuild a frame from :meth:`to_dict` output."""
        if not isinstance(data, dict) or not isinstance(data.get("columns"), dict):
            raise ConfigurationError("frame document must be an object with a 'columns' mapping")
        return cls({name: decode(values) for name, values in data["columns"].items()})

    def equals(self, other: "Frame") -> bool:
        """Column-wise deep equality (numpy-aware, NaN-tolerant)."""
        if not isinstance(other, Frame) or self.column_names != other.column_names:
            return False
        return all(payload_equal(self._columns[name], other._columns[name]) for name in self._columns)

    def __repr__(self) -> str:
        return f"Frame({self._length} rows × {len(self._columns)} columns: {self.column_names})"


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence!r}")


def _t_quantile(confidence: float, df: int) -> float:
    # scipy.stats.t.ppf(0.5 + confidence / 2, df) evaluates this same stdtrit call; calling it
    # directly spares every process the scipy.stats import.
    return float(special.stdtrit(df, 0.5 + confidence / 2.0))


def mean_std_ci(samples: Iterable[float], *, confidence: float = 0.95) -> tuple[float, float, float, int]:
    """Collapse replicate samples into ``(mean, std, ci_half_width, n)``.

    Non-finite samples (NaN payload fields) are excluded; ``n`` counts the
    finite samples that remain.  The half-width uses the Student-t
    quantile at the given confidence, so ``mean ± ci_half_width`` is the
    usual small-sample confidence interval.  With a single sample the
    interval degenerates to the point: std and half-width are ``0.0``.
    With no finite samples everything is NaN and ``n`` is 0.  A
    *confidence* outside (0, 1) raises ``ConfigurationError``.
    """
    _check_confidence(confidence)
    values = np.asarray(list(samples), dtype=float)
    finite = values[np.isfinite(values)]
    n = int(finite.size)
    if n == 0:
        return math.nan, math.nan, math.nan, 0
    mean = float(np.mean(finite))
    if n == 1:
        return mean, 0.0, 0.0, 1
    std = float(np.std(finite, ddof=1))
    return mean, std, _t_quantile(confidence, n - 1) * std / math.sqrt(n), n


@dataclass(frozen=True)
class ReplicateGroup:
    """Results that differ only in their seed: one grid point's replicates.

    Attributes
    ----------
    experiment / engine:
        Shared by every member.
    params:
        The shared parameters, with ``seed`` removed.
    seeds:
        The distinct seeds, sorted (``None`` for deterministic runs).
    results:
        The member envelopes, ordered by seed.
    """

    experiment: str
    engine: str
    params: dict[str, Any]
    seeds: tuple[int | None, ...]
    results: tuple[Result, ...]

    @property
    def replicates(self) -> int:
        """Number of seed-replicates at this grid point."""
        return len(self.results)


def _point_params(result: Result) -> dict[str, Any]:
    return {name: value for name, value in result.params.items() if name != "seed"}


def _seed_order(result: Result) -> tuple[int, int]:
    return (0, 0) if result.seed is None else (1, result.seed)


def replicate_groups(results: Iterable[Result]) -> list[ReplicateGroup]:
    """Bucket results by (experiment, engine, params-minus-seed).

    Each bucket is one grid point; its members are the campaign's
    seed-replicates there.  Groups come back ordered by their canonical
    JSON identity, members ordered by seed — both independent of store
    shard layout, so downstream documents are deterministic.
    """
    buckets: dict[str, list[Result]] = {}
    for result in results:
        key = canonical_json(
            {
                "experiment": result.experiment,
                "engine": result.engine,
                "params": _point_params(result),
            }
        )
        buckets.setdefault(key, []).append(result)
    groups = []
    for key in sorted(buckets):
        members = sorted(buckets[key], key=_seed_order)
        first = members[0]
        groups.append(
            ReplicateGroup(
                experiment=first.experiment,
                engine=first.engine,
                params=_point_params(first),
                seeds=tuple(member.seed for member in members),
                results=tuple(members),
            )
        )
    return groups


def _reduce_to_metrics(reduce: Any, result: Result) -> dict[str, float]:
    reduced = reduce(result.payload)
    if isinstance(reduced, Mapping):
        metrics = dict(reduced)
    else:
        metrics = {"value": reduced}
    out = {}
    for name, value in metrics.items():
        if not isinstance(name, str):
            raise ConfigurationError(f"metric names must be strings, got {name!r}")
        try:
            out[name] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"metric {name!r} of experiment {result.experiment!r} is not a scalar: {value!r}"
            ) from exc
    return out


def _check_homogeneous(members: list[Result], group_by: Sequence[str]) -> None:
    """Reject groups whose members are not true seed-replicates.

    Pooling results that differ in a non-grouped parameter would report a
    confidence interval across distinct experimental conditions; failing
    loudly here mirrors the campaign layer's unknown-key rejection.
    """
    ignored = set(group_by) | {"seed"}
    values: dict[str, set[str]] = {}
    recorded_in: dict[str, int] = {}
    for member in members:
        for name, value in member.params.items():
            if name in ignored:
                continue
            values.setdefault(name, set()).add(canonical_json(value))
            recorded_in[name] = recorded_in.get(name, 0) + 1
    varying = sorted(
        name
        for name, distinct in values.items()
        # A parameter also varies when only some members record it (the
        # others ran the driver default).
        if len(distinct) > 1 or recorded_in[name] != len(members)
    )
    if varying:
        raise ConfigurationError(
            f"cannot aggregate: parameter(s) {varying} vary within one group, so its members are "
            "not seed-replicates; add them to group_by or pre-filter with store.query"
        )


def aggregate(
    store: "ResultStore | Iterable[Result]",
    experiment: str,
    *,
    group_by: Sequence[str] = (),
    reduce: Any = None,
    engine: str | None = None,
    confidence: float = 0.95,
) -> Frame:
    """Collapse an experiment's seed-replicates into a mean/std/CI frame.

    Results for *experiment* are grouped by the values of the ``group_by``
    parameters (one row per distinct combination, canonically ordered);
    every result in a group is one replicate sample.  Members of a group
    must be true seed-replicates: a recorded parameter other than ``seed``
    and the ``group_by`` keys that *varies* within a group would silently
    blend distinct experimental conditions into one confidence interval,
    so it raises instead — add the parameter to ``group_by`` or pre-filter
    with :meth:`~repro.api.store.ResultStore.query`.  Engines may mix (two
    engines measuring the same grid point are samples of the same
    quantity).  ``reduce`` maps a payload to a scalar or a ``{name:
    scalar}`` mapping and defaults to the experiment's registered
    ``metrics`` hook.  The output frame
    carries the ``group_by`` columns, ``replicates`` (group size),
    ``engines`` (sorted, comma-joined — a group may legitimately mix
    engines when a campaign ran the same grid point on several), and
    ``<metric>_mean`` / ``<metric>_std`` / ``<metric>_ci95`` columns per
    metric (the CI suffix follows *confidence*; NaN samples are excluded
    per metric, a single replicate degenerates to a zero-width interval).

    An empty store (or no matching results) yields a frame with the same
    columns minus the metric columns and zero rows.  A *confidence*
    outside (0, 1) raises :class:`~repro.exceptions.ConfigurationError`.
    """
    _check_confidence(confidence)
    registered = get_experiment(experiment)
    if reduce is None:
        reduce = registered.metrics
        if reduce is None:
            raise ConfigurationError(
                f"experiment {experiment!r} has no registered metrics hook; pass reduce= explicitly"
            )
    if engine is not None:
        registered.check_engine(engine)
    known = {p.name for p in registered.parameters}
    unknown = sorted(set(group_by) - known)
    if unknown:
        raise ConfigurationError(
            f"cannot group by {unknown}: experiment {experiment!r} has no such parameter(s); "
            f"available: {sorted(known)}"
        )

    results = store.query(experiment, engine=engine) if isinstance(store, ResultStore) else list(store)
    results = [r for r in results if r.experiment == experiment and (engine is None or r.engine == engine)]

    buckets: dict[str, list[Result]] = {}
    key_values: dict[str, tuple[Any, ...]] = {}
    for result in results:
        values = tuple(result.params.get(name) for name in group_by)
        key = canonical_json(list(values))
        buckets.setdefault(key, []).append(result)
        key_values[key] = values

    ci_label = f"ci{confidence * 100:g}"
    group_columns: dict[str, list[Any]] = {name: [] for name in group_by}
    replicate_column: list[int] = []
    engines_column: list[str] = []
    metric_samples: list[dict[str, float]] = []
    metric_names: list[str] = []
    for key in sorted(buckets):
        members = sorted(buckets[key], key=_seed_order)
        _check_homogeneous(members, group_by)
        for name, value in zip(group_by, key_values[key], strict=True):
            group_columns[name].append(value)
        replicate_column.append(len(members))
        engines_column.append(",".join(sorted({member.engine for member in members})))
        samples: dict[str, list[float]] = {}
        for member in members:
            for name, value in _reduce_to_metrics(reduce, member).items():
                if name not in samples:
                    samples[name] = []
                    if name not in metric_names:
                        metric_names.append(name)
                samples[name].append(value)
        metric_samples.append({name: values for name, values in samples.items()})

    columns: dict[str, Any] = {name: values for name, values in group_columns.items()}
    columns["replicates"] = replicate_column
    columns["engines"] = engines_column
    for name in metric_names:
        means, stds, halves = [], [], []
        for samples in metric_samples:
            mean, std, half, _ = mean_std_ci(samples.get(name, ()), confidence=confidence)
            means.append(mean)
            stds.append(std)
            halves.append(half)
        columns[f"{name}_mean"] = np.asarray(means, dtype=float)
        columns[f"{name}_std"] = np.asarray(stds, dtype=float)
        columns[f"{name}_{ci_label}"] = np.asarray(halves, dtype=float)
    return Frame(columns)
