"""Declarative sweep campaigns: grids of experiment invocations as data.

The paper's headline results are sweeps, not single runs — PER vs.
distance, fleet-size MAC scaling, cross-technology coexistence.  A
:class:`SweepSpec` describes such a sweep declaratively: one experiment,
a ``grid`` mapping parameter names to the values to enumerate, shared
base parameters, an engine, a base seed and an optional replicate count.
:meth:`SweepSpec.expand` turns it into the cartesian product of
:class:`~repro.api.spec.ExperimentSpec` — the batch a
:class:`~repro.api.runner.Runner` executes, serially or sharded across
processes.

Seeds are **derived, not assigned**: every expanded spec gets a seed
computed from the campaign's base seed and the spec's own (experiment,
parameters, replicate) identity via :func:`derive_seed`.  Because the
derivation happens at expansion time, before any sharding, the same
sweep document always produces the same specs — and therefore bit-
identical results — regardless of how many worker processes execute it.

Sweeps round-trip through JSON (:meth:`SweepSpec.to_dict` /
:meth:`SweepSpec.from_dict`), and :func:`load_specs` /
:func:`read_specs` accept whole grid documents (single sweeps, lists,
or ``{"sweeps": [...], "specs": [...]}``) so campaigns live in
configuration files such as ``examples/grids/fleet_grid.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.registry import Experiment, get_experiment
from repro.api.serialization import canonical_json, decode, encode
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError

__all__ = ["SweepSpec", "derive_seed", "load_specs", "read_specs"]

#: Seeds derived for expanded specs stay in numpy's comfortable range.
_SEED_SPACE = 2**32

_SWEEP_KEYS = {"experiment", "grid", "params", "engine", "seed", "replicates"}
_DOCUMENT_KEYS = {"sweeps", "specs"}


def derive_seed(base_seed: int, experiment: str, params: Mapping[str, Any], replicate: int = 0) -> int:
    """Deterministic per-spec seed from the campaign seed and the spec identity.

    The derivation hashes the canonical JSON encoding of ``(base_seed,
    experiment, params, replicate)``, so it depends only on *what* is being
    run — never on expansion order, shard assignment or process count — and
    distinct grid points (or replicates) get statistically independent
    streams.
    """
    material = canonical_json(
        {"base_seed": base_seed, "experiment": experiment, "params": dict(params), "replicate": replicate}
    )
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: an experiment plus the grid to enumerate.

    Attributes
    ----------
    experiment:
        Registry name of the experiment every grid point runs.
    grid:
        Parameter name → sequence of values to enumerate.  The expansion
        is the cartesian product, outermost key varying slowest.
    params:
        Base parameters shared by every grid point (grid keys override).
    engine:
        Engine for every expanded spec, or ``None`` for the default.
    seed:
        Campaign base seed.  Seedable experiments get a per-spec seed
        derived from it (see :func:`derive_seed`); ``None`` keeps each
        driver's own default seed.
    replicates:
        Seed-replicates per grid point.  More than one requires a base
        seed and a seedable experiment (otherwise the copies would be
        identical).
    """

    experiment: str
    grid: dict[str, Sequence[Any]] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    engine: str | None = None
    seed: int | None = None
    replicates: int = 1

    def resolve(self) -> Experiment:
        """Look up the experiment and validate the sweep against it."""
        experiment = get_experiment(self.experiment)
        for name, source in (("grid", self.grid), ("params", self.params)):
            for reserved in ("seed", "engine"):
                if reserved in source:
                    raise ConfigurationError(
                        f"sweep for {self.experiment!r} puts {reserved!r} in {name}; "
                        f"use the SweepSpec.{reserved} field (seeds are derived per spec)"
                    )
        overlap = sorted(set(self.grid) & set(self.params))
        if overlap:
            raise ConfigurationError(
                f"sweep for {self.experiment!r} lists parameter(s) {overlap} in both grid and params"
            )
        for name, values in self.grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence) or len(values) == 0:
                raise ConfigurationError(
                    f"sweep grid axis {name!r} must be a non-empty sequence of values, got {values!r}"
                )
        probe = {**self.params, **{name: values[0] for name, values in self.grid.items()}}
        experiment.check_params(probe)
        if self.engine is not None:
            experiment.check_engine(self.engine)
        if self.replicates < 1:
            raise ConfigurationError(f"sweep replicates must be >= 1, got {self.replicates}")
        if self.replicates > 1:
            if self.seed is None:
                raise ConfigurationError(
                    f"sweep for {self.experiment!r} asks for {self.replicates} replicates without a "
                    "base seed; identical copies would be pointless"
                )
            if not experiment.takes_seed:
                raise ConfigurationError(
                    f"sweep for {self.experiment!r} asks for replicates but the experiment is "
                    "deterministic (no seed parameter)"
                )
        return experiment

    @property
    def size(self) -> int:
        """Number of specs :meth:`expand` produces."""
        points = 1
        for values in self.grid.values():
            points *= len(values)
        return points * self.replicates

    def expand(self) -> list[ExperimentSpec]:
        """Enumerate the grid into concrete :class:`ExperimentSpec` objects."""
        experiment = self.resolve()
        axes = list(self.grid.items())
        specs: list[ExperimentSpec] = []
        for combo in itertools.product(*(values for _, values in axes)):
            point = {**self.params, **{name: value for (name, _), value in zip(axes, combo, strict=True)}}
            for replicate in range(self.replicates):
                seed: int | None = None
                if self.seed is not None and experiment.takes_seed:
                    seed = derive_seed(self.seed, self.experiment, point, replicate)
                specs.append(
                    ExperimentSpec(
                        experiment=self.experiment,
                        params=dict(point),
                        engine=self.engine,
                        seed=seed,
                    )
                )
        return specs

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict form of the sweep."""
        return {
            "experiment": self.experiment,
            "grid": encode(dict(self.grid)),
            "params": encode(self.params),
            "engine": self.engine,
            "seed": self.seed,
            "replicates": self.replicates,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_dict` output, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"sweep document must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - _SWEEP_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown key(s) {unknown} in sweep document; allowed: {sorted(_SWEEP_KEYS)}")
        if "experiment" not in data:
            raise ConfigurationError("sweep document is missing required key 'experiment'")
        return cls(
            experiment=data["experiment"],
            grid=decode(data.get("grid") or {}),
            params=decode(data.get("params") or {}),
            engine=data.get("engine"),
            seed=data.get("seed"),
            replicates=data.get("replicates", 1),
        )


def _element_to_specs(element: Any, where: str) -> list[ExperimentSpec]:
    if not isinstance(element, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(element).__name__}")
    if "grid" in element or "replicates" in element:
        return SweepSpec.from_dict(element).expand()
    return [ExperimentSpec.from_dict(element)]


def load_specs(document: Any) -> list[ExperimentSpec]:
    """Expand a grid document into the flat list of specs it describes.

    Accepted forms:

    * a single sweep object (has a ``grid`` key) or single spec object,
    * a list mixing sweep and spec objects,
    * ``{"sweeps": [...], "specs": [...]}`` with either key optional.
    """
    if isinstance(document, list):
        specs: list[ExperimentSpec] = []
        for index, element in enumerate(document):
            specs.extend(_element_to_specs(element, f"document[{index}]"))
        return specs
    if not isinstance(document, dict):
        raise ConfigurationError(f"grid document must be an object or list, got {type(document).__name__}")
    if _DOCUMENT_KEYS & set(document):
        unknown = sorted(set(document) - _DOCUMENT_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {unknown} in grid document; allowed: {sorted(_DOCUMENT_KEYS)}"
            )
        specs = []
        for index, element in enumerate(document.get("sweeps") or []):
            specs.extend(_element_to_specs(element, f"sweeps[{index}]"))
        for element in document.get("specs") or []:
            specs.append(ExperimentSpec.from_dict(element))
        return specs
    return _element_to_specs(document, "document")


def read_specs(path: str | Path) -> list[ExperimentSpec]:
    """Load and expand a JSON grid document from *path*."""
    try:
        document = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read grid document {str(path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"grid document {str(path)!r} is not valid JSON: {exc}") from exc
    specs = load_specs(document)
    if not specs:
        raise ConfigurationError(f"grid document {str(path)!r} expands to zero specs")
    return specs
