"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a registered experiment plus the parameter
overrides, engine and seed to run it with — the unit of work a
:class:`repro.api.Runner` executes, and the shape scenario grids are
enumerated in (a list of specs *is* a batch).  Specs are plain data:
they serialize with ``to_dict``/``from_dict`` so grids can live in JSON
configuration rather than code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.registry import Experiment, get_experiment
from repro.api.serialization import decode, encode
from repro.exceptions import ConfigurationError

__all__ = ["ExperimentSpec"]

#: The exact key set a serialized spec may carry.
_SPEC_KEYS = {"experiment", "params", "engine", "seed"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment invocation, described as data.

    Attributes
    ----------
    experiment:
        Registry name of the experiment to run.
    params:
        Keyword overrides for the driver's defaults.
    engine:
        Requested engine, or ``None`` for the runner/driver default.
    seed:
        Seed override, or ``None`` to fall back to the runner's seed and
        then the driver's own default.  A deterministic experiment (no
        ``seed`` parameter) rejects a seed here.
    """

    experiment: str
    params: dict[str, Any] = field(default_factory=dict)
    engine: str | None = None
    seed: int | None = None

    def resolve(self) -> Experiment:
        """Look up the experiment and validate this spec against it."""
        experiment = get_experiment(self.experiment)
        experiment.check_params(self.params)
        if "engine" in self.params:
            raise ConfigurationError("pass the engine via ExperimentSpec.engine, not params['engine']")
        if "seed" in self.params and self.seed is not None:
            raise ConfigurationError("seed given both in params and in ExperimentSpec.seed")
        if self.seed is not None and not experiment.takes_seed:
            raise ConfigurationError(
                f"spec for {self.experiment!r} sets seed={self.seed} but the experiment is "
                "deterministic (no seed parameter)"
            )
        if self.engine is not None:
            experiment.check_engine(self.engine)
        return experiment

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict form of the spec."""
        return {
            "experiment": self.experiment,
            "params": encode(self.params),
            "engine": self.engine,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output, rejecting unknown keys.

        Grids live in hand-edited JSON, so a typoed key must fail loudly
        here — not silently drop an override or fail late mid-campaign.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(f"experiment spec must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {unknown} in experiment spec; allowed: {sorted(_SPEC_KEYS)}"
            )
        if "experiment" not in data:
            raise ConfigurationError("experiment spec is missing required key 'experiment'")
        return cls(
            experiment=data["experiment"],
            params=decode(data.get("params") or {}),
            engine=data.get("engine"),
            seed=data.get("seed"),
        )
