"""The central experiment registry.

Each driver module in :mod:`repro.experiments` self-registers at import time
with a stable name, the paper artefact it reproduces, the engines it
supports and reduced "fast" parameters for smoke runs.  Everything else —
the parameter schema, defaults, whether the driver takes a ``seed`` or an
``engine`` — is introspected from the ``run`` signature, so a driver's
signature stays its single source of truth.

Importing :mod:`repro.api` does **not** import the drivers (that would be a
cycle); :func:`load_registry` imports :mod:`repro.experiments` on first use
and every lookup helper calls it, so user code never has to.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import ConfigurationError

__all__ = [
    "Experiment",
    "Parameter",
    "register",
    "resolve_engine",
    "get_experiment",
    "experiment_names",
    "iter_experiments",
    "load_registry",
]

#: Engine names any experiment may declare.  ``batched`` is the epoch-batched
#: netsim engine; ``reference`` its scalar epoch oracle (the differential
#: tests' trusted twin, exposed so campaigns can cross-check engines).
KNOWN_ENGINES = ("scalar", "batch", "batched", "reference")

_REGISTRY: dict[str, "Experiment"] = {}
_LOADED = False


def resolve_engine(
    experiment: str, engine: str, engines: Mapping[str, Callable[..., Any] | None]
) -> Callable[..., Any] | None:
    """Resolve *engine* against an experiment's capability table.

    This is the **single** place an unsupported-engine error originates —
    drivers and the Runner both funnel through it instead of carrying
    their own ``if engine not in (...)`` checks.  Returns the registered
    implementation callable (``None`` when the entry was declared by name
    only).
    """
    try:
        return engines[engine]
    except KeyError:
        raise ConfigurationError(
            f"engine not supported: experiment {experiment!r} supports "
            f"{list(engines)}, got {engine!r}"
        ) from None


@dataclass(frozen=True)
class Parameter:
    """One keyword parameter of a driver's ``run`` signature."""

    name: str
    default: Any
    annotation: str


@dataclass(frozen=True)
class Experiment:
    """Registry entry describing one runnable experiment.

    Attributes
    ----------
    name:
        Stable registry key (``fig11``, ``table_power``, ``mac_scaling``).
    title:
        Human-readable headline, shown by ``python -m repro list``.
    run:
        The driver's ``run`` callable; returns the native payload dataclass.
    engines:
        Declarative engine capability table: engine name → implementation
        callable (or ``None`` for entries declared by name only).  The
        first key is the default engine.  ``python -m repro info`` lists
        engines from this same structure, and every unsupported-engine
        error funnels through :func:`resolve_engine`.
    artifact:
        Paper artefact label (``"Fig. 11"``), or ``None`` for
        beyond-the-paper workloads such as the MAC scaling sweep.
    fast_params:
        Reduced parameters for smoke runs (``python -m repro run --fast``).
    summarize:
        Callable mapping a payload to headline report lines.
    metrics:
        Callable mapping a payload to named scalar headline metrics
        (``{"median_per_2mbps": 0.031, ...}``).  This is what
        :func:`repro.api.analytics.aggregate` collapses across
        seed-replicates into mean/std/CI columns, so values must be plain
        floats.  ``None`` means the experiment has no scalar metrics.
    plot:
        Callable mapping a payload to a declarative
        :class:`repro.plots.figure.Figure`; ``python -m repro plot``
        renders it.  ``None`` means the experiment has no figure.
    parameters:
        Introspected keyword parameters of ``run``.
    """

    name: str
    title: str
    run: Callable[..., Any]
    engines: Mapping[str, Callable[..., Any] | None] = field(
        default_factory=lambda: {"scalar": None}
    )
    artifact: str | None = None
    fast_params: dict[str, Any] = field(default_factory=dict)
    summarize: Callable[[Any], list[str]] | None = None
    metrics: Callable[[Any], dict[str, float]] | None = None
    plot: Callable[[Any], Any] | None = None
    parameters: tuple[Parameter, ...] = ()

    @property
    def module(self) -> str:
        """Module the driver lives in."""
        return self.run.__module__

    @property
    def description(self) -> str:
        """First line of the driver module's docstring."""
        doc = inspect.getmodule(self.run).__doc__ or self.run.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    @property
    def takes_seed(self) -> bool:
        """Whether ``run`` accepts a ``seed`` keyword."""
        return any(p.name == "seed" for p in self.parameters)

    @property
    def takes_engine(self) -> bool:
        """Whether ``run`` accepts an ``engine`` keyword."""
        return any(p.name == "engine" for p in self.parameters)

    @property
    def default_seed(self) -> int | None:
        """The ``seed`` default from the signature, or ``None``."""
        for parameter in self.parameters:
            if parameter.name == "seed":
                return parameter.default
        return None

    @property
    def engine_names(self) -> tuple[str, ...]:
        """Declared engine names, default first."""
        return tuple(self.engines)

    @property
    def default_engine(self) -> str:
        """The first declared engine."""
        return next(iter(self.engines))

    def supports(self, engine: str) -> bool:
        """Whether *engine* is one of the declared engines."""
        return engine in self.engines

    def check_engine(self, engine: str) -> None:
        """Raise unless *engine* is in the capability table."""
        resolve_engine(self.name, engine, self.engines)

    def check_params(self, params: dict[str, Any]) -> None:
        """Reject parameters that are not in the ``run`` signature."""
        known = {p.name for p in self.parameters}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ConfigurationError(
                f"experiment {self.name!r} has no parameter(s) {unknown}; available: {sorted(known)}"
            )

    def __call__(self, **params: Any) -> Any:
        """Run the driver directly, returning its native payload."""
        return self.run(**params)


def _introspect_parameters(run: Callable[..., Any]) -> tuple[Parameter, ...]:
    parameters = []
    for parameter in inspect.signature(run).parameters.values():
        if parameter.kind not in (parameter.KEYWORD_ONLY, parameter.POSITIONAL_OR_KEYWORD):
            continue
        default = None if parameter.default is inspect.Parameter.empty else parameter.default
        annotation = "" if parameter.annotation is inspect.Parameter.empty else str(parameter.annotation)
        parameters.append(Parameter(name=parameter.name, default=default, annotation=annotation))
    return tuple(parameters)


def register(
    *,
    name: str,
    title: str,
    run: Callable[..., Any],
    engines: Mapping[str, Callable[..., Any] | None] | Sequence[str] = ("scalar",),
    artifact: str | None = None,
    fast_params: dict[str, Any] | None = None,
    summarize: Callable[[Any], list[str]] | None = None,
    metrics: Callable[[Any], dict[str, float]] | None = None,
    plot: Callable[[Any], Any] | None = None,
) -> Experiment:
    """Register a driver; called once at the bottom of each driver module.

    ``engines`` is preferably a capability table mapping each engine name
    to its implementation callable (a plain name sequence is still
    accepted and stored with ``None`` implementations).
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"experiment {name!r} is already registered")
    if isinstance(engines, Mapping):
        table: dict[str, Callable[..., Any] | None] = dict(engines)
    else:
        table = {engine: None for engine in engines}
    if not table:
        raise ConfigurationError(f"experiment {name!r} must declare at least one engine")
    unknown = sorted(set(table) - set(KNOWN_ENGINES))
    if unknown:
        raise ConfigurationError(f"experiment {name!r} declares unknown engines {unknown}; known: {KNOWN_ENGINES}")
    experiment = Experiment(
        name=name,
        title=title,
        run=run,
        engines=table,
        artifact=artifact,
        fast_params=dict(fast_params or {}),
        summarize=summarize,
        metrics=metrics,
        plot=plot,
        parameters=_introspect_parameters(run),
    )
    experiment.check_params(experiment.fast_params)
    _REGISTRY[name] = experiment
    return experiment


def load_registry() -> None:
    """Import the driver package so every experiment is registered."""
    global _LOADED
    if _LOADED:
        return
    import repro.experiments  # noqa: F401  (import triggers registration)

    _LOADED = True


def get_experiment(name: str) -> Experiment:
    """Look up one experiment by registry name."""
    load_registry()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(f"unknown experiment {name!r}; available: {experiment_names()}") from exc


def experiment_names() -> list[str]:
    """All registered experiment names, in registration order."""
    load_registry()
    return list(_REGISTRY)


def iter_experiments() -> list[Experiment]:
    """All registered experiments, in registration order."""
    load_registry()
    return list(_REGISTRY.values())
