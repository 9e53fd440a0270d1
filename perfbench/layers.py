"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps public entry points of the ``repro`` layers for
the duration of one traced iteration and records, per layer, the number
of calls, the total time inside the calls and the *self* time: total
minus the time spent in other wrapped calls nested inside (``run_sweep``
around Viterbi decoding, ``query`` around the store scan).  Nothing under
``src/`` changes; the wrappers are installed on the attribute the caller
actually looks up and removed afterwards.

A wrapper that records zero calls fails the traced run: it usually means
a refactor rebound the name somewhere the wrapper no longer sees.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, vanished or silent wrapper, ...)."""


@dataclass(frozen=True)
class Site:
    """One wrapped attribute: ``owner`` is a module path, ``attr`` may be ``Class.method``.

    ``counts`` optionally maps ``(self_or_first_arg, result)`` to named
    counts added to the layer after each call.
    """

    layer: str
    owner: str
    attr: str
    counts: Callable[[Any, Any], dict[str, int]] | None = None


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: dict[str, int] = field(default_factory=dict)


def _resolve(site: Site) -> tuple[Any, str]:
    owner: Any = importlib.import_module(site.owner)
    *path, name = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise BenchmarkError(f"trace site {site.owner}.{site.attr} no longer exists")
    return owner, name


class Tracer:
    """Installs wrappers on a set of sites and accumulates :class:`LayerStats`."""

    def __init__(self, sites: list[Site]):
        self.sites = sites
        self.stats: dict[str, LayerStats] = {site.layer: LayerStats() for site in sites}
        self.site_calls: dict[Site, int] = {site: 0 for site in sites}
        self._child_time: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for site in self.sites:
                owner, name = _resolve(site)
                original = vars(owner)[name]
                self._undo.append((owner, name, original))
                setattr(owner, name, self._wrap(site, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def silent_sites(self) -> list[str]:
        """Sites whose wrapper never fired."""
        return [f"{site.owner}.{site.attr}" for site, calls in self.site_calls.items() if calls == 0]

    # ----------------------------------------------------------- internals
    def _enter(self) -> float:
        self._child_time.append(0.0)
        return time.perf_counter()

    def _leave(self, site: Site, start: float, calls: int) -> None:
        elapsed = time.perf_counter() - start
        children = self._child_time.pop()
        stats = self.stats[site.layer]
        stats.calls += calls
        stats.total_s += elapsed
        stats.self_s += elapsed - children
        self.site_calls[site] += calls
        if self._child_time:
            self._child_time[-1] += elapsed

    def _add_counts(self, site: Site, subject: Any, result: Any) -> None:
        if site.counts is None:
            return
        items = self.stats[site.layer].items
        for name, value in site.counts(subject, result).items():
            items[name] = items.get(name, 0) + int(value)

    def _wrap(self, site: Site, original: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(original):
            return self._wrap_generator(site, original)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = self._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(site, start, 1)
            self._add_counts(site, args[0] if args else None, result)
            return result

        return wrapper

    def _wrap_generator(self, site: Site, original: Callable[..., Any]) -> Callable[..., Any]:
        """Time each step of a generator; ``items`` counts what it yielded."""

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = original(*args, **kwargs)
            items = self.stats[site.layer].items
            first = 1
            try:
                while True:
                    start = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(site, start, first)
                        first = 0
                    items["yielded"] = items.get("yielded", 0) + 1
                    yield item
            finally:
                inner.close()

        return wrapper
