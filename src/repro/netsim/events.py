"""Deterministic discrete-event scheduler for the fleet simulator.

A classic event-queue/simulated-clock kernel: callbacks are scheduled at
absolute simulation times and executed in time order.  Timestamp ties are
broken first by the caller-supplied ``tie_break`` key and only then by
insertion order, so that simultaneous events (slot boundaries, identical
backoff draws) resolve by an explicit, documented policy rather than by
whichever callback happened to be scheduled first.  The MAC layer passes
its device id as the key, which makes same-instant contention a stable
function of the scenario instead of a latent artefact of heap-insertion
order.  All randomness lives in the callers (which draw from one seeded
:class:`numpy.random.Generator`), so a seed fully determines a run.

An event is nothing but a ``(time_s, tie_break, seq, callback)`` tuple on
the heap.  Scheduling hands back no handle and an event cannot be
cancelled: a caller whose plans change checks its own state when the
callback fires, as the MAC policies do.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs

__all__ = ["EventScheduler"]


class EventScheduler:
    """Event queue plus simulated clock.

    The scheduler never touches wall-clock time or global random state:
    :meth:`run` pops events in ``(time, tie_break, insertion order)`` order
    and calls them, and a callback may schedule further events.  Heap
    entries are ``(time_s, tie_break, seq, callback)`` tuples; ``seq`` is
    unique, so the comparison never reaches the callback.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0

    # ---------------------------------------------------------------- status
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled events that have not run yet."""
        return len(self._heap)

    # ------------------------------------------------------------------ API
    def schedule(
        self, delay_s: float, callback: Callable[[], None], *, tie_break: int = 0
    ) -> None:
        """Schedule *callback* to run ``delay_s`` (finite, ``>= 0``) seconds from now."""
        if not 0.0 <= delay_s < math.inf:
            raise ConfigurationError(f"cannot schedule {delay_s} s ahead: a delay must be finite and non-negative")
        self.schedule_at(self._now + delay_s, callback, tie_break=tie_break)

    def schedule_at(
        self, time_s: float, callback: Callable[[], None], *, tie_break: int = 0
    ) -> None:
        """Schedule *callback* at the absolute simulation time ``time_s``.

        ``tie_break`` orders same-timestamp events (lower keys first);
        events with equal keys keep insertion order.
        """
        if time_s < self._now:
            raise ConfigurationError(
                f"cannot schedule at {time_s} s; clock is already at {self._now} s"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_s, tie_break, seq, callback))

    def run(self, until_s: float | None = None, *, max_events: int | None = None) -> int:
        """Run events until the queue drains or the clock would pass ``until_s``.

        Events scheduled beyond ``until_s`` are left in the queue and the
        clock is advanced to exactly ``until_s``.  Stopping at ``max_events``
        leaves the clock at the last event run.  Returns the number of
        events executed.
        """
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until_s is None else until_s
        limit = math.inf if max_events is None else max_events
        executed = 0
        try:
            while heap:
                if executed >= limit:
                    return executed
                if heap[0][0] > horizon:
                    break
                time_s, _, _, callback = pop(heap)
                self._now = time_s
                callback()
                executed += 1
            if until_s is not None and until_s > self._now:
                self._now = until_s
            return executed
        finally:
            # One aggregate count per run() call keeps the per-event hot
            # loop free of any telemetry overhead.
            obs.count("netsim.events.dispatched", executed)
