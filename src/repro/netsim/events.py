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
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs

__all__ = ["Event", "EventScheduler"]


class Event:
    """Handle to a scheduled callback.

    Attributes
    ----------
    time_s:
        Absolute simulation time the callback fires at.
    tie_break:
        Caller-supplied ordering key for same-timestamp events (the MAC
        layer passes the device id); lower keys fire first.
    seq:
        Monotonic insertion counter, the final tie-breaker.
    cancelled:
        Whether :meth:`cancel` was called; cancelled events are skipped.
    """

    __slots__ = ("time_s", "tie_break", "seq", "callback", "cancelled")

    def __init__(
        self, time_s: float, seq: int, callback: Callable[[], None], *, tie_break: int = 0
    ) -> None:
        self.time_s = time_s
        self.tie_break = tie_break
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_s:.6f}, key={self.tie_break}, seq={self.seq}, {state})"


class EventScheduler:
    """Event queue plus simulated clock.

    The scheduler never touches wall-clock time or global random state:
    :meth:`run` pops events in ``(time, tie_break, insertion order)`` order
    and invokes their callbacks, which may schedule further events.  Heap
    entries are ``(time_s, tie_break, seq, event)`` tuples; ``seq`` is
    unique, so the comparison never reaches the event itself.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._now = 0.0

    # ---------------------------------------------------------------- status
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # ------------------------------------------------------------------ API
    def schedule(
        self, delay_s: float, callback: Callable[[], None], *, tie_break: int = 0
    ) -> Event:
        """Schedule *callback* to run ``delay_s`` seconds from now."""
        if delay_s < 0:
            raise ConfigurationError(f"cannot schedule {delay_s} s in the past")
        return self.schedule_at(self._now + delay_s, callback, tie_break=tie_break)

    def schedule_at(
        self, time_s: float, callback: Callable[[], None], *, tie_break: int = 0
    ) -> Event:
        """Schedule *callback* at the absolute simulation time ``time_s``.

        ``tie_break`` orders same-timestamp events (lower keys first);
        events with equal keys keep insertion order.
        """
        if time_s < self._now:
            raise ConfigurationError(
                f"cannot schedule at {time_s} s; clock is already at {self._now} s"
            )
        event = Event(time_s, self._seq, callback, tie_break=tie_break)
        self._seq += 1
        heapq.heappush(self._heap, (time_s, tie_break, event.seq, event))
        return event

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            self._now = event.time_s
            event.callback()
            return True
        return False

    def run(self, until_s: float | None = None, *, max_events: int | None = None) -> int:
        """Run events until the queue drains or the clock would pass ``until_s``.

        Events scheduled beyond ``until_s`` are left in the queue and the
        clock is advanced to exactly ``until_s``.  Returns the number of
        events executed.
        """
        executed = 0
        try:
            while self._heap:
                if max_events is not None and executed >= max_events:
                    return executed
                head = self._heap[0][3]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until_s is not None and head.time_s > until_s:
                    break
                self.step()
                executed += 1
            if until_s is not None and until_s > self._now:
                self._now = until_s
            return executed
        finally:
            # One aggregate count per run() call keeps the per-event hot
            # loop free of any telemetry overhead.
            obs.count("netsim.events.dispatched", executed)
