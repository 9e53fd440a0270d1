"""Event scheduler: ordering, clock, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.netsim.events import EventScheduler


def test_events_fire_in_time_order():
    scheduler = EventScheduler()
    trace = []
    scheduler.schedule(0.3, lambda: trace.append("c"))
    scheduler.schedule(0.1, lambda: trace.append("a"))
    scheduler.schedule(0.2, lambda: trace.append("b"))
    scheduler.run()
    assert trace == ["a", "b", "c"]
    assert scheduler.now == pytest.approx(0.3)


def test_simultaneous_events_fire_in_insertion_order():
    scheduler = EventScheduler()
    trace = []
    for label in ("first", "second", "third"):
        scheduler.schedule(1.0, lambda label=label: trace.append(label))
    scheduler.run()
    assert trace == ["first", "second", "third"]


def test_tie_break_orders_simultaneous_events_regardless_of_insertion():
    # Regression: same-timestamp events used to resolve purely by heap
    # insertion order, so whichever device scheduled first won the slot.
    scheduler = EventScheduler()
    trace = []
    for key in (5, 3, 9, 0, 7):
        scheduler.schedule(1.0, lambda key=key: trace.append(key), tie_break=key)
    scheduler.run()
    assert trace == [0, 3, 5, 7, 9]


def test_equal_tie_break_preserves_insertion_order():
    scheduler = EventScheduler()
    trace = []
    for label in ("first", "second", "third"):
        scheduler.schedule(1.0, lambda label=label: trace.append(label), tie_break=4)
    scheduler.run()
    assert trace == ["first", "second", "third"]


def test_tie_break_only_applies_within_a_timestamp():
    scheduler = EventScheduler()
    trace = []
    scheduler.schedule(0.2, lambda: trace.append("late-low-key"), tie_break=0)
    scheduler.schedule(0.1, lambda: trace.append("early-high-key"), tie_break=99)
    scheduler.run()
    assert trace == ["early-high-key", "late-low-key"]


def test_callbacks_can_schedule_more_events():
    scheduler = EventScheduler()
    trace = []

    def tick():
        trace.append(scheduler.now)
        if len(trace) < 4:
            scheduler.schedule(0.5, tick)

    scheduler.schedule(0.5, tick)
    scheduler.run()
    assert trace == pytest.approx([0.5, 1.0, 1.5, 2.0])


def test_run_until_leaves_later_events_and_advances_clock():
    scheduler = EventScheduler()
    trace = []
    scheduler.schedule(0.5, lambda: trace.append("early"))
    scheduler.schedule(2.0, lambda: trace.append("late"))
    executed = scheduler.run(until_s=1.0)
    assert executed == 1
    assert trace == ["early"]
    assert scheduler.now == pytest.approx(1.0)
    assert scheduler.pending == 1
    scheduler.run()
    assert trace == ["early", "late"]


def test_scheduling_in_the_past_raises():
    scheduler = EventScheduler()
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(ConfigurationError):
        scheduler.schedule(-0.1, lambda: None)
    with pytest.raises(ConfigurationError):
        scheduler.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("delay_s", [float("nan"), float("inf")])
def test_non_finite_delay_raises(delay_s):
    scheduler = EventScheduler()
    with pytest.raises(ConfigurationError, match="finite and non-negative"):
        scheduler.schedule(delay_s, lambda: None)
    assert scheduler.pending == 0


def test_max_events_bounds_execution():
    scheduler = EventScheduler()
    trace = []
    for i in range(10):
        scheduler.schedule(0.1 * (i + 1), lambda i=i: trace.append(i))
    assert scheduler.run(max_events=3) == 3
    assert trace == [0, 1, 2]


def test_deterministic_under_fixed_seed():
    def run_once(seed: int) -> list[tuple[float, float]]:
        rng = np.random.default_rng(seed)
        scheduler = EventScheduler()
        trace = []

        def hop():
            trace.append((scheduler.now, float(rng.random())))
            if len(trace) < 20:
                scheduler.schedule(float(rng.uniform(0.01, 0.2)), hop)

        scheduler.schedule(0.0, hop)
        scheduler.run()
        return trace

    assert run_once(99) == run_once(99)
    assert run_once(99) != run_once(100)
