"""Host speed sampled while the workload runs.

This host shares its cores, and its speed drifts by tens of percent
within seconds and across minutes.  While the sampler runs, a timer
signal interrupts the program every ``INTERVAL_S`` and times a fixed
pure-Python loop; the loop is also timed once when the sampler starts and
once when it stops.  :func:`now` is ``time.perf_counter`` minus the time
spent in those loops, so timings taken with it leave the sampling out,
and the loops' mean time says how fast the host ran meanwhile.  The
signal handler runs between bytecodes of the main thread, so it lands
inside long driver calls too (after any single numpy call returns).  The
state is module-level because the timer signal it rides on is one per
process.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples, and the loop each one times (about 7 ms on a
#: 2-vCPU Xeon VM, so sampling costs the host about 3 % of its time).
INTERVAL_S = 0.2
LOOP_ITERATIONS = 100_000

#: The loop's mean time on the reference host, that VM at its usual speed.
#: :func:`at_reference` scales a timing to it.
REFERENCE_LOOP_S = 0.007

_paused_s = 0.0
_samples: list[float] = []


def now() -> float:
    """``time.perf_counter()`` without the time spent sampling."""
    return time.perf_counter() - _paused_s


def loop_s() -> float:
    """Seconds of one fixed pure-Python loop, left out of :func:`now`."""
    global _paused_s
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    elapsed = time.perf_counter() - start
    _paused_s += elapsed
    return elapsed


def _on_signal(signum: int, frame: object) -> None:
    _samples.append(loop_s())


def start() -> None:
    _samples.clear()
    _samples.append(loop_s())
    signal.signal(signal.SIGALRM, _on_signal)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> float:
    """Stop sampling; the mean loop time since :func:`start`."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    _samples.append(loop_s())
    return statistics.fmean(_samples)


def at_reference(seconds: float, mean_loop_s: float) -> float:
    """``seconds`` measured while the loop took ``mean_loop_s``, scaled to the reference host."""
    return seconds * REFERENCE_LOOP_S / mean_loop_s
