"""Checks for scalar configuration knobs, shared by every engine and sweep.

Each check returns the knob as a plain Python number or raises
:class:`~repro.exceptions.ConfigurationError` naming the knob, so a value
that one code path would truncate or compare raw is rejected the same way
everywhere.  The fleet engines (:mod:`repro.netsim`) and the Monte-Carlo
sweeps (:mod:`repro.mc`, :mod:`repro.experiments.coded_ofdm`) both call
them.
"""

from __future__ import annotations

import math
import numbers

from repro.exceptions import ConfigurationError

__all__ = ["integer_knob", "finite_knob", "finite_positive_knob", "probability_knob"]


def integer_knob(name: str, value) -> int:
    """*value* of the integer knob *name*, checked the same way by every engine.

    Only :class:`numbers.Integral` values other than ``bool`` pass; anything
    else (``2.5``, ``"3"``, ``nan``) raises
    :class:`~repro.exceptions.ConfigurationError` naming the knob, so no
    engine truncates a value that another compares raw.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite_knob(name: str, value) -> float:
    """*value* of the real knob *name*: any finite real, of either sign.

    Anything else (``nan``, ``inf``, ``"3"``, ``True``) raises
    :class:`~repro.exceptions.ConfigurationError` naming the knob.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def finite_positive_knob(name: str, value) -> float:
    """*value* of the width *name*, checked the same way by every engine: a finite real above zero.

    Anything else (``0``, ``nan``, ``inf``, ``"1e-3"``, ``True``) raises
    :class:`~repro.exceptions.ConfigurationError` naming the knob.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def probability_knob(name: str, value) -> float:
    """*value* of the probability knob *name*, checked the same way by every engine: a real in [0, 1].

    Anything else (``1.5``, ``nan``, ``"0.5"``, ``True``) raises
    :class:`~repro.exceptions.ConfigurationError` naming the knob.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)
