"""The engines' uniform draws: ``lo + (hi - lo) * random()`` is ``uniform(lo, hi)``.

numpy computes ``Generator.uniform(lo, hi)`` as ``lo + (hi - lo) *
next_double``, so the cheaper ``random()`` form returns the same values
bit for bit and leaves the generator in the same state.  The heap engine
draws its arrival jitter (``-1…1``) and pure-ALOHA retry delays (``0…w``)
this way, and the epoch engine its phase-1 jitter (a sized draw); every
pinned output relies on the identity.  A numpy release that computes
``uniform`` differently fails here by name instead of moving the pins.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

#: ``(lo, hi)``: the jitter's ``-1…1`` or a ``0…w`` delay window.
BOUNDS = st.one_of(
    st.just((-1.0, 1.0)),
    st.floats(min_value=1e-9, max_value=1e3).map(lambda w: (0.0, w)),
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    bounds=BOUNDS,
    size=st.one_of(st.none(), st.integers(min_value=1, max_value=32)),
    integers_first=st.booleans(),
)
def test_random_form_equals_uniform(seed, bounds, size, integers_first):
    lo, hi = bounds
    reference = np.random.default_rng(seed)
    generator = np.random.default_rng(seed)
    if integers_first:
        # A backoff draw: a range under 2**32 takes half of a 64-bit output
        # and leaves the other half buffered in the bit generator's state.
        for g in (reference, generator):
            g.integers(1, 9)
        assert generator.bit_generator.state["has_uint32"] == 1
    expected = reference.uniform(lo, hi, size)
    draws = [generator.random()] if size is None else generator.random(size).tolist()
    assert _bits([lo + (hi - lo) * u for u in draws]) == _bits(expected)
    assert generator.bit_generator.state == reference.bit_generator.state
    if lo == 0.0:
        # The ALOHA retry writes a 0…w window as w * random(): adding 0.0
        # to a non-negative float and subtracting it from w are exact.
        assert _bits([hi * u for u in draws]) == _bits(expected)
