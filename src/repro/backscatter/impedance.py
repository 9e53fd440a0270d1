"""Antenna / backscatter-circuit impedance model (paper §2.3.1, step 2).

A backscatter tag modulates the reflection coefficient

    Γ = (Za - Zc) / (Za + Zc)

between its antenna impedance ``Za`` and the circuit impedance ``Zc``
presented by its switch network.  Traditional backscatter toggles between
``Zc = Za`` (no reflection) and ``Zc = 0`` (full reflection); interscatter
instead switches between four *complex* impedances chosen so the reflection
coefficient takes the values ``(±1 ± j)/√2·√2`` — i.e. the four quadrature
states ``1+j, 1-j, -1+j, -1-j`` (up to a scale factor) that let the tag
synthesize ``e^{j2πΔft}`` and hence shift the carrier to one side only.

For the non-50 Ω loop antennas of the contact lens / implant prototypes the
states must be re-optimised (:func:`optimize_states_for_antenna`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "ImpedanceState",
    "reflection_coefficient",
    "QUADRATURE_IMPEDANCE_STATES",
    "quadrature_reflection_targets",
    "optimize_states_for_antenna",
]


@dataclass(frozen=True)
class ImpedanceState:
    """One switch-network state of the backscatter modulator.

    Attributes
    ----------
    label:
        Human-readable name (e.g. ``"1+j"``).
    circuit_impedance_ohm:
        Complex impedance presented to the antenna in this state.
    target_reflection:
        The normalised quadrature value this state is meant to realise.
    """

    label: str
    circuit_impedance_ohm: complex
    target_reflection: complex

    def reflection(self, antenna_impedance_ohm: complex = 50.0) -> complex:
        """Reflection coefficient of this state against a given antenna."""
        return reflection_coefficient(antenna_impedance_ohm, self.circuit_impedance_ohm)


def reflection_coefficient(antenna_impedance_ohm: complex, circuit_impedance_ohm: complex) -> complex:
    """Γ = (Za − Zc) / (Za + Zc).

    Raises
    ------
    ConfigurationError
        If the denominator is (numerically) zero.
    """
    za = complex(antenna_impedance_ohm)
    zc = complex(circuit_impedance_ohm)
    denominator = za + zc
    if abs(denominator) < 1e-12:
        raise ConfigurationError("antenna and circuit impedances sum to zero")
    return (za - zc) / denominator


def quadrature_reflection_targets() -> dict[str, complex]:
    """The four normalised reflection values of §2.3.1: (±1 ± j)/√2."""
    scale = 1.0 / np.sqrt(2.0)
    return {
        "1+j": scale * (1 + 1j),
        "1-j": scale * (1 - 1j),
        "-1+j": scale * (-1 + 1j),
        "-1-j": scale * (-1 - 1j),
    }


def _impedance_for_reflection(target: complex, antenna_impedance_ohm: complex) -> complex:
    """Invert Γ = (Za − Zc)/(Za + Zc) for Zc."""
    za = complex(antenna_impedance_ohm)
    return za * (1 - target) / (1 + target)


def _build_quadrature_states(antenna_impedance_ohm: complex = 50.0) -> dict[str, ImpedanceState]:
    """Impedance states realising the four quadrature reflection values."""
    states: dict[str, ImpedanceState] = {}
    for label, target in quadrature_reflection_targets().items():
        zc = _impedance_for_reflection(target, antenna_impedance_ohm)
        states[label] = ImpedanceState(
            label=label, circuit_impedance_ohm=zc, target_reflection=target
        )
    return states


#: The four quadrature impedance states for a 50 Ω antenna, keyed by the
#: complex value they realise (paper §2.3.1 lists the equivalent impedance
#: fractions −j/(2+j)·Za, j/(2−j)·Za, (2−j)/j·Za and (2+j)/(−j)·Za).
QUADRATURE_IMPEDANCE_STATES: dict[str, ImpedanceState] = _build_quadrature_states()


def optimize_states_for_antenna(antenna_impedance_ohm: complex) -> dict[str, ImpedanceState]:
    """Re-derive the four quadrature states for a non-50 Ω antenna.

    Small loop antennas (the contact lens and implant prototypes of §5) have
    non-standard impedances; the paper notes the switch network must be
    re-optimised for them.  This returns the exact-impedance solution for
    the given antenna.
    """
    if abs(antenna_impedance_ohm) < 1e-9:
        raise ConfigurationError("antenna impedance must be non-zero")
    return _build_quadrature_states(antenna_impedance_ohm)
