"""Backscatter link budgets (the two-hop product channel).

A backscatter link from a Bluetooth transmitter (power ``P_tx``) via a tag
to a receiver has received power::

    P_rx = P_tx + G_tx − L(d_tx→tag) + G_tag − L_conv + G_tag − L(d_tag→rx) + G_rx

where ``L_conv`` is the tag's conversion loss: the backscattered signal is a
*modulated reflection*, so energy is lost to the reflection efficiency of
the switch (|Γ| < 1), to the square-wave harmonics, and to splitting power
across the modulation sidebands.  Tissue layers in front of an implanted
tag attenuate both hops.

``DirectLinkBudget`` models the ordinary one-hop link (used for the
Bluetooth-to-tag wake-up threshold and the Wi-Fi-to-tag downlink of
Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import LinkBudgetError
from repro.obs import metrics as obs
from repro.channel.antennas import ANTENNAS, AntennaModel
from repro.channel.noise import NoiseModel
from repro.channel.propagation import PathLossModel
from repro.channel.tissue import TissueLayer, tissue_attenuation_db

__all__ = ["BackscatterLinkResult", "BackscatterLinkBudget", "DirectLinkBudget"]

#: Conversion loss of an ideal four-state single-sideband backscatter
#: modulator: the fundamental of the ±1 square-wave quadrature carrier holds
#: 8/π² of the power (≈ −0.9 dB), the switch reflection efficiency and
#: modulation overhead account for the rest.  6-8 dB is typical of measured
#: backscatter front ends; the paper's ranges are consistent with ~6 dB.
DEFAULT_CONVERSION_LOSS_DB = 6.0


@dataclass(frozen=True)
class BackscatterLinkResult:
    """Outcome of a backscatter link-budget evaluation.

    Attributes
    ----------
    rssi_dbm:
        Received signal power at the Wi-Fi/ZigBee receiver.
    incident_power_dbm:
        Power arriving at the tag from the RF source (determines whether
        the envelope detector wakes up).
    snr_db:
        SNR at the receiver given its noise model.
    detectable:
        Whether the receiver's sensitivity floor is met.
    """

    rssi_dbm: float
    incident_power_dbm: float
    snr_db: float
    detectable: bool


@dataclass
class BackscatterLinkBudget:
    """Two-hop backscatter link calculator.

    Parameters
    ----------
    source_power_dbm:
        Transmit power of the RF source (the Bluetooth device).
    source_antenna / tag_antenna / receiver_antenna:
        Antenna models (names from :data:`repro.channel.antennas.ANTENNAS`
        or instances).
    path_loss:
        Propagation model applied to both hops.
    noise:
        Receiver noise model (22 MHz bandwidth for Wi-Fi).
    conversion_loss_db:
        Tag conversion loss.
    tissue:
        Optional tissue layer covering the tag (applied to both hops).
    receiver_sensitivity_dbm:
        Sensitivity floor of the commodity receiver.
    """

    source_power_dbm: float = 0.0
    source_antenna: AntennaModel | str = "monopole_2dbi"
    tag_antenna: AntennaModel | str = "monopole_2dbi"
    receiver_antenna: AntennaModel | str = "monopole_2dbi"
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    conversion_loss_db: float = DEFAULT_CONVERSION_LOSS_DB
    tissue: TissueLayer | str | None = None
    receiver_sensitivity_dbm: float = -94.0

    def __post_init__(self) -> None:
        self.source_antenna = self._resolve(self.source_antenna)
        self.tag_antenna = self._resolve(self.tag_antenna)
        self.receiver_antenna = self._resolve(self.receiver_antenna)

    @staticmethod
    def _resolve(antenna: AntennaModel | str) -> AntennaModel:
        if isinstance(antenna, AntennaModel):
            return antenna
        try:
            return ANTENNAS[antenna]
        except KeyError as exc:
            raise LinkBudgetError(
                f"unknown antenna {antenna!r}; available: {sorted(ANTENNAS)}"
            ) from exc

    # ------------------------------------------------------------------ API
    def evaluate(
        self,
        source_to_tag_m: float,
        tag_to_receiver_m: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> BackscatterLinkResult:
        """Evaluate the link for the given hop distances (in metres)."""
        if source_to_tag_m < 0 or tag_to_receiver_m < 0:
            raise LinkBudgetError("distances must be non-negative")
        obs.count("channel.link_realisations")

        tissue_loss = 0.0
        if self.tissue is not None:
            # One pass on the incident hop, one on the reflected hop.
            tissue_loss = tissue_attenuation_db(self.tissue, passes=1)

        incident = (
            self.source_power_dbm
            + self.source_antenna.gain_dbi
            - self.path_loss.loss_db(source_to_tag_m, rng=rng)
            + self.tag_antenna.gain_dbi
            - tissue_loss
        )
        reflected = incident - self.conversion_loss_db
        rssi = (
            reflected
            + self.tag_antenna.gain_dbi
            - tissue_loss
            - self.path_loss.loss_db(tag_to_receiver_m, rng=rng)
            + self.receiver_antenna.gain_dbi
        )
        snr = self.noise.snr_db(rssi)
        return BackscatterLinkResult(
            rssi_dbm=float(rssi),
            incident_power_dbm=float(incident),
            snr_db=float(snr),
            detectable=rssi >= self.receiver_sensitivity_dbm,
        )

    def rssi_sweep(
        self,
        source_to_tag_m: float,
        tag_to_receiver_m: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """RSSI at the receiver for an array of tag→receiver distances."""
        return np.array(
            [
                self.evaluate(source_to_tag_m, float(d), rng=rng).rssi_dbm
                for d in np.asarray(tag_to_receiver_m, dtype=float)
            ]
        )

    def evaluate_batch(
        self,
        source_to_tag_m: np.ndarray | float,
        tag_to_receiver_m: np.ndarray | float,
        *,
        rng: np.random.Generator | None = None,
    ):
        """Broadcasting batch counterpart of :meth:`evaluate`.

        Evaluates whole arrays of hop-distance realisations in one shot
        (one vectorised shadowing draw per hop); returns a
        :class:`repro.mc.channel.BatchLinkResult`.  Statistics match a loop
        over :meth:`evaluate`; only RNG consumption order differs.
        """
        # Local import: repro.mc.channel imports this module at top level.
        from repro.mc.channel import backscatter_link_batch

        return backscatter_link_batch(self, source_to_tag_m, tag_to_receiver_m, rng=rng)


@dataclass
class DirectLinkBudget:
    """One-hop link budget (transmitter → receiver)."""

    tx_power_dbm: float = 0.0
    tx_antenna: AntennaModel | str = "monopole_2dbi"
    rx_antenna: AntennaModel | str = "monopole_2dbi"
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(bandwidth_hz=20e6))
    tissue: TissueLayer | str | None = None

    def __post_init__(self) -> None:
        self.tx_antenna = BackscatterLinkBudget._resolve(self.tx_antenna)
        self.rx_antenna = BackscatterLinkBudget._resolve(self.rx_antenna)

    def received_power_dbm(
        self, distance_m: float | np.ndarray, *, rng: np.random.Generator | None = None
    ) -> float | np.ndarray:
        """Received power at each distance, one link realisation per element.

        A scalar distance gets a float and an array an array, each element
        bit for bit the scalar call's; one vectorised shadowing draw covers
        the whole array.
        """
        obs.count("channel.link_realisations", int(np.size(distance_m)))
        tissue_loss = 0.0
        if self.tissue is not None:
            tissue_loss = tissue_attenuation_db(self.tissue, passes=1)
        # PathLossModel.loss_db gives a float for a scalar distance.
        return (
            self.tx_power_dbm
            + self.tx_antenna.gain_dbi
            - self.path_loss.loss_db(np.asarray(distance_m, dtype=float), rng=rng)
            + self.rx_antenna.gain_dbi
            - tissue_loss
        )

    def snr_db(self, distance_m: float, *, rng: np.random.Generator | None = None) -> float:
        """SNR at the receiver for a given distance."""
        return self.noise.snr_db(self.received_power_dbm(distance_m, rng=rng))
