"""RF propagation, noise, antenna and tissue models.

These models turn transmit powers and geometries into received signal
strengths so the range/RSSI figures of the paper (Figs. 10, 14, 15, 16, 17)
can be reproduced in shape.  A backscatter link is a *two-hop* product
channel: Bluetooth transmitter → tag, then tag → receiver, with the tag
contributing a conversion loss; :mod:`repro.channel.link_budget` composes
the pieces.
"""

from repro.channel.propagation import (
    free_space_path_loss_db,
    log_distance_path_loss_db,
    PathLossModel,
)
from repro.channel.antennas import AntennaModel, ANTENNAS
from repro.channel.tissue import TissueLayer, TISSUE_PRESETS, tissue_attenuation_db
from repro.channel.noise import NoiseModel, thermal_noise_dbm
from repro.channel.link_budget import (
    BackscatterLinkBudget,
    BackscatterLinkResult,
    DirectLinkBudget,
)
from repro.channel.geometry import Position, feet_to_meters
from repro.channel.error_models import (
    ber_dbpsk,
    ber_dqpsk,
    ber_oqpsk_dsss,
    packet_error_rate,
    wifi_packet_error_rate,
)

__all__ = [
    "free_space_path_loss_db",
    "log_distance_path_loss_db",
    "PathLossModel",
    "AntennaModel",
    "ANTENNAS",
    "TissueLayer",
    "TISSUE_PRESETS",
    "tissue_attenuation_db",
    "NoiseModel",
    "thermal_noise_dbm",
    "BackscatterLinkBudget",
    "BackscatterLinkResult",
    "DirectLinkBudget",
    "Position",
    "feet_to_meters",
    "ber_dbpsk",
    "ber_dqpsk",
    "ber_oqpsk_dsss",
    "packet_error_rate",
    "wifi_packet_error_rate",
]
