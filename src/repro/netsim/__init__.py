"""Discrete-event multi-device MAC/network simulator for interscatter fleets.

The single-link physics of :mod:`repro.core` answers "does one tag's packet
decode"; this package answers "what happens when dozens of contact lenses,
implants or payment cards share one single-tone carrier":

* :mod:`repro.netsim.events` — deterministic event queue + simulated clock.
* :mod:`repro.netsim.medium` — the shared Wi-Fi channel: carrier activity,
  overlapping transmissions, SINR-based capture/corruption built on the
  :mod:`repro.channel` link budgets and error models.
* :mod:`repro.netsim.mac` — pluggable MAC policies (pure/slotted ALOHA,
  CSMA with exponential backoff, OFDM-downlink-driven TDMA polling) behind
  one :class:`~repro.netsim.mac.MacProtocol` interface.
* :mod:`repro.netsim.fleet` — scenario layer instantiating N devices from
  the :mod:`repro.apps` profiles with ring placement geometry.
* :mod:`repro.netsim.batched` — epoch-batched execution for 10^5-device
  fleets: per-device MAC state in numpy arrays, one vectorised medium pass
  per epoch, plus the scalar epoch oracle the differential tests trust;
  its ``simulate`` runs a scenario on the engine it names (:data:`ENGINES`).
* :mod:`repro.netsim.metrics` — per-device and aggregate throughput, PER,
  delivery ratio, medium utilization and latency percentiles.

Quickstart
----------

>>> from repro.netsim import FleetScenario, FleetSimulator
>>> scenario = FleetScenario(profile="contact_lens", num_devices=20,
...                          mac="slotted_aloha", duration_s=2.0, seed=7)
>>> metrics = FleetSimulator(scenario).run()
>>> 0.0 <= metrics.aggregate().delivery_ratio <= 1.0
True
"""

from repro.netsim.events import EventScheduler
from repro.netsim.medium import SharedMedium, Transmission, MediumOutcome
from repro.netsim.mac import (
    MAC_POLICIES,
    CsmaBackoff,
    MacProtocol,
    Packet,
    PureAloha,
    SlottedAloha,
    TdmaPolling,
    make_mac,
)
from repro.netsim.fleet import (
    ENGINES,
    PROFILES,
    FleetScenario,
    FleetSimulator,
    SimDevice,
    TrafficProfile,
    card_to_card_profile,
    contact_lens_profile,
    neural_implant_profile,
    ring_placement,
)
from repro.netsim.batched import (
    EPOCH_ENGINES,
    BatchedFleetSimulator,
    EpochMacParams,
    EpochReferenceSimulator,
    resolve_epoch_mac,
    simulate,
)
from repro.netsim.metrics import AggregateMetrics, DeviceStats, FleetMetrics

__all__ = [
    "EventScheduler",
    "SharedMedium",
    "Transmission",
    "MediumOutcome",
    "MacProtocol",
    "Packet",
    "PureAloha",
    "SlottedAloha",
    "CsmaBackoff",
    "TdmaPolling",
    "MAC_POLICIES",
    "make_mac",
    "TrafficProfile",
    "PROFILES",
    "contact_lens_profile",
    "neural_implant_profile",
    "card_to_card_profile",
    "ring_placement",
    "ENGINES",
    "FleetScenario",
    "FleetSimulator",
    "SimDevice",
    "BatchedFleetSimulator",
    "EpochReferenceSimulator",
    "EpochMacParams",
    "EPOCH_ENGINES",
    "resolve_epoch_mac",
    "simulate",
    "DeviceStats",
    "AggregateMetrics",
    "FleetMetrics",
]
