"""Fleet scenarios: N interscatter devices sharing one single-tone carrier.

A :class:`FleetScenario` names an application profile (traffic shape +
antenna/tissue drawn from :mod:`repro.apps`), a fleet size, a MAC policy
and a seed; :class:`FleetSimulator` then

1. places the devices on concentric rings around the carrier source using
   :mod:`repro.channel.geometry` positions, with ring scale matched to the
   profile's physical range (contact lenses live tens of centimetres from
   the watch, implants centimetres from the headset),
2. evaluates every device's two-hop :class:`~repro.channel.link_budget.
   BackscatterLinkBudget` in one batch call (the fleet is static, so RSSI
   per device is a constant of the scenario),
3. drives per-device traffic generators and MAC instances over the shared
   medium with one seeded RNG and one event queue, and
4. returns :class:`~repro.netsim.metrics.FleetMetrics`.

Steps 1 and 2, with the packet every device synthesizes and a TDMA
fleet's poll success probabilities, are :func:`fleet_links`, which the
epoch engines of :mod:`repro.netsim.batched` share, so every engine runs a
scenario on the same per-device constants.
Runs are fully deterministic in the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.apps.card_to_card import CARD_PAYLOAD_BITS
from repro.apps.contact_lens import ContactLensReading
from repro.apps.neural_implant import NeuralFrame
from repro.channel.geometry import Position
from repro.channel.link_budget import BackscatterLinkBudget
from repro.channel.noise import NoiseModel
from repro.channel.propagation import PathLossModel
from repro.core.downlink import InterscatterDownlink
from repro.core.timing import InterscatterTiming
from repro.netsim.events import EventScheduler
from repro.obs import metrics as obs
from repro.netsim.mac import (
    CsmaBackoff,
    MacProtocol,
    Packet,
    PureAloha,
    SlottedAloha,
    TdmaPolling,
    POLL_BITS,
    make_mac,
)
from repro.netsim.medium import SharedMedium
from repro.netsim.metrics import DeviceStats, FleetMetrics
from repro.utils.knobs import finite_knob, finite_positive_knob, integer_knob

__all__ = [
    "TrafficProfile",
    "PROFILES",
    "contact_lens_profile",
    "neural_implant_profile",
    "card_to_card_profile",
    "ring_placement",
    "FleetLinks",
    "fleet_links",
    "ENGINES",
    "FleetScenario",
    "SimDevice",
    "FleetSimulator",
]

#: Minimal 802.11b MAC header + FCS the apps prepend to their payloads.
MAC_OVERHEAD_BYTES = 6

#: Execution engines a :class:`FleetScenario` may name, default first.
#: ``repro.netsim.batched.simulate`` dispatches on them.
ENGINES = ("scalar", "batched", "reference")


@dataclass(frozen=True)
class TrafficProfile:
    """Traffic + physical profile of one device class.

    Attributes
    ----------
    name:
        Profile identifier (also used in metrics).
    payload_bytes:
        Application payload per packet; the synthesized PSDU adds
        :data:`MAC_OVERHEAD_BYTES` and is clipped to the packet-in-packet
        budget of the profile's Wi-Fi rate.
    period_s:
        Mean packet (or burst) interval per device.
    wifi_rate_mbps:
        802.11b rate of the synthesized packets.
    burst_size:
        Packets generated per traffic event (card swipes arrive in bursts).
    jitter_fraction:
        Uniform ±jitter applied to each interval, as a fraction of it.
    tag_antenna / tissue:
        Link-budget inputs from the corresponding app prototype.
    inner_radius_m / ring_spacing_m:
        Placement geometry: radius of the first device ring around the
        carrier source and the spacing of subsequent rings.
    receiver_offset_m:
        Distance from the carrier source to the fleet's Wi-Fi receiver.
    """

    name: str
    payload_bytes: int
    period_s: float
    wifi_rate_mbps: float = 2.0
    burst_size: int = 1
    jitter_fraction: float = 0.1
    tag_antenna: str = "monopole_2dbi"
    tissue: str | None = None
    inner_radius_m: float = 0.5
    ring_spacing_m: float = 0.25
    receiver_offset_m: float = 0.5


def contact_lens_profile(*, period_s: float = 0.25) -> TrafficProfile:
    """Glucose telemetry from smart contact lenses near a smart watch."""
    payload = len(ContactLensReading(glucose_mmol_per_l=5.5, sequence=0).encode())
    return TrafficProfile(
        name="contact_lens",
        payload_bytes=payload,
        period_s=period_s,
        wifi_rate_mbps=2.0,
        tag_antenna="contact_lens_loop",
        tissue="contact_lens_saline",
        inner_radius_m=0.25,
        ring_spacing_m=0.15,
        receiver_offset_m=0.3,
    )


def neural_implant_profile(
    *, period_s: float = 0.05, num_channels: int = 8, samples_per_channel: int = 8
) -> TrafficProfile:
    """ECoG frame streaming from implanted neural recorders."""
    frame = NeuralFrame(
        channel_samples=np.zeros((num_channels, samples_per_channel), dtype=np.int16),
        sequence=0,
    )
    return TrafficProfile(
        name="neural_implant",
        payload_bytes=len(frame.encode()),
        period_s=period_s,
        wifi_rate_mbps=11.0,
        tag_antenna="neural_implant_loop",
        tissue="muscle_0_75_inch",
        inner_radius_m=0.06,
        ring_spacing_m=0.02,
        receiver_offset_m=0.05,
    )


def card_to_card_profile(*, period_s: float = 1.0, burst_size: int = 4) -> TrafficProfile:
    """Bursty payment exchanges between credit-card form-factor devices."""
    payload = math.ceil(CARD_PAYLOAD_BITS / 8)
    return TrafficProfile(
        name="card_to_card",
        payload_bytes=payload,
        period_s=period_s,
        wifi_rate_mbps=2.0,
        burst_size=burst_size,
        tag_antenna="credit_card_trace",
        tissue=None,
        inner_radius_m=0.2,
        ring_spacing_m=0.15,
        receiver_offset_m=0.25,
    )


#: Registry of the Section-5 application profiles.
PROFILES = {
    "contact_lens": contact_lens_profile,
    "neural_implant": neural_implant_profile,
    "card_to_card": card_to_card_profile,
}


def ring_placement(
    num_devices: int,
    *,
    inner_radius_m: float,
    ring_spacing_m: float,
    per_first_ring: int = 8,
) -> list[Position]:
    """Deterministic concentric-ring placement around the origin.

    Ring ``k`` (1-based) has radius ``inner + (k-1)·spacing`` and holds
    ``per_first_ring·k`` devices, evenly spaced in angle with a half-step
    twist per ring so devices do not line up radially.
    """
    if num_devices < 1:
        raise ConfigurationError("num_devices must be at least 1")
    if inner_radius_m <= 0 or ring_spacing_m <= 0:
        raise ConfigurationError("placement radii must be positive")
    positions: list[Position] = []
    ring = 1
    while len(positions) < num_devices:
        radius = inner_radius_m + (ring - 1) * ring_spacing_m
        capacity = per_first_ring * ring
        count = min(capacity, num_devices - len(positions))
        twist = math.pi / capacity * (ring - 1)
        for i in range(count):
            angle = 2.0 * math.pi * i / capacity + twist
            positions.append(
                Position(radius * math.cos(angle), radius * math.sin(angle))
            )
        ring += 1
    return positions


@dataclass(frozen=True)
class FleetLinks:
    """Per-device constants of one placed fleet (see :func:`fleet_links`).

    Attributes
    ----------
    psdu_bytes / air_time_s:
        Size and air time of the 802.11b packet every device synthesizes.
    positions / receiver:
        Device placement around the carrier source at the origin, and the
        position of the fleet's Wi-Fi receiver.
    rssi_dbm / incident_power_dbm:
        Per device: received power at the receiver and carrier power
        arriving at the tag.
    noise / sensitivity_dbm:
        The receiver the link budget models; the medium judges packets
        against the same one.
    poll_success_prob:
        TDMA scenarios only (``None`` otherwise): per device, the
        probability of decoding a poll, ``(1 - BER)**POLL_BITS`` with the
        BER of the interscatter downlink over the receiver-to-device
        distance.
    """

    psdu_bytes: int
    air_time_s: float
    positions: list[Position]
    receiver: Position
    rssi_dbm: np.ndarray
    incident_power_dbm: np.ndarray
    noise: NoiseModel
    sensitivity_dbm: float
    poll_success_prob: np.ndarray | None


def fleet_links(scenario: FleetScenario) -> FleetLinks:
    """Size the packet, place the fleet and evaluate every device's link once.

    The fleet is static, so these are constants of the scenario: one
    :meth:`~repro.channel.link_budget.BackscatterLinkBudget.evaluate_batch`
    call covers every device, and a TDMA fleet gets each device's poll
    success probability here, once for every engine.
    """
    profile = scenario.resolved_profile()
    timing = InterscatterTiming(wifi_rate_mbps=profile.wifi_rate_mbps)
    psdu_bytes = min(profile.payload_bytes + MAC_OVERHEAD_BYTES, timing.max_wifi_psdu_bytes())
    if psdu_bytes <= 0:
        raise ConfigurationError(f"no Wi-Fi payload fits at {profile.wifi_rate_mbps} Mbps")
    link_budget = BackscatterLinkBudget(
        source_power_dbm=scenario.source_power_dbm,
        tag_antenna=profile.tag_antenna,
        tissue=profile.tissue,
        path_loss=PathLossModel(path_loss_exponent=2.0),
        noise=NoiseModel(bandwidth_hz=22e6),
    )
    origin = Position(0.0, 0.0)
    receiver = Position(0.0, profile.receiver_offset_m)
    positions = ring_placement(
        scenario.num_devices,
        inner_radius_m=profile.inner_radius_m,
        ring_spacing_m=profile.ring_spacing_m,
    )
    receiver_distance_m = np.array([p.distance_to(receiver) for p in positions])
    links = link_budget.evaluate_batch(np.array([p.distance_to(origin) for p in positions]), receiver_distance_m)
    poll_success_prob = None
    if scenario.mac == TdmaPolling.name:
        bers, _ = InterscatterDownlink().link_bit_error_rate(receiver_distance_m)
        # A Python power per element: numpy's array ``**`` rounds differently.
        poll_success_prob = np.array([(1.0 - ber) ** POLL_BITS for ber in bers.tolist()])
    return FleetLinks(
        psdu_bytes=psdu_bytes,
        air_time_s=timing.wifi_air_time_s(psdu_bytes),
        positions=positions,
        receiver=receiver,
        rssi_dbm=np.asarray(links.rssi_dbm, dtype=float),
        incident_power_dbm=np.asarray(links.incident_power_dbm, dtype=float),
        noise=link_budget.noise,
        sensitivity_dbm=link_budget.receiver_sensitivity_dbm,
        poll_success_prob=poll_success_prob,
    )


@dataclass(frozen=True)
class FleetScenario:
    """One reproducible multi-device experiment configuration.

    Attributes
    ----------
    profile:
        Device class (a :class:`TrafficProfile` or a name from
        :data:`PROFILES`).
    num_devices:
        Fleet size.
    mac:
        MAC policy name from :data:`repro.netsim.mac.MAC_POLICIES`.
    duration_s:
        Simulated horizon.
    seed:
        Seed of the single RNG driving traffic jitter, backoffs, PER draws
        and poll losses.
    source_power_dbm:
        Transmit power of the shared single-tone carrier.
    period_s:
        Optional override of the profile's packet interval (the scaling
        experiments use it to push offered load).
    mac_params:
        Extra keyword arguments forwarded to the MAC constructor.
    engine:
        Execution engine (one of :data:`ENGINES`) that
        ``repro.netsim.batched.simulate`` dispatches on: ``"scalar"`` (this
        module's continuous-time heap engine, analytic PHY error model
        evaluated once per link for clean packets and per packet for
        captured ones), ``"batched"`` (vectorised epoch engine) or
        ``"reference"`` (the scalar epoch oracle the differential tests
        trust).

    Construction rejects inputs no engine can run (a non-positive or
    non-finite horizon or packet interval, a fleet size or seed that is
    not an integer, an empty fleet, a negative seed, a non-finite carrier
    power, an unknown engine) with
    :class:`~repro.exceptions.ConfigurationError`, so every engine sees
    the same validated scenario.
    """

    profile: TrafficProfile | str = "contact_lens"
    num_devices: int = 10
    mac: str = "slotted_aloha"
    duration_s: float = 5.0
    seed: int = 2016
    source_power_dbm: float = 20.0
    period_s: float | None = None
    mac_params: dict = field(default_factory=dict)
    engine: str = "scalar"

    def __post_init__(self) -> None:
        # Integers only, stored as int (numpy integers pass): a float, bool or
        # string fleet size, or an unseeded run, means something different
        # on each engine.
        object.__setattr__(self, "num_devices", integer_knob("num_devices", self.num_devices))
        object.__setattr__(self, "seed", integer_knob("seed", self.seed))
        if self.num_devices < 1:
            raise ConfigurationError("num_devices must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        # Checked only: the stored values stay as given, so a run's
        # aggregate and its draws do not move.
        finite_positive_knob("duration_s", self.duration_s)
        if self.period_s is not None:
            finite_positive_knob("period_s", self.period_s)
        finite_knob("source_power_dbm", self.source_power_dbm)
        if self.engine not in ENGINES:
            raise ConfigurationError(f"unknown netsim engine {self.engine!r}; available: {list(ENGINES)}")

    def resolved_profile(self) -> TrafficProfile:
        """The concrete profile, with any period override applied."""
        profile = self.profile
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]()
            except KeyError as exc:
                raise ConfigurationError(
                    f"unknown profile {self.profile!r}; available: {sorted(PROFILES)}"
                ) from exc
        if self.period_s is not None:
            profile = replace(profile, period_s=self.period_s)
        return profile


class SimDevice:
    """One placed device: geometry, link budget and MAC instance."""

    def __init__(
        self,
        device_id: int,
        position: Position,
        *,
        rssi_dbm: float,
        incident_power_dbm: float,
        psdu_bytes: int,
        air_time_s: float,
        rate_mbps: float,
        mac: MacProtocol,
        stats: DeviceStats,
    ) -> None:
        self.device_id = device_id
        self.position = position
        self.rssi_dbm = rssi_dbm
        self.incident_power_dbm = incident_power_dbm
        self.psdu_bytes = psdu_bytes
        self.air_time_s = air_time_s
        self.rate_mbps = rate_mbps
        self.mac = mac
        self.stats = stats
        self.sequence = 0


class FleetSimulator:
    """Runs one :class:`FleetScenario` end to end."""

    #: Safety margin added to MAC slots over the raw packet air time.
    SLOT_GUARD_FRACTION = 0.05

    def __init__(self, scenario: FleetScenario) -> None:
        self.scenario = scenario
        self.profile = scenario.resolved_profile()
        self.rng = np.random.default_rng(scenario.seed)
        self.scheduler = EventScheduler()
        self.metrics = FleetMetrics()

        links = fleet_links(scenario)
        slot_s = links.air_time_s * (1.0 + self.SLOT_GUARD_FRACTION)
        self.medium = SharedMedium(noise=links.noise, receiver_sensitivity_dbm=links.sensitivity_dbm)

        self.nodes: list[SimDevice] = []
        for device_id, (position, rssi_dbm, incident_power_dbm) in enumerate(
            zip(links.positions, links.rssi_dbm.tolist(), links.incident_power_dbm.tolist(), strict=True)
        ):
            mac = self._make_mac(device_id, slot_s=slot_s, poll_success_prob=links.poll_success_prob)
            stats = self.metrics.add_device(device_id, self.profile.name, rssi_dbm)
            node = SimDevice(
                device_id,
                position,
                rssi_dbm=rssi_dbm,
                incident_power_dbm=incident_power_dbm,
                psdu_bytes=links.psdu_bytes,
                air_time_s=links.air_time_s,
                rate_mbps=self.profile.wifi_rate_mbps,
                mac=mac,
                stats=stats,
            )
            mac.bind(node, self)
            self.nodes.append(node)

    # ------------------------------------------------------------- MAC setup
    def _make_mac(self, device_id: int, *, slot_s: float, poll_success_prob: np.ndarray | None) -> MacProtocol:
        name = self.scenario.mac
        params = dict(self.scenario.mac_params)
        if name == PureAloha.name:
            params.setdefault("base_backoff_s", 4.0 * slot_s)
        elif name == SlottedAloha.name:
            params.setdefault("slot_s", slot_s)
        elif name == CsmaBackoff.name:
            params.setdefault("backoff_slot_s", slot_s / 4.0)
        elif name == TdmaPolling.name:
            params.setdefault("slot_index", device_id)
            params.setdefault("num_slots", self.scenario.num_devices)
            params.setdefault("slot_s", slot_s)
            params.setdefault("poll_success_prob", float(poll_success_prob[device_id]))
        return make_mac(name, **params)

    # --------------------------------------------------------------- traffic
    def _arrivals(self, node: SimDevice) -> Callable[[], None]:
        """*node*'s traffic generator: one event per arrival, rescheduling itself."""
        profile = self.profile
        scheduler = self.scheduler
        rng = self.rng
        mac = node.mac
        stats = node.stats

        def arrive() -> None:
            for _ in range(profile.burst_size):
                node.sequence += 1
                packet = Packet(node.device_id, node.sequence, node.psdu_bytes, scheduler.now)
                stats.generated += 1
                if not mac.packet_arrived(packet):
                    stats.queue_dropped += 1
            # Generator.uniform(-1, 1) is -1 + 2 * random(), same value and state.
            jitter = profile.jitter_fraction * (-1.0 + 2.0 * rng.random())
            scheduler.schedule(profile.period_s * (1.0 + jitter), arrive)

        return arrive

    # ----------------------------------------------------- MAC-facing service
    def transmit(self, node: SimDevice, packet: Packet, done) -> None:
        """Put *packet* on the air; *done(packet, outcome)* fires at its end."""
        packet.attempts += 1
        node.stats.attempted += 1
        medium = self.medium
        scheduler = self.scheduler
        tx = medium.begin(
            device_id=node.device_id,
            rssi_dbm=node.rssi_dbm,
            duration_s=node.air_time_s,
            psdu_bytes=packet.psdu_bytes,
            rate_mbps=node.rate_mbps,
            now=scheduler.now,
        )

        def finish() -> None:
            outcome = medium.end(tx, now=scheduler.now, rng=self.rng)
            if outcome.collided:
                node.stats.collided += 1
            done(packet, outcome)

        scheduler.schedule(node.air_time_s, finish)

    def record_delivery(self, node: SimDevice, packet: Packet) -> None:
        """Credit a decoded packet to its device."""
        node.stats.delivered += 1
        node.stats.bytes_delivered += packet.psdu_bytes
        node.stats.latencies_s.append(self.scheduler.now - packet.created_s)

    def record_drop(self, node: SimDevice, packet: Packet) -> None:
        """Account a packet the MAC gave up on."""
        node.stats.dropped += 1

    # ------------------------------------------------------------------- run
    def run(self) -> FleetMetrics:
        """Execute the scenario and return the collected metrics."""
        with obs.span(
            "netsim.fleet.run",
            profile=self.profile.name,
            devices=self.scenario.num_devices,
            mac=self.scenario.mac,
        ):
            for node in self.nodes:
                node.mac.start()
                # Desynchronise first arrivals across the fleet.
                self.scheduler.schedule(
                    float(self.rng.uniform(0.0, self.profile.period_s)), self._arrivals(node)
                )
            self.scheduler.run(until_s=self.scenario.duration_s)
            self.medium.finalize(self.scenario.duration_s)
            self.metrics.finalize(
                duration_s=self.scenario.duration_s,
                busy_time_s=self.medium.busy_time_s,
                airtime_s=self.medium.airtime_s,
            )
        obs.gauge("netsim.medium.busy_time_s", self.medium.busy_time_s)
        obs.gauge("netsim.medium.airtime_s", self.medium.airtime_s)
        # The medium's own tallies, once per run instead of once per packet;
        # a counter that never moved is left out, as per-packet counting did.
        for name in ("resolutions", "collisions", "phy_calls"):
            total = getattr(self.medium, name)
            if total:
                obs.count(f"netsim.medium.{name}", total)
        return self.metrics
