"""Epoch-batched fleet execution: 10^5-device scenarios in numpy arrays.

The heap engine (:class:`repro.netsim.fleet.FleetSimulator`) dispatches one
Python callback per event, which caps fleets near 10^3 devices.  This module
trades continuous time for *epochs* — fixed slices of the virtual clock, one
packet air time wide by default — and keeps all per-device MAC state
(queue depths, backoff counters, retry ladders, next-attempt epochs) in
numpy arrays.  An epoch's work follows its real sizes: the few arrivals
run device by device, and the one transmitter that can be delivered is
resolved as a scalar against a PER table (:func:`per_table`).  The
transmitters stay in the sorted id list the calendar returns; each bulk
step (duty-cycle gate, CSMA sensing and backoff, TDMA poll, medium, loser
bookkeeping) walks it in plain Python up to :data:`PER_DEVICE_MAX`
devices and hands it to numpy above that, as for the hundreds of losers
of a saturated fleet.

Two engines implement the *same* epoch contract:

* :class:`BatchedFleetSimulator` — the vectorised production engine.
* :class:`EpochReferenceSimulator` — an independently written per-device
  scalar oracle (Python loops, scalar RNG draws) used by the differential
  test suite.

Because numpy ``Generator`` array draws are bit-identical to the same number
of sequential scalar draws (``random(k)``, ``uniform(a, b, k)``,
``integers(lo, hi, k)``, ``integers(lo, hi_array)``), and ``uniform(a, b)``
is ``a + (b - a) * random()`` bit for bit, the two engines consume
the identical random stream and must produce **bit-identical** per-device
counters — that is the equivalence contract
``tests/netsim/test_batched_equivalence.py`` enforces for every MAC on fleets
of 4 to 2,000 devices.  The continuous-time heap engine is *not* expected
to match bit-for-bit (it resolves collisions on real overlap intervals, not
epoch co-occupancy); it is compared statistically instead.

Epoch contract
--------------

Virtual time advances in epochs of ``epoch_s`` seconds (default: one MAC
slot, i.e. packet air time x 1.05; must be >= one air time).  The horizon is
``floor(duration_s / epoch_s)`` epochs.  Idle epochs (no device queued for
them) are skipped and consume no randomness: the vectorised engine keeps a
calendar with one slot per epoch of the horizon, the oracle a heap of epoch
indices.  A device queued into the epoch being processed gets that epoch
processed once more.  Within one processed epoch ``e``
(``t_end = (e + 1) * epoch_s``), phases run in a fixed order and every
random draw happens in ascending device id:

1. **Arrivals** — rounds over devices whose next arrival falls before
   ``t_end``: push ``burst_size`` packets (full queues count
   ``queue_dropped``), then one ``uniform(-1, 1)`` jitter draw per device
   advances its next arrival by ``period_s * (1 + jitter_fraction * u)``.
   The vectorised engine loops over the devices in Python, one array draw
   per round: arrivals per epoch track the offered load, a handful, where
   numpy's fixed per-call price outweighs the per-device work.
2. **Initial access** for devices whose queue went empty -> non-empty:
   ALOHA/slotted attempt at ``e + 1``; CSMA draws ``integers(0, 2**BE)``
   epochs of initial backoff (a fresh head always has ``BE = min_be``);
   TDMA waits for its next owned epoch (``device_id % num_slots``).
3. **Contention** — devices whose attempt epoch arrived.  Duty-cycle-blocked
   devices (per-device airtime > ``duty_cycle * t_end``) defer one epoch
   without drawing.  CSMA senses busy iff epoch ``e - 1`` carried any
   transmission: one ``random()`` detection draw per contender against
   ``cca_reliability``; detected-busy increments the CCA counter (abort
   above ``max_cca_attempts`` drops the head), survivors re-draw backoff
   with BE escalation.  TDMA draws one poll per contender against the
   device's downlink poll-decode probability.
4. **Medium** — the k surviving transmitters each occupy exactly this epoch.
   Interference per transmitter is ``np.sum(signal_w of all k) - own``;
   SINR = ``10*log10(signal / (noise + interference))``; ``k >= 2`` marks
   every packet collided and packets under the capture threshold get
   PER = 1, everything else looks up the PER table.  One ``random()`` draw
   per transmitter decides delivery (``rssi >= sensitivity and u > per``).
   At most one capture: a transmitter at or above the 10 dB threshold
   carries more than 10x the power of all the others combined, so only the
   strongest can clear it.  The vectorised engine computes that one SINR
   and PER; the others are certain losses, though their draws are still
   consumed.  Its interference total is numpy's sum in either form:
   Python's ``sum`` rounds differently from 8 terms on, and at any length
   from Python 3.12, which compensates.
5. **Outcomes** — the delivered head pops (latency = ``t_end - created``);
   failed heads at ``max_attempts`` drop; the rest draw their retry ladder
   (ALOHA ``integers(0, base * 2**min(attempts-1, 10))`` epochs; slotted
   ``integers(1, 2**min(attempts, 10) + 1)`` slots; CSMA BE-escalated
   backoff; TDMA waits a superframe).  Retry draws precede the initial
   access draws of freshly exposed queue heads.

The PER table holds the closed-form model at 0.25 dB SINR bins, built
once per simulator; a lookup interpolates between bin centres, within
5e-3 of the model for the fleet profiles' packets.  MAC knobs arrive
through ``FleetScenario.mac_params`` — see :func:`resolve_epoch_mac` —
including the contention-realism set: ``cca_reliability`` (imperfect
CCA), ``max_attempts`` (retry-ladder abort counter) and ``duty_cycle``
(fraction of elapsed virtual time a device may spend on air).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.channel.error_models import wifi_packet_error_rate
from repro.netsim.fleet import FleetScenario, FleetSimulator, fleet_links
from repro.netsim.mac import MAX_BACKOFF_EXPONENT
from repro.netsim.metrics import FleetMetrics
from repro.obs import metrics as obs
from repro.utils.dsp import dbm_to_watts, scalar_or_array
from repro.utils.knobs import finite_positive_knob, integer_knob, probability_knob

__all__ = [
    "PER_TABLE_SINR_DB",
    "PerTable",
    "per_table",
    "EpochMacParams",
    "resolve_epoch_mac",
    "BatchedFleetSimulator",
    "EpochReferenceSimulator",
    "simulate",
    "EPOCH_ENGINES",
]

#: MAC policies the epoch engines implement.
EPOCH_MACS = ("aloha", "slotted_aloha", "csma", "tdma")

#: Capture threshold shared with :class:`repro.netsim.medium.SharedMedium`.
CAPTURE_THRESHOLD_DB = 10.0

#: SINR bin centres (dB) of the epoch engines' PER table: 0.25 dB bins, well
#: below the dB-scale granularity of the PER model.
PER_TABLE_SINR_DB = np.arange(-15.0, 40.0 + 0.25, 0.25)


@dataclass(frozen=True)
class PerTable:
    """PER of one link class at every SINR of :data:`PER_TABLE_SINR_DB`."""

    per: np.ndarray

    def lookup(self, sinr_db: float | np.ndarray) -> float | np.ndarray:
        """Interpolated PER; SINRs outside the grid clamp to the edge bins (≈1 below, ≈0 above)."""
        value = np.interp(np.asarray(sinr_db, dtype=float), PER_TABLE_SINR_DB, self.per)
        return scalar_or_array(value, sinr_db)


def per_table(rate_mbps: float, payload_bytes: int) -> PerTable:
    """The closed-form 802.11b PER of one link class, evaluated at every bin centre."""
    # perfbench reads this counter under its historical name.
    obs.count("mc.link_abstraction.tables_built")
    per = wifi_packet_error_rate(PER_TABLE_SINR_DB, rate_mbps=float(rate_mbps), payload_bytes=int(payload_bytes))
    return PerTable(np.asarray(per))


@dataclass(frozen=True)
class EpochMacParams:
    """Resolved MAC parameters of one epoch-engine run.

    Attributes
    ----------
    name:
        MAC policy (one of :data:`EPOCH_MACS`).
    max_attempts / queue_limit:
        Retry-ladder abort counter and per-device queue capacity.
    duty_cycle:
        Fraction of elapsed virtual time a device may occupy the medium
        (1.0 disables the limit; cf. LoRa regional duty-cycle caps).
    base_backoff_epochs:
        ALOHA first retry window in epochs (doubles per failure, capped at
        ``2**MAX_BACKOFF_EXPONENT``).
    min_be / max_be / max_cca_attempts / cca_reliability:
        CSMA backoff-exponent bounds, CCA abort counter and busy-detection
        probability (imperfect envelope-detector carrier sense).
    num_slots:
        TDMA superframe length; device ``i`` owns epochs where
        ``epoch % num_slots == i % num_slots``.
    """

    name: str
    max_attempts: int = 8
    queue_limit: int = 64
    duty_cycle: float = 1.0
    base_backoff_epochs: int = 4
    min_be: int = 3
    max_be: int = 6
    max_cca_attempts: int = 5
    cca_reliability: float = 1.0
    num_slots: int = 1


def resolve_epoch_mac(scenario: FleetScenario, epoch_s: float) -> EpochMacParams:
    """Map ``scenario.mac`` + ``scenario.mac_params`` onto epoch-engine knobs.

    Accepts the heap engine's vocabulary where it translates naturally:
    ``base_backoff_s`` quantises to epochs; ``slot_s`` / ``backoff_slot_s``
    are checked and ignored (the epoch *is* the slot / backoff unit);
    unknown keys, integer knobs that are not integers (see
    :func:`~repro.utils.knobs.integer_knob`), widths that are not finite
    positive numbers (see :func:`~repro.utils.knobs.finite_positive_knob`)
    and probabilities outside [0, 1] (see
    :func:`~repro.utils.knobs.probability_knob`) raise
    :class:`~repro.exceptions.ConfigurationError`, as on the heap engine.
    """
    name = scenario.mac
    if name not in EPOCH_MACS:
        raise ConfigurationError(f"unknown epoch MAC policy {name!r}; available: {sorted(EPOCH_MACS)}")
    params = dict(scenario.mac_params)
    fields: dict = {"name": name}
    fields["max_attempts"] = integer_knob("max_attempts", params.pop("max_attempts", 8))
    fields["queue_limit"] = integer_knob("queue_limit", params.pop("queue_limit", 64))
    fields["duty_cycle"] = probability_knob("duty_cycle", params.pop("duty_cycle", 1.0))
    if fields["max_attempts"] < 1:
        raise ConfigurationError("max_attempts must be at least 1")
    if fields["queue_limit"] < 1:
        raise ConfigurationError("queue_limit must be at least 1")
    if fields["duty_cycle"] == 0.0:
        raise ConfigurationError("duty_cycle must be in (0, 1]")
    width = {"slotted_aloha": "slot_s", "csma": "backoff_slot_s", "tdma": "slot_s"}.get(name)
    if width in params:  # checked, then ignored: the epoch is the slot / backoff unit
        finite_positive_knob(width, params.pop(width))
    if name == "aloha":
        base = params.pop("base_backoff_epochs", None)
        if base is None and "base_backoff_s" in params:
            base = max(1, round(finite_positive_knob("base_backoff_s", params.pop("base_backoff_s")) / epoch_s))
        fields["base_backoff_epochs"] = integer_knob("base_backoff_epochs", base) if base is not None else 4
        if fields["base_backoff_epochs"] < 1:
            raise ConfigurationError("base_backoff_epochs must be at least 1")
    elif name == "csma":
        fields["min_be"] = integer_knob("min_be", params.pop("min_be", 3))
        fields["max_be"] = integer_knob("max_be", params.pop("max_be", 6))
        fields["max_cca_attempts"] = integer_knob("max_cca_attempts", params.pop("max_cca_attempts", 5))
        fields["cca_reliability"] = probability_knob("cca_reliability", params.pop("cca_reliability", 1.0))
        if not 0 <= fields["min_be"] <= fields["max_be"] <= 20:
            raise ConfigurationError("need 0 <= min_be <= max_be <= 20")
        if fields["max_cca_attempts"] < 1:
            raise ConfigurationError("max_cca_attempts must be at least 1")
    elif name == "tdma":
        fields["num_slots"] = integer_knob("num_slots", params.pop("num_slots", scenario.num_devices))
        params.pop("slot_index", None)  # fixed to device_id % num_slots
        if fields["num_slots"] < 1:
            raise ConfigurationError("num_slots must be at least 1")
    if params:
        raise ConfigurationError(
            f"unknown batched MAC parameters for {name!r}: {sorted(params)}"
        )
    return EpochMacParams(**fields)


#: Bulk steps of an epoch (duty-cycle gate, CSMA sensing and backoff, TDMA
#: poll, medium, loser bookkeeping) walk up to this many devices in plain
#: Python and hand more to numpy: below it a numpy call's fixed price, not
#: the per-device work, sets the cost.  Measured on a 2-core VM (Python
#: 3.11, numpy 2.4), the median time of a busy epoch's phases 3-5 ties
#: between the two forms at 8-24 ready devices, lowest for ALOHA, highest
#: for CSMA; ``mac_scaling``'s batched specs ran equally fast at any value
#: from 12 to 32.  24 keeps every step of those fleets, at most 22 devices,
#: on the list form.
PER_DEVICE_MAX = 24

#: Bounded-integer draws for up to this many devices are scalar calls,
#: which give the same values and generator state as one array-bound call.
#: Measured on the same VM (numpy 2.4.6), a scalar ``integers(lo, h)`` costs
#: about 1.7 us and an array-bound call over a list about 8 us, so scalar
#: calls were faster up to 5 bounds (12 of 15 rounds at 5, 0 of 15 at 6).
SCALAR_DRAWS_MAX = 5


def _per_device(count: int) -> bool:
    """Whether a bulk step over *count* devices walks them in plain Python."""
    return count <= PER_DEVICE_MAX


def _strongest_sinr_db(signal_w: list[float] | np.ndarray, noise_w: float) -> tuple[int, float]:
    """Index and SINR (dB) of the strongest of concurrent transmitters.

    *signal_w* is a list of powers or their numpy array; numpy picks the
    first maximum and sums the interference for both, so the SINR is the
    value a vectorised pass over all of them gives that transmitter.  The
    others are below the capture threshold.
    """
    powers = np.asarray(signal_w)
    strongest = int(powers.argmax())
    own = powers[strongest]
    return strongest, 10.0 * np.log10(own / (noise_w + max(float(powers.sum()) - own, 0.0)))


class _EpochSetup:
    """Scenario constants shared by both epoch engines.

    Both engines build their own instance from the same scenario, so every
    derived float (air time, epoch width, per-device RSSI / signal power)
    is computed by the same code path and therefore bit-identical between
    them.  Packet size, placement, link budgets and TDMA poll probabilities
    come from :func:`~repro.netsim.fleet.fleet_links`, as on the heap engine.
    """

    def __init__(self, scenario: FleetScenario, *, epoch_s: float | None = None) -> None:
        self.scenario = scenario
        self.profile = scenario.resolved_profile()
        links = fleet_links(scenario)
        self.psdu_bytes = links.psdu_bytes
        self.air_time_s = links.air_time_s
        slot_s = self.air_time_s * (1.0 + FleetSimulator.SLOT_GUARD_FRACTION)
        self.epoch_s = float(epoch_s) if epoch_s is not None else slot_s
        if self.epoch_s < self.air_time_s:
            raise ConfigurationError(
                f"epoch_s must cover one packet air time ({self.air_time_s:.6g} s)"
            )
        self.num_epochs = int(scenario.duration_s / self.epoch_s)

        self.noise_w = dbm_to_watts(links.noise.noise_floor_dbm)
        self.sensitivity_dbm = links.sensitivity_dbm
        self.rssi_dbm = links.rssi_dbm
        self.signal_w = dbm_to_watts(self.rssi_dbm)
        self.per_table = per_table(self.profile.wifi_rate_mbps, self.psdu_bytes)
        self.poll_success_prob = links.poll_success_prob


class BatchedFleetSimulator:
    """Vectorised epoch engine: per-device MAC state in numpy arrays.

    Parameters
    ----------
    scenario:
        The fleet configuration (the PER table is always used).
    epoch_s:
        Epoch width override; defaults to one MAC slot.  Coarser epochs
        trade collision-window fidelity for fewer epochs (any two packets
        in the same epoch collide).
    record_epochs:
        When True, every processed epoch index is appended to
        ``epoch_trace`` (the invariant tests assert strict monotonicity).
    """

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        epoch_s: float | None = None,
        record_epochs: bool = False,
    ) -> None:
        self.scenario = scenario
        self.setup = _EpochSetup(scenario, epoch_s=epoch_s)
        self.params = resolve_epoch_mac(scenario, self.setup.epoch_s)
        self.rng = np.random.default_rng(scenario.seed)
        n = scenario.num_devices
        limit = self.params.queue_limit
        self.queue_len = np.zeros(n, dtype=np.int64)
        self.head = np.zeros(n, dtype=np.int64)
        self.created = np.zeros((n, limit), dtype=float)
        self.head_attempts = np.zeros(n, dtype=np.int64)
        self.be = np.full(n, self.params.min_be, dtype=np.int64)
        self.cca_fails = np.zeros(n, dtype=np.int64)
        self.airtime_used = np.zeros(n, dtype=float)
        self.next_arrival_s = np.zeros(n, dtype=float)
        self.generated_ct = np.zeros(n, dtype=np.int64)
        self.queue_dropped_ct = np.zeros(n, dtype=np.int64)
        self.attempted_ct = np.zeros(n, dtype=np.int64)
        self.lone_ct = np.zeros(n, dtype=np.int64)  # attempts made alone on the medium
        self.delivered_ct = np.zeros(n, dtype=np.int64)
        self.dropped_ct = np.zeros(n, dtype=np.int64)
        # Element views of the state the per-device paths touch: a
        # memoryview item is a plain Python number and costs a fraction of
        # a numpy scalar access.
        self._v = SimpleNamespace(
            **{
                name: memoryview(getattr(self, name))
                for name in (
                    "queue_len", "head", "created", "head_attempts", "be", "cca_fails", "next_arrival_s",
                    "airtime_used", "generated_ct", "queue_dropped_ct", "attempted_ct", "lone_ct", "delivered_ct",
                    "dropped_ct",
                )
            }
        )
        # Upper bound of a retry draw by head attempt count, constant from
        # MAX_BACKOFF_EXPONENT + 1 attempts on: ALOHA's window in epochs,
        # slotted ALOHA's slots ahead (a lookup costs less than the powers).
        steps = np.arange(MAX_BACKOFF_EXPONENT + 2)
        if self.params.name == "aloha":
            self._retry_hi = self.params.base_backoff_epochs * 2 ** np.maximum(steps - 1, 0)
        else:  # slotted ALOHA; CSMA and TDMA do not use it
            self._retry_hi = 2 ** np.minimum(steps, MAX_BACKOFF_EXPONENT) + 1
        # Element views of the constants the per-device forms read: signal
        # power, the sensitivity test, the PER of a lone transmitter (no
        # interference: SINR is the SNR), the retry bounds and the TDMA
        # poll success probability.
        setup = self.setup
        self._c = SimpleNamespace(
            signal_w=memoryview(setup.signal_w),
            audible=memoryview(setup.rssi_dbm >= setup.sensitivity_dbm),
            lone_per=memoryview(setup.per_table.lookup(10.0 * np.log10(setup.signal_w / setup.noise_w))),
            retry_hi=memoryview(self._retry_hi),
            poll_success_prob=None if setup.poll_success_prob is None else memoryview(setup.poll_success_prob),
        )
        self._lat_ids: list[int] = []
        self._lat_vals: list[float] = []
        # The calendar: one slot per epoch and queue (two pointers per epoch
        # of the horizon), None until a device is queued there, then a list
        # of device ids.
        self._arrivals: list[list[int] | None] = [None] * setup.num_epochs
        self._attempts: list[list[int] | None] = [None] * setup.num_epochs
        self._cursor = 0
        self._last_tx_epoch = -2
        self.epochs_processed = 0
        self.busy_epochs = 0
        self.transmissions_resolved = 0
        self.epoch_trace: list[int] = [] if record_epochs else None

    # -------------------------------------------------------------- calendar
    def _push(self, slots: list, epoch: int, ids: list[int]) -> None:
        """Queue every device of *ids* at *epoch* (beyond the horizon: dropped)."""
        if epoch >= self.setup.num_epochs or not ids:
            return
        slot = slots[epoch]
        if slot is None:
            slots[epoch] = list(ids)
        else:
            slot.extend(ids)

    def _push_each(self, slots: list, epochs: list[int], ids: list[int]) -> None:
        """Queue device ``ids[j]`` at epoch ``epochs[j]`` for every ``j`` (same horizon rule)."""
        horizon = self.setup.num_epochs
        for epoch, device in zip(epochs, ids, strict=True):
            if epoch < horizon:
                slot = slots[epoch]
                if slot is None:
                    slots[epoch] = [device]
                else:
                    slot.append(device)

    def _pop(self, slots: list, epoch: int) -> list[int]:
        """Empty *epoch*'s slot; returns its device ids in ascending order."""
        slot = slots[epoch]
        if slot is None:
            return []
        slots[epoch] = None
        slot.sort()
        return slot

    def _next_epoch(self) -> int | None:
        """First epoch at or after the cursor with a queued device.

        The cursor rests on the epoch last returned, so a device queued into
        that epoch while it was processed gets it processed once more.
        """
        arrivals, attempts = self._arrivals, self._attempts
        for epoch in range(self._cursor, self.setup.num_epochs):
            if arrivals[epoch] is not None or attempts[epoch] is not None:
                self._cursor = epoch
                return epoch
        return None

    # ------------------------------------------------------------ scheduling
    def _draw_epochs(self, base: int, lo: int, his: list[int] | np.ndarray) -> list[int]:
        """Epoch ``base + integers(lo, h)`` for each upper bound ``h`` of *his*, in order.

        Up to :data:`SCALAR_DRAWS_MAX` bounds draw as scalar calls, more as
        one array-bound call; both give the same values and leave the
        generator in the same state.
        """
        if len(his) <= SCALAR_DRAWS_MAX:
            integers = self.rng.integers
            return [base + int(integers(lo, h)) for h in his]
        return (base + self.rng.integers(lo, his)).tolist()

    def _schedule_access(self, epoch: int, ids: list[int]) -> None:
        """Initial-access scheduling for freshly exposed queue heads (ascending ids)."""
        if not ids:
            return
        name = self.params.name
        if name in ("aloha", "slotted_aloha"):
            self._push(self._attempts, epoch + 1, ids)
        elif name == "csma":  # a queue head always starts at BE = min_be
            width = self.rng.integers(0, 2**self.params.min_be, size=len(ids))
            self._push_each(self._attempts, (epoch + 1 + width).tolist(), ids)
        else:  # tdma: wait for the next owned epoch (device_id % num_slots)
            slots = self.params.num_slots
            self._push_each(self._attempts, [epoch + 1 + (i % slots - epoch - 1) % slots for i in ids], ids)

    def _backoff(self, epoch: int, ids: list[int]) -> None:
        """CSMA: escalate the backoff exponent of each device, then draw its next attempt."""
        max_be = self.params.max_be
        if _per_device(len(ids)):
            be = self._v.be
            his = []
            for i in ids:
                exponent = min(be[i] + 1, max_be)
                be[i] = exponent
                his.append(2**exponent)
        else:
            index = np.array(ids, dtype=np.int64)
            exponents = np.minimum(self.be[index] + 1, max_be)
            self.be[index] = exponents
            his = 2**exponents
        self._push_each(self._attempts, self._draw_epochs(epoch + 1, 0, his), ids)

    def _pop_head(self, device: int) -> bool:
        """Remove the device's head packet; True when more are queued."""
        v = self._v
        v.head[device] = (v.head[device] + 1) % self.params.queue_limit
        left = v.queue_len[device] - 1
        v.queue_len[device] = left
        v.head_attempts[device] = 0
        if self.params.name == "csma":
            v.be[device] = self.params.min_be
            v.cca_fails[device] = 0
        return left > 0

    # ------------------------------------------------------------ bulk steps
    # Each walks its ascending ids in plain Python or hands them to numpy by
    # their count (see PER_DEVICE_MAX); the losers take the medium's form.
    def _duty_gate(self, epoch: int, t_end: float, ready: list[int]) -> list[int]:
        """Defer, without a draw, each contender whose attempt would overrun its duty cycle."""
        budget = self.params.duty_cycle * t_end
        air_time_s = self.setup.air_time_s
        if _per_device(len(ready)):
            used = self._v.airtime_used
            allowed, blocked = [], []
            for i in ready:
                (allowed if used[i] + air_time_s <= budget else blocked).append(i)
        else:
            index = np.array(ready, dtype=np.int64)
            fits = self.airtime_used[index] + air_time_s <= budget
            allowed, blocked = index[fits].tolist(), index[~fits].tolist()
        self._push(self._attempts, epoch + 1, blocked)
        return allowed

    def _sense(self, epoch: int, ready: list[int]) -> list[int]:
        """CSMA after a busy epoch: one carrier-sense draw per contender.

        A contender that detects the carrier counts a CCA failure and backs
        off, or drops its head above ``max_cca_attempts``; returns the ones
        that sensed the medium clear.
        """
        p = self.params
        v = self._v
        draws = self.rng.random(len(ready))
        if _per_device(len(ready)):
            cca_fails, reliability, max_fails = v.cca_fails, p.cca_reliability, p.max_cca_attempts
            clear, defer, aborts = [], [], []
            for i, u in zip(ready, draws.tolist(), strict=True):
                if u < reliability:
                    fails = cca_fails[i] + 1
                    cca_fails[i] = fails
                    (aborts if fails > max_fails else defer).append(i)
                else:
                    cca_fails[i] = 0
                    clear.append(i)
        else:
            index = np.array(ready, dtype=np.int64)
            detected = draws < p.cca_reliability
            clear = index[~detected]
            self.cca_fails[clear] = 0
            busy = index[detected]
            fails = self.cca_fails[busy] + 1
            self.cca_fails[busy] = fails
            aborting = fails > p.max_cca_attempts
            clear, defer, aborts = clear.tolist(), busy[~aborting].tolist(), busy[aborting].tolist()
        if defer:
            self._backoff(epoch, defer)
        heads = []
        for i in aborts:
            v.dropped_ct[i] += 1
            if self._pop_head(i):
                heads.append(i)
        self._schedule_access(epoch, heads)
        return clear

    def _poll(self, epoch: int, ready: list[int]) -> list[int]:
        """TDMA: one poll draw per contender; a missed poll waits a superframe."""
        draws = self.rng.random(len(ready))
        if _per_device(len(ready)):
            prob = self._c.poll_success_prob
            polled, missed = [], []
            for i, u in zip(ready, draws.tolist(), strict=True):
                (polled if u < prob[i] else missed).append(i)
        else:
            index = np.array(ready, dtype=np.int64)
            heard = draws < self.setup.poll_success_prob[index]
            polled, missed = index[heard].tolist(), index[~heard].tolist()
        self._push(self._attempts, epoch + self.params.num_slots, missed)
        return polled

    def _settle_losers(self, epoch: int, lost: list[int] | np.ndarray, heads: list[int]) -> None:
        """Count each loser's attempt; heads at ``max_attempts`` drop, the rest draw a retry.

        *lost* keeps the form the medium step chose for the epoch's
        transmitters: an id list walked device by device, or their index
        array.  A dropping device with more packets queued joins *heads*.
        """
        p = self.params
        air_time_s = self.setup.air_time_s
        if isinstance(lost, list):
            v, retry_hi, max_attempts = self._v, self._c.retry_hi, p.max_attempts
            attempted, airtime_used, head_attempts = v.attempted_ct, v.airtime_used, v.head_attempts
            retry, his = [], []
            for i in lost:
                attempted[i] += 1
                airtime_used[i] += air_time_s
                attempts = head_attempts[i] + 1
                head_attempts[i] = attempts
                if attempts < max_attempts:
                    retry.append(i)
                    his.append(retry_hi[min(attempts, MAX_BACKOFF_EXPONENT + 1)])
                else:
                    v.dropped_ct[i] += 1
                    if self._pop_head(i):
                        heads.append(i)
        else:
            index = lost
            self.attempted_ct[index] += 1
            self.airtime_used[index] += air_time_s
            attempts = self.head_attempts[index] + 1
            self.head_attempts[index] = attempts
            exhausted = attempts >= p.max_attempts
            drops = index[exhausted]
            if drops.size:
                self.dropped_ct[drops] += 1
                heads += [i for i in drops.tolist() if self._pop_head(i)]
                index, attempts = index[~exhausted], attempts[~exhausted]
            retry = index.tolist()
            his = self._retry_hi[np.minimum(attempts, MAX_BACKOFF_EXPONENT + 1)]
        if not retry:
            return
        if p.name == "aloha":
            self._push_each(self._attempts, self._draw_epochs(epoch + 1, 0, his), retry)
        elif p.name == "slotted_aloha":
            self._push_each(self._attempts, self._draw_epochs(epoch, 1, his), retry)
        elif p.name == "csma":
            self._backoff(epoch, retry)
        else:  # tdma: retry in the next owned slot
            self._push(self._attempts, epoch + p.num_slots, retry)

    # ----------------------------------------------------------------- phases
    def _start(self) -> None:
        n = self.scenario.num_devices
        # In place: the element views share this array's buffer.
        self.next_arrival_s[:] = self.rng.uniform(0.0, self.setup.profile.period_s, n)
        epochs = (self.next_arrival_s / self.setup.epoch_s).astype(np.int64)
        self._push_each(self._arrivals, epochs.tolist(), range(n))

    def _run_epoch(self, epoch: int) -> None:
        if self.epoch_trace is not None:
            self.epoch_trace.append(epoch)
        self.epochs_processed += 1
        p = self.params
        setup = self.setup
        v = self._v
        t_end = (epoch + 1) * setup.epoch_s

        # Phase 1: arrivals, device by device in rounds of ascending id with
        # one jitter draw per round.  An epoch sees about the offered load
        # in arrivals, a handful, which Python handles faster than numpy calls.
        active = self._pop(self._arrivals, epoch)
        fresh = [i for i in active if v.queue_len[i] == 0]
        profile = setup.profile
        limit = p.queue_limit
        while active:
            # uniform(-1, 1, k) is -1 + 2 * random(k), same values and state.
            jitters = [-1.0 + 2.0 * u for u in self.rng.random(len(active)).tolist()]
            due, settled, epochs = [], [], []
            for device, jitter in zip(active, jitters, strict=True):
                t_arr = v.next_arrival_s[device]
                v.generated_ct[device] += profile.burst_size
                for _ in range(profile.burst_size):
                    queued = v.queue_len[device]
                    if queued < limit:
                        v.created[device, (v.head[device] + queued) % limit] = t_arr
                        v.queue_len[device] = queued + 1
                    else:
                        v.queue_dropped_ct[device] += 1
                upcoming = t_arr + profile.period_s * (1.0 + profile.jitter_fraction * jitter)
                v.next_arrival_s[device] = upcoming
                if upcoming < t_end:
                    due.append(device)
                else:
                    settled.append(device)
                    epochs.append(int(upcoming / setup.epoch_s))
            self._push_each(self._arrivals, epochs, settled)
            active = due

        # Phase 2: initial access for queues that went empty -> non-empty.
        self._schedule_access(epoch, fresh)

        # Phase 3: contention over the ascending id list the calendar holds.
        ready = self._pop(self._attempts, epoch)
        if p.duty_cycle < 1.0 and ready:
            ready = self._duty_gate(epoch, t_end, ready)
        if p.name == "csma" and ready and self._last_tx_epoch == epoch - 1:
            ready = self._sense(epoch, ready)
        elif p.name == "tdma" and ready:
            ready = self._poll(epoch, ready)

        # Phase 4: at most one capture.  A transmitter that clears the
        # capture threshold carries over 10x the power of all the others
        # combined, so only the strongest of the k can be delivered: one
        # SINR and one PER lookup decide it, the others are certain losses
        # whose delivery draws are still consumed.
        k = len(ready)
        if k == 0:
            return
        self._last_tx_epoch = epoch
        self.busy_epochs += 1
        self.transmissions_resolved += k
        c = self._c
        if k == 1:
            winner = ready[0]
            per = c.lone_per[winner]
            v.lone_ct[winner] += 1
            draw = self.rng.random()
        else:
            if _per_device(k):
                signal_w = [c.signal_w[i] for i in ready]
            else:  # one index array serves the medium and the losers
                ready = np.array(ready, dtype=np.int64)
                signal_w = setup.signal_w[ready]
            strongest, sinr_db = _strongest_sinr_db(signal_w, setup.noise_w)
            per = setup.per_table.lookup(sinr_db) if sinr_db >= CAPTURE_THRESHOLD_DB else 1.0
            draw = self.rng.random(k)[strongest]
            winner = int(ready[strongest])

        # Phase 5: outcomes, each transmitter's attempt counted with it.
        heads = []
        if c.audible[winner] and draw > per:
            v.attempted_ct[winner] += 1
            v.airtime_used[winner] += setup.air_time_s
            v.delivered_ct[winner] += 1
            self._lat_ids.append(winner)
            self._lat_vals.append(t_end - v.created[winner, v.head[winner]])
            if self._pop_head(winner):
                heads.append(winner)
            # The rest are the losers.
            if isinstance(ready, list):
                ready.remove(winner)
            else:
                ready = ready[ready != winner]
        if len(ready):
            self._settle_losers(epoch, ready, heads)
        heads.sort()
        self._schedule_access(epoch, heads)

    # -------------------------------------------------------------------- run
    def pending_packets(self) -> int:
        """Packets still queued (in flight) at the horizon."""
        return int(self.queue_len.sum())

    def run(self) -> FleetMetrics:
        """Execute the scenario and return the collected metrics."""
        with obs.span(
            "netsim.batched.run",
            profile=self.setup.profile.name,
            devices=self.scenario.num_devices,
            mac=self.params.name,
            engine="batched",
            horizon_epochs=self.setup.num_epochs,
        ):
            self._start()
            while True:
                epoch = self._next_epoch()
                if epoch is None:
                    break
                self._run_epoch(epoch)
            metrics = self._materialise()
        obs.count("netsim.batched.epochs", self.epochs_processed)
        obs.count("netsim.batched.resolved", self.transmissions_resolved)
        if self.busy_epochs:
            obs.gauge(
                "netsim.batched.mean_tx_per_busy_epoch",
                self.transmissions_resolved / self.busy_epochs,
            )
        return metrics

    def _materialise(self) -> FleetMetrics:
        metrics = FleetMetrics()
        n = self.scenario.num_devices
        if self._lat_ids:
            lat_dev = np.array(self._lat_ids, dtype=np.int64)
            lat_val = np.array(self._lat_vals, dtype=float)
            order = np.argsort(lat_dev, kind="stable")
            lat_val = lat_val[order]
            counts = np.bincount(lat_dev, minlength=n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
        else:
            lat_val = np.empty(0)
            offsets = np.zeros(n + 1, dtype=np.int64)
        name = self.setup.profile.name
        psdu = self.setup.psdu_bytes
        rssi = self.setup.rssi_dbm.tolist()
        generated = self.generated_ct.tolist()
        queue_dropped = self.queue_dropped_ct.tolist()
        attempted = self.attempted_ct.tolist()
        collided = (self.attempted_ct - self.lone_ct).tolist()  # every attempt made alongside another
        delivered = self.delivered_ct.tolist()
        dropped = self.dropped_ct.tolist()
        for i in range(n):
            stats = metrics.add_device(i, name, rssi[i])
            stats.generated = generated[i]
            stats.queue_dropped = queue_dropped[i]
            stats.attempted = attempted[i]
            stats.collided = collided[i]
            stats.delivered = delivered[i]
            stats.dropped = dropped[i]
            stats.bytes_delivered = delivered[i] * psdu
            if offsets[i] != offsets[i + 1]:
                stats.latencies_s = lat_val[offsets[i] : offsets[i + 1]].tolist()
        metrics.finalize(
            duration_s=self.scenario.duration_s,
            busy_time_s=self.busy_epochs * self.setup.epoch_s,
            airtime_s=float(self.attempted_ct.sum()) * self.setup.air_time_s,
        )
        return metrics


class EpochReferenceSimulator:
    """Scalar oracle for the epoch contract: per-device loops, scalar draws.

    Written independently of :class:`BatchedFleetSimulator` on purpose — it
    keeps per-device state in Python scalars and deques and draws from the
    RNG one value at a time, in the documented ascending-device order.  The
    differential suite asserts its per-device counters are bit-identical to
    the vectorised engine's on every MAC; any contract drift between the two
    implementations breaks that equality.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        epoch_s: float | None = None,
        record_epochs: bool = False,
    ) -> None:
        self.scenario = scenario
        self.setup = _EpochSetup(scenario, epoch_s=epoch_s)
        self.params = resolve_epoch_mac(scenario, self.setup.epoch_s)
        self.rng = np.random.default_rng(scenario.seed)
        n = scenario.num_devices
        self.queues: list[deque] = [deque() for _ in range(n)]
        self.head_attempts = [0] * n
        self.be = [self.params.min_be] * n
        self.cca_fails = [0] * n
        self.airtime_used = [0.0] * n
        self.next_arrival_s = [0.0] * n
        self.metrics = FleetMetrics()
        for i in range(n):
            self.metrics.add_device(
                i, self.setup.profile.name, float(self.setup.rssi_dbm[i])
            )
        self._attempt_buckets: dict[int, list[int]] = {}
        self._arrival_buckets: dict[int, list[int]] = {}
        self._epoch_heap: list[int] = []
        self._last_tx_epoch = -2
        self.epochs_processed = 0
        self.busy_epochs = 0
        self.transmissions_resolved = 0
        self.epoch_trace: list[int] = [] if record_epochs else None

    # --------------------------------------------------------------- buckets
    def _push(self, buckets: dict, epoch: int, device: int) -> None:
        if epoch >= self.setup.num_epochs:
            return
        entry = buckets.get(epoch)
        if entry is None:
            buckets[epoch] = [device]
            heapq.heappush(self._epoch_heap, epoch)
        else:
            entry.append(device)

    def _pop_bucket(self, buckets: dict, epoch: int) -> list[int]:
        return sorted(buckets.pop(epoch, []))

    def _next_epoch(self) -> int | None:
        while self._epoch_heap:
            epoch = heapq.heappop(self._epoch_heap)
            if epoch in self._arrival_buckets or epoch in self._attempt_buckets:
                return epoch
        return None

    # ------------------------------------------------------------ scheduling
    def _schedule_access(self, epoch: int, device: int) -> None:
        name = self.params.name
        if name in ("aloha", "slotted_aloha"):
            self._push(self._attempt_buckets, epoch + 1, device)
        elif name == "csma":
            width = int(self.rng.integers(0, 2 ** self.be[device]))
            self._push(self._attempt_buckets, epoch + 1 + width, device)
        else:
            slot = device % self.params.num_slots
            nxt = epoch + 1 + ((slot - (epoch + 1)) % self.params.num_slots)
            self._push(self._attempt_buckets, nxt, device)

    def _pop_head(self, device: int) -> bool:
        """Remove the device's head packet; True when more are queued."""
        self.queues[device].popleft()
        self.head_attempts[device] = 0
        if self.params.name == "csma":
            self.be[device] = self.params.min_be
            self.cca_fails[device] = 0
        return bool(self.queues[device])

    # ----------------------------------------------------------------- phases
    def _start(self) -> None:
        for i in range(self.scenario.num_devices):
            arrival = float(self.rng.uniform(0.0, self.setup.profile.period_s))
            self.next_arrival_s[i] = arrival
            self._push(self._arrival_buckets, int(arrival / self.setup.epoch_s), i)

    def _run_epoch(self, epoch: int) -> None:
        if self.epoch_trace is not None:
            self.epoch_trace.append(epoch)
        self.epochs_processed += 1
        p = self.params
        setup = self.setup
        t_end = (epoch + 1) * setup.epoch_s
        profile = setup.profile

        # Phase 1: arrivals in rounds of ascending device id.
        active = self._pop_bucket(self._arrival_buckets, epoch)
        fresh = [i for i in active if not self.queues[i]]
        while active:
            following = []
            for i in active:
                stats = self.metrics.devices[i]
                t_arr = self.next_arrival_s[i]
                for _ in range(profile.burst_size):
                    stats.generated += 1
                    if len(self.queues[i]) >= p.queue_limit:
                        stats.queue_dropped += 1
                    else:
                        self.queues[i].append(t_arr)
                jitter = float(self.rng.uniform(-1.0, 1.0))
                self.next_arrival_s[i] = t_arr + profile.period_s * (
                    1.0 + profile.jitter_fraction * jitter
                )
                if self.next_arrival_s[i] < t_end:
                    following.append(i)
                else:
                    self._push(
                        self._arrival_buckets,
                        int(self.next_arrival_s[i] / setup.epoch_s),
                        i,
                    )
            active = following

        # Phase 2: initial access for queues that went empty -> non-empty.
        for i in fresh:
            self._schedule_access(epoch, i)

        # Phase 3: contention.
        ready = self._pop_bucket(self._attempt_buckets, epoch)
        if p.duty_cycle < 1.0 and ready:
            allowed = []
            for i in ready:
                if self.airtime_used[i] + setup.air_time_s <= p.duty_cycle * t_end:
                    allowed.append(i)
                else:
                    self._push(self._attempt_buckets, epoch + 1, i)
            ready = allowed
        if p.name == "csma" and ready and self._last_tx_epoch == epoch - 1:
            clear, defers, aborts = [], [], []
            for i in ready:
                if float(self.rng.random()) < p.cca_reliability:
                    self.cca_fails[i] += 1
                    if self.cca_fails[i] > p.max_cca_attempts:
                        aborts.append(i)
                    else:
                        defers.append(i)
                else:
                    self.cca_fails[i] = 0
                    clear.append(i)
            for i in defers:
                self.be[i] = min(self.be[i] + 1, p.max_be)
                width = int(self.rng.integers(0, 2 ** self.be[i]))
                self._push(self._attempt_buckets, epoch + 1 + width, i)
            abort_heads = []
            for i in aborts:
                self.metrics.devices[i].dropped += 1
                if self._pop_head(i):
                    abort_heads.append(i)
            for i in abort_heads:
                self._schedule_access(epoch, i)
            ready = clear
        elif p.name == "tdma" and ready:
            polled = []
            for i in ready:
                if float(self.rng.random()) < float(setup.poll_success_prob[i]):
                    polled.append(i)
                else:
                    self._push(self._attempt_buckets, epoch + p.num_slots, i)
            ready = polled

        # Phase 4: medium resolution over the k transmitters.
        k = len(ready)
        if k == 0:
            return
        self._last_tx_epoch = epoch
        self.busy_epochs += 1
        self.transmissions_resolved += k
        total_w = float(np.sum(setup.signal_w[np.asarray(ready, dtype=np.int64)]))
        fates = []
        for i in ready:
            stats = self.metrics.devices[i]
            stats.attempted += 1
            self.head_attempts[i] += 1
            self.airtime_used[i] += setup.air_time_s
            signal = setup.signal_w[i]
            interference = max(total_w - signal, 0.0)
            sinr_db = 10.0 * np.log10(signal / (setup.noise_w + interference))
            per = setup.per_table.lookup(sinr_db)
            if k >= 2:
                if sinr_db < CAPTURE_THRESHOLD_DB:
                    per = 1.0
                stats.collided += 1
            fates.append((i, per))
        won, lost = [], []
        for i, per in fates:
            draw = float(self.rng.random())
            if setup.rssi_dbm[i] >= setup.sensitivity_dbm and draw > per:
                won.append(i)
            else:
                lost.append(i)

        # Phase 5: outcomes — delivered pops, drops, retry draws, new heads.
        new_heads = []
        for i in won:
            stats = self.metrics.devices[i]
            stats.delivered += 1
            stats.bytes_delivered += setup.psdu_bytes
            stats.latencies_s.append(t_end - self.queues[i][0])
            if self._pop_head(i):
                new_heads.append(i)
        retries = []
        for i in lost:
            if self.head_attempts[i] >= p.max_attempts:
                self.metrics.devices[i].dropped += 1
                if self._pop_head(i):
                    new_heads.append(i)
            else:
                retries.append(i)
        for i in retries:
            if p.name == "aloha":
                expo = min(self.head_attempts[i] - 1, MAX_BACKOFF_EXPONENT)
                width = int(self.rng.integers(0, p.base_backoff_epochs * 2**expo))
                self._push(self._attempt_buckets, epoch + 1 + width, i)
            elif p.name == "slotted_aloha":
                expo = min(self.head_attempts[i], MAX_BACKOFF_EXPONENT)
                ahead = int(self.rng.integers(1, 2**expo + 1))
                self._push(self._attempt_buckets, epoch + ahead, i)
            elif p.name == "csma":
                self.be[i] = min(self.be[i] + 1, p.max_be)
                width = int(self.rng.integers(0, 2 ** self.be[i]))
                self._push(self._attempt_buckets, epoch + 1 + width, i)
            else:
                self._push(self._attempt_buckets, epoch + p.num_slots, i)
        for i in sorted(new_heads):
            self._schedule_access(epoch, i)

    # -------------------------------------------------------------------- run
    def pending_packets(self) -> int:
        """Packets still queued (in flight) at the horizon."""
        return sum(len(q) for q in self.queues)

    def run(self) -> FleetMetrics:
        """Execute the scenario and return the collected metrics."""
        with obs.span(
            "netsim.batched.run",
            profile=self.setup.profile.name,
            devices=self.scenario.num_devices,
            mac=self.params.name,
            engine="reference",
            horizon_epochs=self.setup.num_epochs,
        ):
            self._start()
            while True:
                epoch = self._next_epoch()
                if epoch is None:
                    break
                self._run_epoch(epoch)
            attempted = sum(s.attempted for s in self.metrics.devices.values())
            self.metrics.finalize(
                duration_s=self.scenario.duration_s,
                busy_time_s=self.busy_epochs * self.setup.epoch_s,
                airtime_s=attempted * self.setup.air_time_s,
            )
        obs.count("netsim.batched.epochs", self.epochs_processed)
        obs.count("netsim.batched.resolved", self.transmissions_resolved)
        return self.metrics


#: Engine name -> epoch simulator class (the heap engine lives in fleet.py).
EPOCH_ENGINES = {
    "batched": BatchedFleetSimulator,
    "reference": EpochReferenceSimulator,
}


def simulate(
    scenario: FleetScenario, *, epoch_s: float | None = None
) -> FleetMetrics:
    """Run *scenario* under the engine its ``engine`` field names.

    ``"scalar"`` dispatches to the continuous-time heap engine
    (:class:`~repro.netsim.fleet.FleetSimulator`); ``"batched"`` and
    ``"reference"`` to the epoch engines of this module (``epoch_s``
    applies only to those).
    """
    if scenario.engine in EPOCH_ENGINES:
        return EPOCH_ENGINES[scenario.engine](scenario, epoch_s=epoch_s).run()
    return FleetSimulator(scenario).run()
