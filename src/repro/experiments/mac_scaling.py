"""MAC scaling — fleet size vs delivery for multi-device interscatter.

The paper evaluates one tag per carrier; this driver asks the scaling
question its applications imply: as N contact lenses (or implants, or
cards) share one single-tone carrier, how do the candidate medium-access
policies compare?  For each fleet size and MAC policy it runs one seeded
:class:`~repro.netsim.fleet.FleetScenario` on the netsim engine named by
``engine`` and records delivery ratio, aggregate goodput, attempt-level
PER, medium utilization and median latency.

The engines are netsim's own (:data:`repro.netsim.fleet.ENGINES`): the
continuous-time heap engine with the analytic PHY (``scalar``), and the
epoch-batched engine (``batched``), whose numpy arrays carry the
fleet-size axis into the thousands-of-devices regime (a stadium of
payment cards, a ward of implants), plus its scalar oracle
(``reference``) for bit-for-bit cross-checks at small sizes.

The contention-realism knobs of :class:`repro.netsim.batched.EpochMacParams`
are sweepable too: imperfect CCA detection, the retry ladder's abort
counter and a per-device duty-cycle limit.  Their defaults leave every
engine's numbers unchanged; only the epoch engines model a duty cycle, so
``duty_cycle < 1`` on a heap engine raises
:class:`~repro.exceptions.ConfigurationError`.

The qualitative findings mirror classic MAC analysis: pure ALOHA collapses
first as offered load grows, slotting roughly doubles the usable capacity,
carrier sensing removes attempt-level collisions, and downlink-driven TDMA
polling stays collision-free at every size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import register
from repro.netsim.batched import simulate
from repro.netsim.fleet import ENGINES, FleetScenario
from repro.plots.figure import Figure, Series

__all__ = ["MacScalingResult", "run", "summarize", "DEFAULT_FLEET_SIZES", "DEFAULT_MACS"]

#: Fleet sizes swept by default (1 tag reproduces the paper's setting).
DEFAULT_FLEET_SIZES = (1, 5, 10, 25, 50, 100, 200)

#: MAC policies compared by default.
DEFAULT_MACS = ("aloha", "slotted_aloha", "csma", "tdma")


@dataclass(frozen=True)
class MacScalingResult:
    """Series of the MAC-scaling sweep.

    Attributes
    ----------
    fleet_sizes:
        The swept fleet sizes (x-axis).
    macs:
        Policy names, in sweep order.
    profile / period_s / duration_s / seed:
        Scenario parameters shared by every run.
    duty_cycle / cca_reliability / max_attempts:
        Contention-realism knobs forwarded to every MAC.
    delivery_ratio / throughput_bps / attempt_per / utilization /
    latency_p50_s:
        Policy name → array over fleet sizes.
    """

    fleet_sizes: np.ndarray
    macs: tuple[str, ...]
    profile: str
    period_s: float
    duration_s: float
    seed: int
    duty_cycle: float
    cca_reliability: float
    max_attempts: int
    delivery_ratio: dict[str, np.ndarray]
    throughput_bps: dict[str, np.ndarray]
    attempt_per: dict[str, np.ndarray]
    utilization: dict[str, np.ndarray]
    latency_p50_s: dict[str, np.ndarray]


def run(
    *,
    fleet_sizes: tuple[int, ...] = DEFAULT_FLEET_SIZES,
    macs: tuple[str, ...] = DEFAULT_MACS,
    profile: str = "contact_lens",
    period_s: float = 0.02,
    duration_s: float = 2.0,
    seed: int = 2016,
    duty_cycle: float = 1.0,
    cca_reliability: float = 1.0,
    max_attempts: int = 8,
    engine: str = "scalar",
) -> MacScalingResult:
    """Sweep fleet size × MAC policy and collect the aggregate metrics.

    The default 20 ms packet interval pushes a 200-device fleet well past
    channel saturation so the policies separate; pass a larger ``period_s``
    for a light-load sweep.

    ``engine`` names the netsim engine every scenario runs on (see the
    module docstring).  ``max_attempts`` reaches every MAC,
    ``cca_reliability`` the CSMA one, and ``duty_cycle`` (epoch engines
    only) every MAC when below 1 — see
    :class:`repro.netsim.batched.EpochMacParams` for their semantics.
    """
    series: dict[str, dict[str, list[float]]] = {
        metric: {mac: [] for mac in macs}
        for metric in (
            "delivery_ratio",
            "throughput_bps",
            "attempt_per",
            "utilization",
            "latency_p50_s",
        )
    }
    for mac in macs:
        mac_params = {"max_attempts": max_attempts}
        if duty_cycle != 1.0:  # the heap engines' MACs reject it by name
            mac_params["duty_cycle"] = duty_cycle
        if mac == "csma":  # imperfect carrier sense is a CSMA-only knob
            mac_params["cca_reliability"] = cca_reliability
        for size in fleet_sizes:
            scenario = FleetScenario(
                profile=profile,
                num_devices=size,
                mac=mac,
                duration_s=duration_s,
                period_s=period_s,
                seed=seed,
                engine=engine,
                mac_params=dict(mac_params),
            )
            aggregate = simulate(scenario).aggregate()
            series["delivery_ratio"][mac].append(aggregate.delivery_ratio)
            series["throughput_bps"][mac].append(aggregate.throughput_bps)
            series["attempt_per"][mac].append(aggregate.attempt_per)
            series["utilization"][mac].append(aggregate.utilization)
            series["latency_p50_s"][mac].append(aggregate.latency_p50_s)
    return MacScalingResult(
        fleet_sizes=np.array(fleet_sizes, dtype=int),
        macs=tuple(macs),
        profile=profile,
        period_s=period_s,
        duration_s=duration_s,
        seed=seed,
        duty_cycle=duty_cycle,
        cca_reliability=cca_reliability,
        max_attempts=max_attempts,
        delivery_ratio={m: np.array(v) for m, v in series["delivery_ratio"].items()},
        throughput_bps={m: np.array(v) for m, v in series["throughput_bps"].items()},
        attempt_per={m: np.array(v) for m, v in series["attempt_per"].items()},
        utilization={m: np.array(v) for m, v in series["utilization"].items()},
        latency_p50_s={m: np.array(v) for m, v in series["latency_p50_s"].items()},
    )


def summarize(result: MacScalingResult) -> list[str]:
    """Headline report lines for the CLI and the reproduction script."""
    largest = result.fleet_sizes[-1]
    lines = [
        f"{mac:13s}: delivery {result.delivery_ratio[mac][-1]:.2f} at {largest} devices, "
        f"goodput {result.throughput_bps[mac][-1] / 1e3:.1f} kbps, "
        f"attempt PER {result.attempt_per[mac][-1]:.2f}"
        for mac in result.macs
    ]
    lines.append("expected: ALOHA collapses first, slotting doubles capacity, TDMA polling stays collision-free")
    return lines


def metrics(result: MacScalingResult) -> dict[str, float]:
    """Scalar headline metrics (at the largest fleet) for aggregation."""
    out: dict[str, float] = {}
    for mac in result.macs:
        out[f"delivery_{mac}"] = float(result.delivery_ratio[mac][-1])
        out[f"goodput_kbps_{mac}"] = float(result.throughput_bps[mac][-1] / 1e3)
    return out


def plot(result: MacScalingResult) -> Figure:
    """Declarative figure: delivery ratio per MAC across fleet sizes."""
    return Figure(
        title="MAC scaling — delivery ratio vs fleet size",
        xlabel="Fleet size (devices)",
        ylabel="Delivery ratio",
        series=tuple(
            Series(label=mac, x=result.fleet_sizes, y=result.delivery_ratio[mac])
            for mac in result.macs
        ),
        caption="ALOHA collapses first, slotting doubles capacity, TDMA polling stays collision-free.",
    )


register(
    name="mac_scaling",
    title="MAC scaling — fleet size × MAC policy sweep (beyond the paper)",
    run=run,
    engines=ENGINES,
    fast_params={"fleet_sizes": (1, 5, 10), "duration_s": 0.5},
    summarize=summarize,
    metrics=metrics,
    plot=plot,
)
