"""Link abstraction: cached per-(rate, payload) PER tables over SINR bins.

Large-scale MAC simulators stay tractable by *not* evaluating a channel
error model per packet: the PHY is abstracted into a PER-vs-SINR table built
once per link class, and each packet outcome becomes one table lookup plus
one Bernoulli draw.  :class:`LinkAbstraction` implements exactly that for
the fleet simulator — tables are built lazily from the vectorised
:mod:`repro.mc` error-model kernels (exact closed form by default, optional
Monte-Carlo via :func:`repro.mc.sweep.run_sweep`), memoised per
``(rate_mbps, payload_bytes)``, and looked up by linear interpolation on the
SINR grid.

The approximation is valid whenever the analytic AWGN PER model itself is —
i.e. for the synthesized 802.11b packets whose fate the fleet medium already
judges analytically; the table only discretises the SINR axis (default
0.25 dB bins, well below the dB-scale granularity of the underlying model).
Exact per-packet evaluation remains the default; the table is opt-in via
``SharedMedium(link_abstraction=...)`` or ``FleetScenario(engine="fast_path")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.channel.error_models import wifi_packet_error_rate
from repro.mc.sweep import AnalyticWifiPerPipeline, run_sweep
from repro.obs import metrics as obs
from repro.utils.dsp import scalar_or_array

__all__ = ["PerTable", "LinkAbstraction"]


@dataclass(frozen=True)
class PerTable:
    """One memoised PER-vs-SINR curve.

    Attributes
    ----------
    sinr_db:
        Bin centres (ascending).
    per:
        Packet error rate at each bin centre.
    rate_mbps / payload_bytes:
        Link class the table describes.
    """

    sinr_db: np.ndarray
    per: np.ndarray
    rate_mbps: float
    payload_bytes: int

    def lookup(self, sinr_db: float | np.ndarray) -> float | np.ndarray:
        """Interpolated PER; SINRs outside the grid clamp to the edge bins."""
        value = np.interp(np.asarray(sinr_db, dtype=float), self.sinr_db, self.per)
        return scalar_or_array(value, sinr_db)


class LinkAbstraction:
    """Lazily built, memoised PER tables for the netsim fast path.

    Parameters
    ----------
    sinr_min_db / sinr_max_db / bin_width_db:
        SINR grid.  Below the grid PER clamps to the (≈1.0) lowest-bin
        value, above it to the (≈0.0) highest-bin value.
    mc_trials:
        0 (default) evaluates the closed-form PER at the bin centres in one
        vectorised call; a positive value estimates each bin by Monte-Carlo
        through :func:`repro.mc.sweep.run_sweep` instead.
    seed:
        Seed of the Monte-Carlo estimator (unused when ``mc_trials == 0``).
    """

    def __init__(
        self,
        *,
        sinr_min_db: float = -15.0,
        sinr_max_db: float = 40.0,
        bin_width_db: float = 0.25,
        mc_trials: int = 0,
        seed: int = 2016,
    ) -> None:
        if sinr_max_db <= sinr_min_db:
            raise ConfigurationError("sinr_max_db must exceed sinr_min_db")
        if bin_width_db <= 0:
            raise ConfigurationError("bin_width_db must be positive")
        self.sinr_grid_db = np.arange(sinr_min_db, sinr_max_db + bin_width_db, bin_width_db)
        self.mc_trials = mc_trials
        self.seed = seed
        self._tables: dict[tuple[float, int], PerTable] = {}
        self.tables_built = 0
        self.lookups = 0

    def table(self, *, rate_mbps: float, payload_bytes: int) -> PerTable:
        """The (lazily built) PER table for one link class."""
        key = (float(rate_mbps), int(payload_bytes))
        cached = self._tables.get(key)
        if cached is None:
            cached = self._build(rate_mbps=key[0], payload_bytes=key[1])
            self._tables[key] = cached
            self.tables_built += 1
            obs.count("mc.link_abstraction.tables_built")
        return cached

    def per(self, sinr_db: float, *, rate_mbps: float, payload_bytes: int) -> float:
        """Table-lookup PER for one packet outcome."""
        self.lookups += 1
        obs.count("mc.link_abstraction.lookups")
        return self.table(rate_mbps=rate_mbps, payload_bytes=payload_bytes).lookup(sinr_db)

    def per_array(
        self, sinr_db: np.ndarray, *, rate_mbps: float, payload_bytes: int
    ) -> np.ndarray:
        """Vectorised lookup for a batch of SINRs of the same link class."""
        self.lookups += int(np.size(sinr_db))
        obs.count("mc.link_abstraction.lookups", int(np.size(sinr_db)))
        return np.asarray(
            self.table(rate_mbps=rate_mbps, payload_bytes=payload_bytes).lookup(sinr_db)
        )

    # ------------------------------------------------------------- internals
    def _build(self, *, rate_mbps: float, payload_bytes: int) -> PerTable:
        if self.mc_trials > 0:
            sweep = run_sweep(
                self.sinr_grid_db,
                self.mc_trials,
                AnalyticWifiPerPipeline(rate_mbps=rate_mbps, payload_bytes=payload_bytes),
                seed=self.seed,
            )
            per = sweep.error_rate
        else:
            per = np.asarray(
                wifi_packet_error_rate(
                    self.sinr_grid_db, rate_mbps=rate_mbps, payload_bytes=payload_bytes
                )
            )
        return PerTable(
            sinr_db=self.sinr_grid_db,
            per=per,
            rate_mbps=float(rate_mbps),
            payload_bytes=int(payload_bytes),
        )
