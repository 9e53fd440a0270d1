"""Whole-batch link-budget evaluation for Monte-Carlo sweeps.

:class:`repro.channel.link_budget.BackscatterLinkBudget` evaluates one link
realisation at a time (two scalar shadowing draws per call).  The helpers
here evaluate *arrays* of link realisations in one shot: the same dB-domain
budget arithmetic, with the log-normal shadowing of every hop drawn as one
vectorised ``rng.normal(size=...)``.  Statistics are identical to looping
the scalar evaluator; only the RNG consumption order differs, which is why
the experiments expose both engines (``scalar`` for bit-reproducibility of
historical seeds, ``batch`` for speed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link_budget import BackscatterLinkBudget
from repro.channel.tissue import tissue_attenuation_db
from repro.obs import metrics as obs

__all__ = ["BatchLinkResult", "backscatter_link_batch"]


@dataclass(frozen=True)
class BatchLinkResult:
    """Vectorised counterpart of ``BackscatterLinkResult``.

    Attributes
    ----------
    rssi_dbm / incident_power_dbm / snr_db / detectable:
        Arrays, one entry per link realisation.
    """

    rssi_dbm: np.ndarray
    incident_power_dbm: np.ndarray
    snr_db: np.ndarray
    detectable: np.ndarray


def _shadowed_loss_db(
    model,
    distance_m: np.ndarray,
    *,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Path loss for an array of realisations under *model*'s shadowing.

    ``PathLossModel.loss_db`` broadcasts with one independent shadowing draw
    per element, so the batch path is a plain delegation.
    """
    return np.asarray(model.loss_db(np.asarray(distance_m, dtype=float), rng=rng))


def backscatter_link_batch(
    budget: BackscatterLinkBudget,
    source_to_tag_m: np.ndarray | float,
    tag_to_receiver_m: np.ndarray | float,
    *,
    rng: np.random.Generator | None = None,
) -> BatchLinkResult:
    """Evaluate the two-hop budget for arrays of hop distances at once.

    Scalars broadcast, so a fixed source→tag hop with many tag→receiver
    realisations is one call.
    """
    d_in, d_out = np.broadcast_arrays(
        np.asarray(source_to_tag_m, dtype=float), np.asarray(tag_to_receiver_m, dtype=float)
    )
    obs.count("channel.link_realisations", int(d_in.size))
    tissue_loss = 0.0
    if budget.tissue is not None:
        tissue_loss = tissue_attenuation_db(budget.tissue, passes=1)
    incident = (
        budget.source_power_dbm
        + budget.source_antenna.gain_dbi
        - _shadowed_loss_db(budget.path_loss, d_in, rng=rng)
        + budget.tag_antenna.gain_dbi
        - tissue_loss
    )
    reflected = incident - budget.conversion_loss_db
    rssi = (
        reflected
        + budget.tag_antenna.gain_dbi
        - tissue_loss
        - _shadowed_loss_db(budget.path_loss, d_out, rng=rng)
        + budget.receiver_antenna.gain_dbi
    )
    return BatchLinkResult(
        rssi_dbm=rssi,
        incident_power_dbm=incident,
        snr_db=budget.noise.snr_db(rssi),
        detectable=rssi >= budget.receiver_sensitivity_dbm,
    )
