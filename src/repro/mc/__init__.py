"""``repro.mc`` — the batched Monte-Carlo PHY engine.

Three layers, each usable on its own:

* **Batched kernels** (:mod:`repro.mc.viterbi`, :mod:`repro.mc.kernels`):
  numpy-vectorised, bit-exact counterparts of the scalar 802.11 PHY blocks —
  trellis-batched hard-decision Viterbi, constellation (de)mapping, block
  (de)interleaving, scrambling and (de)puncturing over ``[N, L]`` batches.
* **Sweep driver** (:mod:`repro.mc.sweep`, :mod:`repro.mc.channel`):
  :func:`run_sweep` evaluates whole batches of Monte-Carlo trials per
  operating point; the channel helpers evaluate arrays of link-budget
  realisations in one call.
* **Link abstraction** (:mod:`repro.mc.link_abstraction`): memoised
  PER-vs-SINR tables that let the fleet simulator resolve packet outcomes
  by table lookup + Bernoulli draw instead of per-packet PHY work.
"""

from repro.mc.channel import BatchLinkResult, backscatter_link_batch, direct_rssi_batch
from repro.mc.kernels import (
    deinterleave_batch,
    demap_batch,
    depuncture_batch,
    interleave_batch,
    map_batch,
    puncture_batch,
    scramble_batch,
)
from repro.mc.link_abstraction import LinkAbstraction, PerTable
from repro.mc.sweep import (
    AnalyticWifiPerPipeline,
    CodedOfdmPipeline,
    SweepResult,
    run_sweep,
)
from repro.mc.viterbi import BatchViterbiDecoder, encode_batch

__all__ = [
    "BatchLinkResult",
    "backscatter_link_batch",
    "direct_rssi_batch",
    "deinterleave_batch",
    "demap_batch",
    "depuncture_batch",
    "interleave_batch",
    "map_batch",
    "puncture_batch",
    "scramble_batch",
    "LinkAbstraction",
    "PerTable",
    "AnalyticWifiPerPipeline",
    "CodedOfdmPipeline",
    "SweepResult",
    "run_sweep",
    "BatchViterbiDecoder",
    "encode_batch",
]
