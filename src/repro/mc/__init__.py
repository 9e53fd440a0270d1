"""``repro.mc`` — the batched Monte-Carlo PHY engine.

Two layers, each usable on its own:

* **Batched kernels** (:mod:`repro.mc.viterbi`, :mod:`repro.mc.kernels`):
  numpy-vectorised, bit-exact counterparts of the scalar 802.11 PHY blocks —
  trellis-batched hard-decision Viterbi, constellation (de)mapping, block
  (de)interleaving, scrambling and (de)puncturing over ``[N, L]`` batches.
* **Sweep driver** (:mod:`repro.mc.sweep`, :mod:`repro.mc.channel`):
  :func:`run_sweep` evaluates whole batches of Monte-Carlo trials per
  operating point; the channel helpers evaluate arrays of link-budget
  realisations in one call.
"""

from repro.mc.channel import BatchLinkResult, backscatter_link_batch
from repro.mc.kernels import (
    deinterleave_batch,
    demap_batch,
    depuncture_batch,
    interleave_batch,
    map_batch,
    puncture_batch,
    scramble_batch,
)
from repro.mc.sweep import (
    CodedOfdmPipeline,
    SweepResult,
    run_sweep,
)
from repro.mc.viterbi import BatchViterbiDecoder, encode_batch

__all__ = [
    "BatchLinkResult",
    "backscatter_link_batch",
    "deinterleave_batch",
    "demap_batch",
    "depuncture_batch",
    "interleave_batch",
    "map_batch",
    "puncture_batch",
    "scramble_batch",
    "CodedOfdmPipeline",
    "SweepResult",
    "run_sweep",
    "BatchViterbiDecoder",
    "encode_batch",
]
