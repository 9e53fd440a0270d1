"""``repro.fabric`` — the distributed campaign execution fabric.

The single-machine campaign runner (``Runner(jobs=N)`` over a
``ProcessPoolExecutor``) grows here into a multi-machine fabric, in
three pieces that compose through the existing store format:

* **Code-aware resume** (:mod:`repro.fabric.cas`): every envelope
  records a digest of the source text of the whole ``repro`` package,
  and a stored envelope is reused only when its invocation and that
  digest both match — stored results survive until any module changes,
  a driver or a module it imports, a comment included, so ``run --all``
  at full fidelity becomes incremental.
* **Deterministic shard slicing** (:mod:`repro.fabric.slicing`):
  ``specs[I::N]`` strides over the expanded batch — seeds are fixed
  before slicing, so any (I, N) decomposition merged back together is
  bit-identical to a serial run.  ``python -m repro run --specs grid
  --shard-index I --shard-count N`` is the CLI surface.
* **Remote fan-in** (:mod:`repro.fabric.remote` +
  :mod:`repro.fabric.manifest`): ``ResultStore.merge`` ingests
  ``file://`` shard URIs (torn-line tolerant, deduplicated by result
  key), and the strict-JSON campaign manifest proves at merge time that
  N shards reassemble one grid.

The nightly full-fidelity workflow is the capstone consumer: an N-job
matrix each executing one slice, a fan-in job combining manifests,
merging stores and publishing the nightly ``EXPERIMENTS.md`` +
``FIGURES.md`` beside the committed fast-campaign documents.
"""

from repro.fabric.cas import driver_source_hash
from repro.fabric.manifest import (
    MANIFEST_VERSION,
    CampaignManifest,
    ShardEntry,
    combine_manifests,
    grid_hash,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.fabric.remote import is_uri, uri_path
from repro.fabric.slicing import read_spec_files, shard_slice, spec_identity

__all__ = [
    "driver_source_hash",
    "MANIFEST_VERSION",
    "CampaignManifest",
    "ShardEntry",
    "combine_manifests",
    "grid_hash",
    "read_manifest",
    "validate_manifest",
    "write_manifest",
    "is_uri",
    "uri_path",
    "read_spec_files",
    "shard_slice",
    "spec_identity",
]
