"""Deterministic shard slicing of expanded campaign batches.

A distributed campaign executes one grid across N machines.  The
contract that makes the fan-in trivial: every per-spec seed is derived
at *expansion* time (:func:`repro.api.campaign.derive_seed`), before any
sharding, so slicing is pure list arithmetic — shard I of N is
``specs[I::N]``, a disjoint, order-stable stride over the expanded
batch.  Any (I, N) decomposition merged back together is bit-identical
to a serial run; the tests assert disjointness and completeness at every
(I, N) over the committed fleet grid.

:func:`read_spec_files` is the multi-document front end: it expands
several grid files, concatenates them in argument order, and rejects
duplicate specs strictly — two grid files that expand to the same
(experiment, params, engine, seed) invocation would race to
write the same result key, so the overlap fails loudly before any work
starts.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.api.campaign import read_specs
from repro.api.serialization import canonical_json
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError

__all__ = ["read_spec_files", "shard_slice", "spec_identity"]


def spec_identity(spec: ExperimentSpec) -> str:
    """Canonical JSON of the spec's serialized form — its duplicate-detection key."""
    return canonical_json(spec.to_dict())


def shard_slice(
    specs: Sequence[ExperimentSpec], shard_index: int, shard_count: int
) -> list[ExperimentSpec]:
    """Shard *shard_index* of *shard_count*: the ``specs[index::count]`` stride.

    The stride preserves expansion order inside each shard, balances
    shard sizes to within one spec, and partitions the batch exactly:
    the shards are pairwise disjoint and their union is the input.
    Because seeds were fixed before slicing, executing the shards on N
    machines and merging is bit-identical to a serial run.
    """
    if shard_count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ConfigurationError(
            f"shard index must be in [0, {shard_count}), got {shard_index}"
        )
    return list(specs[shard_index::shard_count])


def read_spec_files(paths: Sequence[str | Path]) -> list[ExperimentSpec]:
    """Expand several grid documents into one batch, rejecting duplicates.

    Files are expanded independently (:func:`repro.api.campaign.read_specs`)
    and concatenated in argument order, so sharding a multi-file campaign
    slices the same combined batch on every machine.  A spec that appears
    twice — within one file or across files — is a configuration error:
    both copies would produce the same result key, and one machine's work
    would silently shadow the other's.
    """
    if not paths:
        raise ConfigurationError("no grid documents given")
    specs: list[ExperimentSpec] = []
    seen: dict[str, str] = {}
    for path in paths:
        for spec in read_specs(path):
            identity = spec_identity(spec)
            previous = seen.get(identity)
            if previous is not None:
                raise ConfigurationError(
                    f"duplicate spec for experiment {spec.experiment!r} "
                    f"(params {spec.params!r}, seed {spec.seed!r}) in {str(path)!r}; "
                    f"first defined in {previous!r}"
                )
            seen[identity] = str(path)
            specs.append(spec)
    return specs
