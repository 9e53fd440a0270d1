"""The campaign manifest: strict-JSON ledger of a sharded campaign.

When a grid is sliced across N machines, each machine knows only its own
slice; the manifest is the document that lets the fan-in step prove the
slices reassemble the campaign.  Every shard writes one::

    {"manifest_version": 1,
     "grid_hash": "<sha256 of the full expanded batch>",
     "spec_count": 112,
     "shard_count": 4,
     "shards": [{"index": 2, "status": "complete",
                 "uri": "file:///…/shard-2-store", "result_count": 28}]}

``grid_hash`` covers the *whole* expanded batch (pre-slice), so shards
produced from different grid documents — or the same document after an
edit — can never be merged into one campaign by accident.
:func:`combine_manifests` is the fan-in check: every manifest must agree
on grid hash, spec count and shard count, and together the entries must
cover every index exactly once with status ``complete``.

Like every other generated document in the repo, manifests are strict
JSON with a schema version and a validator (:func:`validate_manifest`);
writers round-trip through the validator before any bytes hit disk
(a contract that ``tests/test_contracts.py`` checks on the source, RL007).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.serialization import canonical_json
from repro.api.spec import ExperimentSpec
from repro.exceptions import ConfigurationError

__all__ = [
    "MANIFEST_VERSION",
    "SHARD_STATUSES",
    "CampaignManifest",
    "ShardEntry",
    "combine_manifests",
    "grid_hash",
    "read_manifest",
    "validate_manifest",
    "write_manifest",
]

#: Version stamp of the manifest document layout.
MANIFEST_VERSION = 1

#: The per-shard execution states a manifest may record.
SHARD_STATUSES = ("pending", "complete", "failed")


def grid_hash(specs: Sequence[ExperimentSpec]) -> str:
    """sha256 identifying the full expanded batch, order included.

    Hashing the serialized specs (not the grid document text) means two
    grid files that expand to the same batch share a campaign identity,
    while any change to the expansion — parameters, seeds, order, count —
    produces a different hash and refuses to merge with stale shards.
    """
    material = canonical_json([spec.to_dict() for spec in specs])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardEntry:
    """One shard's row in the manifest.

    Attributes
    ----------
    index:
        Shard index in ``[0, shard_count)``.
    status:
        One of :data:`SHARD_STATUSES`.
    uri:
        Where the shard's results live (a ``file://`` URI), or ``None``
        when not yet published.
    result_count:
        Envelopes the shard holds, or ``None`` when unknown.
    """

    index: int
    status: str
    uri: str | None = None
    result_count: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form of this entry."""
        return {
            "index": self.index,
            "status": self.status,
            "uri": self.uri,
            "result_count": self.result_count,
        }


@dataclass(frozen=True)
class CampaignManifest:
    """The whole campaign ledger: grid identity plus per-shard entries."""

    grid_hash: str
    spec_count: int
    shard_count: int
    shards: tuple[ShardEntry, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form of the manifest (shards sorted by index)."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "grid_hash": self.grid_hash,
            "spec_count": self.spec_count,
            "shard_count": self.shard_count,
            "shards": [entry.to_dict() for entry in sorted(self.shards, key=lambda e: e.index)],
        }

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "CampaignManifest":
        """Rebuild a manifest from :meth:`to_dict` output (validated first)."""
        validate_manifest(document)
        return cls(
            grid_hash=document["grid_hash"],
            spec_count=document["spec_count"],
            shard_count=document["shard_count"],
            shards=tuple(
                ShardEntry(
                    index=entry["index"],
                    status=entry["status"],
                    uri=entry.get("uri"),
                    result_count=entry.get("result_count"),
                )
                for entry in document["shards"]
            ),
        )

    @property
    def complete(self) -> bool:
        """Whether every shard index is present and ``complete``."""
        done = {entry.index for entry in self.shards if entry.status == "complete"}
        return done == set(range(self.shard_count))


def validate_manifest(document: Any) -> None:
    """Validate a manifest document's shape; raise on the first violation."""
    if not isinstance(document, dict):
        raise ConfigurationError(f"manifest must be an object, got {type(document).__name__}")
    if document.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigurationError(
            f"unsupported manifest_version {document.get('manifest_version')!r} "
            f"(expected {MANIFEST_VERSION})"
        )
    if not isinstance(document.get("grid_hash"), str) or len(document["grid_hash"]) != 64:
        raise ConfigurationError("manifest field 'grid_hash' must be a sha256 hex string")
    for name in ("spec_count", "shard_count"):
        value = document.get(name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigurationError(f"manifest field {name!r} must be a non-negative integer")
    if document["shard_count"] < 1:
        raise ConfigurationError("manifest field 'shard_count' must be >= 1")
    if not isinstance(document.get("shards"), list):
        raise ConfigurationError("manifest field 'shards' must be a list")
    seen: set[int] = set()
    for entry in document["shards"]:
        if not isinstance(entry, dict):
            raise ConfigurationError(f"manifest shard entry must be an object, got {type(entry).__name__}")
        index = entry.get("index")
        if isinstance(index, bool) or not isinstance(index, int):
            raise ConfigurationError("manifest shard entry is missing an integer 'index'")
        if not 0 <= index < document["shard_count"]:
            raise ConfigurationError(
                f"manifest shard index {index} is outside [0, {document['shard_count']})"
            )
        if index in seen:
            raise ConfigurationError(f"manifest lists shard index {index} twice")
        seen.add(index)
        if entry.get("status") not in SHARD_STATUSES:
            raise ConfigurationError(
                f"manifest shard {index} has status {entry.get('status')!r}; "
                f"allowed: {list(SHARD_STATUSES)}"
            )
        if not (entry.get("uri") is None or isinstance(entry["uri"], str)):
            raise ConfigurationError(f"manifest shard {index} field 'uri' must be a string or null")
        count = entry.get("result_count")
        if not (count is None or (isinstance(count, int) and not isinstance(count, bool) and count >= 0)):
            raise ConfigurationError(
                f"manifest shard {index} field 'result_count' must be a non-negative integer or null"
            )


def write_manifest(path: str | Path, manifest: CampaignManifest) -> None:
    """Serialize *manifest* to *path* — round-tripping the validator first."""
    document = manifest.to_dict()
    validate_manifest(document)
    Path(path).write_text(json.dumps(document, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> CampaignManifest:
    """Load and validate a manifest document from *path*."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read manifest {str(path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"manifest {str(path)!r} is not valid JSON: {exc}") from exc
    return CampaignManifest.from_dict(document)


def combine_manifests(manifests: Sequence[CampaignManifest]) -> CampaignManifest:
    """Fan-in check: fold per-shard manifests into one complete campaign ledger.

    Every manifest must describe the same campaign (grid hash, spec and
    shard counts), and together the shard entries must cover every index
    exactly once with status ``complete`` — otherwise the merge would
    silently publish a partial grid as the full-fidelity result.
    """
    if not manifests:
        raise ConfigurationError("no manifests to combine")
    head = manifests[0]
    entries: dict[int, ShardEntry] = {}
    for manifest in manifests:
        for name in ("grid_hash", "spec_count", "shard_count"):
            if getattr(manifest, name) != getattr(head, name):
                raise ConfigurationError(
                    f"manifests disagree on {name}: {getattr(head, name)!r} vs "
                    f"{getattr(manifest, name)!r} — these shards are not slices of one campaign"
                )
        for entry in manifest.shards:
            previous = entries.get(entry.index)
            if previous is not None and previous != entry:
                raise ConfigurationError(
                    f"conflicting manifest entries for shard {entry.index}: "
                    f"{previous!r} vs {entry!r}"
                )
            entries[entry.index] = entry
    combined = CampaignManifest(
        grid_hash=head.grid_hash,
        spec_count=head.spec_count,
        shard_count=head.shard_count,
        shards=tuple(entries[index] for index in sorted(entries)),
    )
    incomplete = [
        index
        for index in range(head.shard_count)
        if entries.get(index) is None or entries[index].status != "complete"
    ]
    if incomplete:
        raise ConfigurationError(
            f"campaign is incomplete: shard(s) {incomplete} of {head.shard_count} "
            "are missing or not complete"
        )
    return combined
