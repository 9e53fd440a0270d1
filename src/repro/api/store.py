"""The queryable on-disk store campaign results accumulate into.

A :class:`ResultStore` is a directory of JSON-lines shards, one
:class:`~repro.api.result.Result` envelope per line.  Every writing
process appends to its **own** shard file (named after its PID by
default), so parallel workers never contend for a lock, a killed run
leaves at most one truncated trailing line, and merging two stores is
file concatenation.

Results are identified by :func:`result_key` — a content hash of the
resolved invocation (experiment, engine, seed, parameters) — which makes
reads idempotent: duplicate envelopes from a rerun collapse to one, and
:meth:`ResultStore.existing_keys` lets the runner skip specs a partial
store already holds.  :meth:`ResultStore.query` filters the decoded
results by experiment, engine, seed or any recorded parameter value.

**The line index.**  A store instance reads each shard line once.  For
every shard it keeps the inode, the byte length indexed so far and, per
envelope line, the line's byte offset and length and its
:class:`EnvelopeHeader`: the invocation key, ``experiment``, ``engine``,
``seed`` and ``source_hash``.  That first read validates the line with
:func:`~repro.api.result.validate_result_dict` before keying it, so a
malformed envelope raises :class:`~repro.exceptions.ConfigurationError`
naming the shard file and line, on every read until it is mended.  Every
keyed read goes through one selecting read,
:meth:`ResultStore.iter_documents`: it re-globs the shards, indexes only
the bytes past each shard's indexed length, and parses only the lines
whose header the caller selects, in shard-name-then-file order, first
envelope per key.  ``len()`` and :meth:`ResultStore.existing_keys` parse
nothing the index already holds.

The index rests on shards being append-only, as every writer here keeps
them.  A shard is indexed again from byte 0 when its inode changed, when
it shrank below its indexed length, when its last indexed line no longer
reads the same bytes, or when a line a read selects no longer parses to
the header it was indexed under.  The unterminated tail of a shard (a
writer mid-line, or one killed there) is read again by every read and
indexed once its newline lands.  The index holds offsets and headers
only: no parsed document or decoded :class:`~repro.api.result.Result`
outlives the read that asked for it.

:meth:`ResultStore.merge` is the distributed fan-in point: alongside
local store directories it ingests ``file://`` shard URIs
(:mod:`repro.fabric.remote`), so N machines can execute disjoint slices
of one grid and merge at report time.  Campaign-level telemetry
(resume hit/miss counters, merge spans) rides in a ``campaign-telemetry/``
sidecar directory inside the store — outside the ``*.jsonl`` shard
namespace, so it never masquerades as a result envelope.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, NamedTuple

from repro.api.registry import get_experiment
from repro.api.result import Result, validate_result_dict
from repro.api.serialization import canonical_json, decode, payload_equal
from repro.exceptions import ConfigurationError
from repro.obs import metrics as obs

__all__ = [
    "EnvelopeHeader",
    "MergeStats",
    "ResultStore",
    "result_key",
    "invocation_key",
    "representative",
]

_UNSET = object()

#: Subdirectory (inside the store root) holding campaign telemetry
#: documents — deliberately not ``*.jsonl`` at the root, which is the
#: result-shard namespace.
_CAMPAIGN_TELEMETRY_DIR = "campaign-telemetry"


def invocation_key(experiment: str, engine: str, seed: int | None, params: Mapping[str, Any]) -> str:
    """Content hash of one resolved invocation.

    ``params`` must be the *decoded* parameter dict (native tuples, arrays,
    floats) — an already-encoded tree would canonicalize differently because
    re-encoding wraps its tagged nodes.  Used both for stored envelopes
    (:func:`result_key`) and for not-yet-run specs, so a rerun can skip work
    a partial store already holds.
    """
    material = {"experiment": experiment, "engine": engine, "seed": seed, "params": dict(params)}
    digest = hashlib.sha256(canonical_json(material).encode("utf-8"))
    return digest.hexdigest()[:16]


def result_key(result: Result) -> str:
    """Content hash identifying *result*'s invocation (not its payload)."""
    return invocation_key(result.experiment, result.engine, result.seed, result.params)


def representative(results: "list[Result]") -> Result:
    """The deterministic representative of a result set: smallest invocation key.

    Both generated documents (``EXPERIMENTS.md`` and ``FIGURES.md``) and
    the ``plot`` CLI use this same pick, so they always describe/render
    the same stored run for a given store content.
    """
    return min(results, key=result_key)


@dataclass(frozen=True)
class MergeStats:
    """Outcome of one :meth:`ResultStore.merge` call.

    Attributes
    ----------
    ingested:
        Envelopes copied into the destination store.
    deduped:
        Source envelopes skipped because the destination already held
        their invocation (or an earlier source line did).
    torn_lines_skipped:
        Source lines that did not parse as JSON — the truncated tail a
        killed writer leaves behind.
    """

    ingested: int
    deduped: int
    torn_lines_skipped: int

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form (the ``merge --json`` machine-readable output)."""
        return {
            "ingested": self.ingested,
            "deduped": self.deduped,
            "torn_lines_skipped": self.torn_lines_skipped,
        }


def _document_key(document: dict[str, Any]) -> str:
    # Decode only the params (not the payload): `invocation_key` canonicalizes
    # decoded values, and skipping the payload keeps key scans cheap on
    # 10^4-envelope stores.
    return invocation_key(document["experiment"], document["engine"], document["seed"], decode(document["params"]))


class EnvelopeHeader(NamedTuple):
    """What the line index keeps of one envelope: its key and the fields reads select on."""

    key: str
    experiment: str
    engine: str
    seed: int | None
    source_hash: str | None


def _header(document: dict[str, Any], where: str) -> EnvelopeHeader:
    """Validate one parsed envelope and key it; *where* names it in the error."""
    try:
        validate_result_dict(document)
        key = _document_key(document)
    # A params tree can pass the structural check and still not decode.
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed result envelope at {where}: {exc}") from exc
    return EnvelopeHeader(
        key, document["experiment"], document["engine"], document["seed"], document.get("source_hash")
    )


def _parse_line(line: bytes, where: str) -> tuple[EnvelopeHeader | None, dict[str, Any] | None] | None:
    """One shard line as ``(header, document)``.

    ``(None, None)`` is a torn line (it does not parse as JSON); ``None``
    is a line reads pass over without a count (blank, or JSON that is not
    an object).
    """
    text = line.strip()
    if not text:
        return None
    try:
        document = json.loads(text)
    except ValueError:
        return None, None
    if not isinstance(document, dict):
        return None
    return _header(document, where), document


def _shard_file_documents(path: Path, uri: str) -> tuple[Iterator[tuple[str, dict[str, Any]]], Callable[[], int]]:
    """The ``(key, envelope)`` pairs and torn count of the one shard file *uri* names."""
    try:
        lines = path.read_bytes().split(b"\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot read shard {uri!r}: {exc}") from exc
    pairs = []
    torn = 0
    for number, line in enumerate(lines, 1):
        parsed = _parse_line(line, f"{path}:{number}")
        if parsed is None:
            continue
        header, document = parsed
        if header is None:
            torn += 1
        else:
            pairs.append((header.key, document))
    return iter(pairs), lambda: torn


def _reread(handle: IO[bytes], offset: int, length: int, header: EnvelopeHeader) -> dict[str, Any] | None:
    """The envelope of an indexed line, or ``None`` when it no longer parses to *header*."""
    handle.seek(offset)
    try:
        document = json.loads(handle.read(length))
    except ValueError:
        return None
    if not isinstance(document, dict):
        return None
    fields = tuple(document.get(name) for name in EnvelopeHeader._fields[1:])
    return document if fields == header[1:] else None


@dataclass
class _ShardIndex:
    """The line index of one shard file (see the module docstring)."""

    inode: int
    #: Bytes indexed: the end of the last newline-terminated line read.
    size: int = 0
    #: Newline-terminated lines indexed, blank and non-object lines included.
    lines: int = 0
    #: Start offset and ``hash()`` of the last indexed line, checked by every read.
    last_line: tuple[int, int] = (0, hash(b""))
    #: ``(offset, length, header)`` per indexed envelope line; ``header`` is
    #: ``None`` for a torn line, which every read counts again.
    entries: list[tuple[int, int, EnvelopeHeader | None]] = field(default_factory=list)

    def still_indexes(self, handle: IO[bytes]) -> bool:
        """Whether the open shard *handle* still starts with the bytes indexed."""
        stat = os.fstat(handle.fileno())
        if stat.st_ino != self.inode or stat.st_size < self.size:
            return False
        start, digest = self.last_line
        handle.seek(start)
        return hash(handle.read(self.size - start)) == digest


class ResultStore:
    """A directory of JSONL shards holding result envelopes.

    Each instance keeps a line index of the shards it has read: per shard
    the inode, the length indexed and one ``(offset, length,``
    :class:`EnvelopeHeader` ``)`` entry per envelope line, built when a
    line is first read and validated.  A later read indexes only the bytes
    appended since, so every reader selects on headers and parses only the
    lines it returns.  The index assumes shards are only appended to; a
    shard whose inode changed, that shrank, or whose indexed lines no
    longer read as indexed is indexed again from byte 0.  No parsed
    document is kept.

    Parameters
    ----------
    root:
        Store directory; created on first use.
    shard:
        File name this process appends to.  Defaults to
        ``shard-<pid>.jsonl`` so concurrent writers never share a file.
    """

    def __init__(self, root: str | Path, *, shard: str | None = None):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(f"result store root {str(self.root)!r} is a file, not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        self._shard = shard or f"shard-{os.getpid()}.jsonl"
        if Path(self._shard).name != self._shard:
            raise ConfigurationError(f"shard name {self._shard!r} must not contain path separators")
        #: Torn (unparseable) lines skipped across this instance's reads.
        self.torn_lines_skipped = 0
        self._index: dict[Path, _ShardIndex] = {}

    @property
    def shard_path(self) -> Path:
        """The shard file this store instance appends to."""
        return self.root / self._shard

    # -- writing -----------------------------------------------------------

    def append(self, result: Result) -> None:
        """Append one result envelope to this process's shard."""
        self.append_document(result.to_dict())

    def append_document(self, document: dict[str, Any]) -> None:
        """Append an already-encoded envelope (one compact JSON line)."""
        line = json.dumps(document, allow_nan=False, separators=(",", ":"))
        with open(self.shard_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def merge(self, other: "ResultStore | str | Path") -> MergeStats:
        """Copy envelopes from *other* that this store does not hold yet.

        *other* may be another :class:`ResultStore`, a local store
        directory, or a ``file://`` shard **URI** naming a shard file or a
        store directory (resolved by :mod:`repro.fabric.remote`), read by
        the same line rule as a local store.

        Duplicates (by :func:`result_key`) are skipped, so merging is
        idempotent.  Returns a :class:`MergeStats` accounting for every
        source line: ingested, deduplicated, or torn and skipped.
        """
        with obs.span("store.merge", source=str(other)):
            pairs, torn = self._source_documents(other)
            seen = self.existing_keys()
            ingested = 0
            deduped = 0
            for key, document in pairs:
                if key in seen:
                    deduped += 1
                    continue
                seen.add(key)
                self.append_document(document)
                ingested += 1
            stats = MergeStats(
                ingested=ingested,
                deduped=deduped,
                torn_lines_skipped=torn(),
            )
        obs.count("store.merge.ingested", stats.ingested)
        obs.count("store.merge.deduped", stats.deduped)
        obs.count("store.merge.torn_lines_skipped", stats.torn_lines_skipped)
        return stats

    @staticmethod
    def _source_documents(
        other: "ResultStore | str | Path",
    ) -> tuple[Iterator[tuple[str, dict[str, Any]]], Callable[[], int]]:
        """A merge source as ``(keyed-document iterator, torn-count callable)``.

        A ``file://`` URI naming a directory is read as a local store; one
        naming a shard file is read line by line by :func:`_parse_line`.
        The torn count is a callable because a store only knows how many
        lines tore *after* iteration finishes.
        """
        if isinstance(other, str):
            from repro.fabric.remote import is_uri, uri_path

            if is_uri(other):
                path = uri_path(other)
                if not path.is_dir():
                    return _shard_file_documents(path, other)
                other = path
        source = other if isinstance(other, ResultStore) else ResultStore(other)
        torn_before = source.torn_lines_skipped
        return source.iter_keyed_documents(), lambda: source.torn_lines_skipped - torn_before

    # -- campaign telemetry ------------------------------------------------

    def append_campaign_telemetry(self, document: dict[str, Any]) -> None:
        """Record one campaign-level telemetry document in the sidecar.

        Campaign telemetry (resume hits/misses, merge spans) is
        collected *around* a batch, not inside any single run, so it
        cannot ride a result envelope.  It lives in
        ``<root>/campaign-telemetry/<shard>.jsonl`` — outside the root
        ``*.jsonl`` shard namespace — and is validated before any bytes
        are written, like every other generated document.
        """
        obs.validate_telemetry(document)
        directory = self.root / _CAMPAIGN_TELEMETRY_DIR
        directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(document, allow_nan=False, separators=(",", ":"))
        with open(directory / self._shard, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def iter_campaign_telemetry(self) -> Iterator[dict[str, Any]]:
        """Yield campaign telemetry documents, torn-line tolerant."""
        directory = self.root / _CAMPAIGN_TELEMETRY_DIR
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        document = json.loads(line)
                    except json.JSONDecodeError:
                        self.torn_lines_skipped += 1
                        continue
                    if isinstance(document, dict):
                        yield document

    # -- reading -----------------------------------------------------------

    def shard_paths(self) -> list[Path]:
        """Every shard file in the store, in deterministic (sorted) order."""
        return sorted(self.root.glob("*.jsonl"))

    def iter_documents(
        self,
        select: Callable[[EnvelopeHeader], bool] | None = None,
        *,
        distinct: bool = False,
    ) -> Iterator[tuple[EnvelopeHeader, dict[str, Any]]]:
        """The one selecting read: ``(header, envelope dict)`` per envelope *select* accepts.

        Envelopes come in shard-name-then-file order, duplicates included,
        and only the accepted ones are parsed (a line read for the first
        time is parsed once anyway, to index it).  *select* defaults to
        every envelope.  With ``distinct=True`` only the first accepted
        envelope per invocation key is yielded: the pick every result read
        makes.

        A line that does not parse as JSON (the tail of a killed writer) is
        skipped — counted in :attr:`torn_lines_skipped` on every read —
        rather than poisoning the whole store, and a line that is not a
        JSON object is passed over.  A malformed envelope raises
        :class:`~repro.exceptions.ConfigurationError` naming its shard and
        line.
        """
        seen: set[str] = set()

        def wanted(header: EnvelopeHeader) -> bool:
            return not (distinct and header.key in seen) and (select is None or select(header))

        for header, document in self._read(wanted):
            if document is not None:
                seen.add(header.key)
                yield header, document

    def iter_keyed_documents(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield ``(invocation key, raw envelope dict)`` pairs, duplicates included."""
        for header, document in self.iter_documents():
            yield header.key, document

    def iter_results(self) -> Iterator[Result]:
        """Yield decoded results, one per distinct invocation (first wins)."""
        for _, document in self.iter_documents(distinct=True):
            yield Result.from_dict(document)

    def existing_keys(self) -> set[str]:
        """Keys of every distinct invocation the store holds, read from the index."""
        return {header.key for header, _ in self._read(None)}

    def envelope_count(self) -> int:
        """Envelopes the store holds, duplicates included, read from the index."""
        return sum(1 for _ in self._read(None))

    def __len__(self) -> int:
        return len(self.existing_keys())

    def __iter__(self) -> Iterator[Result]:
        return self.iter_results()

    def _read(
        self, select: Callable[[EnvelopeHeader], bool] | None
    ) -> Iterator[tuple[EnvelopeHeader, dict[str, Any] | None]]:
        """``(header, document)`` for every envelope line, in shard-name-then-file order.

        ``document`` is the parsed envelope when ``select(header)`` holds,
        else ``None``; with ``select=None`` no indexed line is parsed.
        """
        paths = self.shard_paths()
        self._index = {path: self._index[path] for path in paths if path in self._index}
        for path in paths:
            with open(path, "rb") as handle:
                shard = self._index.get(path)
                if shard is None or not shard.still_indexes(handle):
                    shard = self._index[path] = _ShardIndex(os.fstat(handle.fileno()).st_ino)
                yield from self._read_shard(path, handle, shard, select)

    def _read_shard(
        self,
        path: Path,
        handle: IO[bytes],
        shard: _ShardIndex,
        select: Callable[[EnvelopeHeader], bool] | None,
    ) -> Iterator[tuple[EnvelopeHeader, dict[str, Any] | None]]:
        for offset, length, header in shard.entries:
            if header is None:
                self._count_torn()
                continue
            document = None
            if select is not None and select(header):
                document = _reread(handle, offset, length, header)
                if document is None:
                    # Rewritten in place: index the shard again, and go on
                    # from this line.
                    shard = self._index[path] = _ShardIndex(shard.inode)
                    yield from self._index_lines(path, handle, shard, select, start=offset)
                    return
            yield header, document
        yield from self._index_lines(path, handle, shard, select)

    def _index_lines(
        self,
        path: Path,
        handle: IO[bytes],
        shard: _ShardIndex,
        select: Callable[[EnvelopeHeader], bool] | None,
        *,
        start: int = 0,
    ) -> Iterator[tuple[EnvelopeHeader, dict[str, Any] | None]]:
        """Index the lines past ``shard.size``, yielding those from byte *start* on as :meth:`_read` does.

        The unterminated tail is parsed but never indexed.  The index only
        grows where it ends, so a read of this instance nested inside
        another's cannot index a line twice.
        """
        offset = shard.size
        number = shard.lines
        handle.seek(offset)
        for line in handle:
            number += 1
            parsed = _parse_line(line, f"{path}:{number}")
            end = offset + len(line)
            if line.endswith(b"\n") and shard.size == offset:
                shard.size, shard.lines, shard.last_line = end, number, (offset, hash(line))
                if parsed is not None:
                    shard.entries.append((offset, len(line), parsed[0]))
            if parsed is not None and offset >= start:
                header, document = parsed
                if header is None:
                    self._count_torn()
                else:
                    yield header, (document if select is not None and select(header) else None)
            offset = end

    def _count_torn(self) -> None:
        self.torn_lines_skipped += 1
        obs.count("store.torn_lines_skipped")

    def query(
        self,
        experiment: str | None = None,
        *,
        engine: str | None = None,
        seed: Any = _UNSET,
        strict: bool = False,
        **param_filters: Any,
    ) -> list[Result]:
        """Decoded results matching every given filter.

        ``experiment``/``engine`` match the envelope fields, ``seed=None``
        matches deterministic runs, and any further keyword matches a
        recorded parameter by (numpy-aware) value equality.

        A parameter filter whose key an envelope does not record is, by
        default, simply a **non-match**: the envelope is excluded, exactly
        as if the value differed.  That is the right behaviour when one
        store mixes experiments with different signatures (and envelopes
        only record *explicit* overrides, not driver defaults) — but it
        also silently returns ``[]`` for a typoed filter name.  Pass
        ``strict=True`` to instead raise
        :class:`~repro.exceptions.ConfigurationError` when a filter key is
        not a parameter of a candidate envelope's experiment (per the
        registry schema) — mirroring the unknown-key rejection of spec
        documents.  An envelope that merely ran with the parameter's
        default stays a quiet non-match even under ``strict``.  A store
        with no candidates at all raises nothing (there is no experiment
        to check the keys against), and an envelope whose experiment has
        left the registry is checked against its recorded keys instead.
        """

        def wanted(header: EnvelopeHeader) -> bool:
            return (
                (experiment is None or header.experiment == experiment)
                and (engine is None or header.engine == engine)
                and (seed is _UNSET or header.seed == seed)
            )

        matches = []
        for _, document in self.iter_documents(wanted, distinct=True):
            result = Result.from_dict(document)
            unknown = sorted(set(param_filters) - set(result.params))
            if unknown and strict:
                self._check_filter_keys(result, unknown)
            if unknown or any(
                not payload_equal(result.params[name], value) for name, value in param_filters.items()
            ):
                continue
            matches.append(result)
        return matches

    @staticmethod
    def _check_filter_keys(result: Result, unknown: list[str]) -> None:
        """Raise if *unknown* filter keys are not in the experiment's schema."""
        try:
            known = {parameter.name for parameter in get_experiment(result.experiment).parameters}
        except ConfigurationError:
            # The experiment is gone from the registry (an old store);
            # the envelope's recorded keys are all we can validate against.
            known = set(result.params)
        bad = sorted(set(unknown) - known)
        if bad:
            raise ConfigurationError(
                f"unknown filter key(s) {bad} for experiment {result.experiment!r}; "
                f"known parameters: {sorted(known)}"
            )
