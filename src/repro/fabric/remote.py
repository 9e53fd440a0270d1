"""Shard fan-in from ``file://`` URIs.

A distributed campaign leaves its shards wherever the machines that ran
them put them: a mounted volume, or a CI artifact downloaded next to the
fan-in job.  The fan-in step (:meth:`repro.api.store.ResultStore.merge`)
accepts ``file://`` shard *URIs* alongside local store paths; this module
tells a URI from a path and turns a URI into the local path it names.
A URI may name one shard file or a store *directory*; the store reads
either by its own line rule, so a torn or non-UTF-8 line counts as torn
exactly as it does by path.
"""

from __future__ import annotations

import re
import urllib.parse
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = ["is_uri", "uri_path"]

#: RFC 3986 scheme prefix — what distinguishes a URI source from a path.
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")


def is_uri(source: str) -> bool:
    """Whether *source* is a URI (has a scheme) rather than a filesystem path."""
    return bool(_SCHEME.match(source))


def uri_path(uri: str) -> Path:
    """The local path a ``file://`` shard URI names.

    Another scheme is a :class:`~repro.exceptions.ConfigurationError`, and
    so is a host other than none or ``localhost``: ``file://out/store``
    names the host ``out`` and the path ``/store``, not ``out/store``.
    """
    parsed = urllib.parse.urlparse(uri)
    scheme = parsed.scheme.lower()
    if scheme != "file":
        raise ConfigurationError(f"unsupported shard URI scheme {scheme!r} in {uri!r}; supported: ['file']")
    if parsed.netloc.lower() not in ("", "localhost"):
        raise ConfigurationError(
            f"shard URI {uri!r} names the host {parsed.netloc!r}; a file:// URI must name a local "
            "absolute path, as file:///abs/path or file://localhost/abs/path"
        )
    return Path(urllib.parse.unquote(parsed.path))
