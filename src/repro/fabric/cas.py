"""The code digest campaign resume matches on.

Every envelope the :class:`~repro.api.runner.Runner` writes records, as
``source_hash``, :func:`driver_source_hash` of the code that produced it.
On resume a stored envelope is reused only when its invocation key
matches the spec's *and* its ``source_hash`` equals the current digest,
so a behavioural edit anywhere in the code a driver can reach — the
driver itself or any module it imports — re-executes, while a comment-
or whitespace-only edit keeps every stored result warm.

The digest covers every module of the ``repro`` package rather than a
per-driver import closure: the registry imports every driver, so each
driver already reaches most of the package through explicit imports.
Each module contributes its *normalized* source digest
(:func:`normalized_source_digest`), keyed by its path relative to the
package root; a driver registered from outside the package adds its own
module.  Digests are computed lazily — never at import or registry
load — and at most once per module per process, so a process pays one
parse of the package and every later call only recombines the memoised
module digests.  A process therefore keeps the digest of the source as
it first read it: an edit made while it runs is seen by the next
process.  Sorted relative paths make the digest independent of the
working directory, the hash seed and the host, so shards on other
machines and ``--jobs`` workers compute the same value.

Source that cannot be read makes the digest ``None``; such runs are
never reused, which fails safe: they re-execute.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib
import inspect
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.api.registry import Experiment

__all__ = ["driver_source_hash", "module_source", "normalized_source_digest"]

#: The ``repro`` package directory every digested path is relative to.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Normalized digest per module read so far: package modules keyed by
#: package-relative path, drivers outside the package by module name.
_module_digests: dict[str, str] = {}


def normalized_source_digest(source: str) -> str:
    """sha256 of *source*'s AST dump — formatting and comments excluded.

    Two sources that parse to the same tree (whitespace moved, comments
    added or dropped, trailing blank lines) digest identically; any
    change that survives parsing — a different constant, operator,
    branch or name — does not.  ``ast.dump`` omits line/column
    attributes by default, so pure reflow never shifts the digest.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ConfigurationError(f"cannot normalize driver source: {exc}") from exc
    digest = hashlib.sha256(ast.dump(tree).encode("utf-8"))
    return digest.hexdigest()


def module_source(relative: str) -> str:
    """The source text of the package module at *relative* (a path under ``repro/``)."""
    return (_PACKAGE_ROOT / relative).read_text(encoding="utf-8")


@functools.cache
def _package_modules() -> tuple[str, ...]:
    """Package-relative paths of every ``repro`` module, sorted."""
    modules = tuple(sorted(path.relative_to(_PACKAGE_ROOT).as_posix() for path in _PACKAGE_ROOT.rglob("*.py")))
    if not modules:
        raise FileNotFoundError(f"no module sources under {_PACKAGE_ROOT}")
    return modules


def _memoised_digest(key: str, read: Callable[[str], str]) -> str:
    digest = _module_digests.get(key)
    if digest is None:
        digest = _module_digests[key] = normalized_source_digest(read(key))
    return digest


def _driver_module_source(module_name: str) -> str:
    return inspect.getsource(importlib.import_module(module_name))


def driver_source_hash(experiment: Experiment) -> str | None:
    """Digest of the code *experiment* runs: the whole package, plus its driver outside it.

    Returns ``None`` when any of that source is unavailable or does not
    parse (a driver registered from a REPL or an exec'd test module, a
    package installed without sources) — such runs are never reused.
    """
    try:
        modules = _package_modules()
        lines = [f"{relative} {_memoised_digest(relative, module_source)}\n" for relative in modules]
        package, _, submodule = experiment.module.partition(".")
        if package != "repro" or submodule.replace(".", "/") + ".py" not in modules:
            lines.append(f"{experiment.module} {_memoised_digest(experiment.module, _driver_module_source)}\n")
    except (OSError, TypeError, ValueError, ImportError, ConfigurationError):
        return None
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
