"""The code digest campaign resume matches on.

Every envelope the :class:`~repro.api.runner.Runner` writes records, as
``source_hash``, :func:`driver_source_hash` of the code that produced it.
On resume a stored envelope is reused only when its invocation key
matches the spec's *and* its ``source_hash`` equals the current digest,
so any edit anywhere in the code a driver can reach — the driver itself
or any module it imports, a comment or blank line included — re-executes.

The digest covers every module of the ``repro`` package rather than a
per-driver import closure: the registry imports every driver, so each
driver already reaches most of the package through explicit imports.
Each module contributes the sha256 of its text as :func:`module_source`
reads it, keyed by its path relative to the package root; a driver
registered from outside the package adds its own module.  Hashing text
instead of a parse tree costs milliseconds for the whole package and
gives the same digest on every Python version.  Digests are computed
lazily — never at import or registry load — and at most once per module
per process, so every later call only recombines the memoised module
digests, which takes tens of microseconds for the whole package; the
Runner makes that call once per distinct experiment of a batch, not
once per spec.  A process therefore keeps the digest of the source as
it first read it: an edit made while it runs is seen by the next
process.
Sorted relative paths make the digest independent of the working
directory, the hash seed and the host, so shards on other machines and
``--jobs`` workers compute the same value.

Source that cannot be read makes the digest ``None``; such runs are
never reused, which fails safe: they re-execute.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api.registry import Experiment

__all__ = ["driver_source_hash", "module_source"]

#: The ``repro`` package directory every digested path is relative to.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: sha256 of each module's text read so far: package modules keyed by
#: package-relative path, drivers outside the package by module name.
_module_digests: dict[str, str] = {}


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
        digest = _module_digests[key] = hashlib.sha256(read(key).encode("utf-8")).hexdigest()
    return digest


def _driver_module_source(module_name: str) -> str:
    return inspect.getsource(importlib.import_module(module_name))


def driver_source_hash(experiment: Experiment) -> str | None:
    """Digest of the code *experiment* runs: the whole package, plus its driver outside it.

    Returns ``None`` when any of that source cannot be read (a driver
    registered from a REPL or an exec'd test module, a package installed
    without sources) — such runs are never reused.
    """
    try:
        modules = _package_modules()
        lines = [f"{relative} {_memoised_digest(relative, module_source)}\n" for relative in modules]
        package, _, submodule = experiment.module.partition(".")
        if package != "repro" or submodule.replace(".", "/") + ".py" not in modules:
            lines.append(f"{experiment.module} {_memoised_digest(experiment.module, _driver_module_source)}\n")
    except (OSError, TypeError, ValueError, ImportError):
        return None
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
