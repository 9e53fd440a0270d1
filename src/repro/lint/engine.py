"""Core of the contract checker: rules, findings, pragmas and the file walker.

The engine is deliberately dependency-free (stdlib ``ast`` only) so the
cheap static tier can run before anything is installed.  A :class:`Rule`
couples a stable id (``RL002``), a category, a short description and a
fix hint to a checker callable; :func:`lint_paths` parses every Python
file once into a :class:`LintContext` and funnels it through each
applicable rule, returning sorted :class:`Finding` records.

Two rule kinds exist:

* ``file`` rules see one :class:`LintContext` at a time — the common
  case (an AST visitor over a single module);
* ``project`` rules see every parsed context of the run at once, for
  cross-module invariants such as RL005's "each driver module both
  registers completely *and* is imported by the package façade".

Deliberate, documented exceptions are suppressed in source with a
pragma comment — ``# lint-ok: RL002 -- reason`` — on the finding's line
or on any *anchor line* the rule attaches (RL007 anchors the enclosing
``def``, so one pragma can bless a whole function).  A pragma is the
only way to excuse a finding; every other finding fails the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.exceptions import ConfigurationError

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "get_rule",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "parse_source",
    "register_rule",
    "select_rules",
]

#: ``# lint-ok: RL002`` or ``# lint-ok: RL002, RL004 -- why it is fine``.
_PRAGMA = re.compile(r"#\s*lint-ok:\s*([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)")

#: Rule ids look like ``RL002`` — two capitals, three digits.
_RULE_ID = re.compile(r"^[A-Z]{2}\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Rule id (``RL002``).
    category:
        The rule's category slug (``rng-discipline``).
    path:
        Posix path of the offending file, as given to the walker.
    line:
        1-based source line.
    message:
        What is wrong, specifically (names the offending symbol).
    snippet:
        The stripped source line the finding points at.
    fix_hint:
        The rule's generic remediation hint.
    anchor_lines:
        Extra lines where a ``# lint-ok:`` pragma also suppresses this
        finding (e.g. the enclosing ``def``).  Not serialized.
    """

    rule: str
    category: str
    path: str
    line: int
    message: str
    snippet: str
    fix_hint: str = ""
    anchor_lines: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form (anchor lines are engine-internal)."""
        return {
            "rule": self.rule,
            "category": self.category,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fix_hint": self.fix_hint,
        }

    @property
    def sort_key(self) -> tuple[str, int, str, str]:
        """Deterministic ordering: path, line, rule, message."""
        return (self.path, self.line, self.rule, self.message)


class LintContext:
    """One parsed source file: path, source, AST and pragma table."""

    def __init__(self, path: str, source: str) -> None:
        self.path = Path(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:
            raise ConfigurationError(f"cannot lint {self.path}: {exc}") from exc
        self._pragmas = _collect_pragmas(self.lines)

    def snippet(self, line: int) -> str:
        """The stripped source text of 1-based *line* (empty if out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def suppressed(self, rule: str, lines: Iterable[int]) -> bool:
        """Whether a ``# lint-ok:`` pragma for *rule* sits on any of *lines*."""
        return any(rule in self._pragmas.get(line, ()) for line in lines)

    def finding(
        self,
        rule: "Rule",
        line: int,
        message: str,
        *,
        anchor_lines: Iterable[int] = (),
    ) -> Finding:
        """Build a :class:`Finding` for *rule* at *line* in this file."""
        return Finding(
            rule=rule.id,
            category=rule.category,
            path=self.path,
            line=line,
            message=message,
            snippet=self.snippet(line),
            fix_hint=rule.fix_hint,
            anchor_lines=tuple(anchor_lines),
        )


def _collect_pragmas(lines: list[str]) -> dict[int, frozenset[str]]:
    pragmas: dict[int, frozenset[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match:
            pragmas[number] = frozenset(part.strip() for part in match.group(1).split(","))
    return pragmas


@dataclass(frozen=True)
class Rule:
    """One registered contract rule.

    Attributes
    ----------
    id:
        Stable identifier (``RL002``); what ``--rule`` and pragmas refer to.
    category:
        Short kebab-case slug grouping related rules.
    description:
        One line for ``lint --list-rules`` and the JSON document.
    fix_hint:
        Generic remediation advice attached to every finding.
    check:
        ``file`` kind: ``check(context) -> Iterable[Finding]``.
        ``project`` kind: ``check(contexts) -> Iterable[Finding]``.
    kind:
        ``"file"`` (per-module visitor) or ``"project"`` (cross-module).
    scope:
        Regex the posix path must match for the rule to apply
        (``None`` = every file).  Project rules scope inside ``check``.
    exclude:
        Regex that exempts matching paths even when ``scope`` matches.
    """

    id: str
    category: str
    description: str
    fix_hint: str
    check: Callable[..., Iterable[Finding]]
    kind: str = "file"
    scope: str | None = None
    exclude: str | None = None

    def applies_to(self, path: str) -> bool:
        """Whether this (file-kind) rule runs on *path*."""
        posix = Path(path).as_posix()
        if self.scope is not None and not re.search(self.scope, posix):
            return False
        if self.exclude is not None and re.search(self.exclude, posix):
            return False
        return True


_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Add *rule* to the registry; ids are unique and shaped ``AANNN``."""
    if not _RULE_ID.match(rule.id):
        raise ConfigurationError(f"rule id {rule.id!r} does not match RLnnn")
    if rule.kind not in ("file", "project"):
        raise ConfigurationError(f"rule {rule.id}: unknown kind {rule.kind!r}")
    if rule.id in _RULES:
        raise ConfigurationError(f"rule {rule.id!r} is already registered")
    _RULES[rule.id] = rule
    return rule


def iter_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    _load_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    _load_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown lint rule {rule_id!r}; registered: {sorted(_RULES)}"
        ) from None


def select_rules(rule_ids: Iterable[str] | None) -> list[Rule]:
    """Resolve ``--rule`` selections (``None``/empty = every rule)."""
    ids = list(rule_ids or ())
    if not ids:
        return iter_rules()
    return [get_rule(rule_id) for rule_id in ids]


def _load_rules() -> None:
    """Import the rule catalogue exactly once (it self-registers)."""
    import repro.lint.rules  # noqa: F401  (import populates the registry)


def parse_source(source: str, path: str = "<string>") -> LintContext:
    """Parse *source* into a :class:`LintContext` (raises on syntax errors)."""
    return LintContext(path, source)


def _run(rules: list[Rule], contexts: list[LintContext]) -> list[Finding]:
    by_path = {context.path: context for context in contexts}
    findings: list[Finding] = []
    for rule in rules:
        if rule.kind == "project":
            raw: Iterable[Finding] = rule.check(contexts)
        else:
            raw = (
                finding
                for context in contexts
                if rule.applies_to(context.path)
                for finding in rule.check(context)
            )
        for finding in raw:
            context = by_path.get(finding.path)
            if context is not None and context.suppressed(
                finding.rule, (finding.line, *finding.anchor_lines)
            ):
                continue
            findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key)


def lint_source(
    source: str, path: str = "<string>", rules: Iterable[str] | None = None
) -> list[Finding]:
    """Lint one in-memory module; *path* drives the rules' scoping."""
    return _run(select_rules(rules), [parse_source(source, path)])


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under *paths* (files pass through, dirs recurse).

    Hidden directories and ``__pycache__`` are skipped; the order is
    sorted so runs are deterministic.
    """
    for entry in paths:
        target = Path(entry)
        if target.is_dir():
            for candidate in sorted(target.rglob("*.py")):
                parts = candidate.relative_to(target).parts
                if any(part == "__pycache__" or part.startswith(".") for part in parts):
                    continue
                yield candidate
        elif target.suffix == ".py":
            yield target
        elif not target.exists():
            raise ConfigurationError(f"lint path does not exist: {target}")


def lint_paths(
    paths: Iterable[str | Path], rules: Iterable[str] | None = None
) -> tuple[list[Finding], int]:
    """Lint every Python file under *paths*.

    Returns ``(findings, files_checked)``; findings are pragma-filtered
    and sorted.  Paths that hold no ``.py`` file raise, so a gate
    pointed at the wrong place cannot pass by checking nothing.
    """
    paths = list(paths)
    selected = select_rules(rules)
    contexts = [
        LintContext(str(file), file.read_text(encoding="utf-8"))
        for file in iter_python_files(paths)
    ]
    if not contexts:
        raise ConfigurationError(f"no Python files to lint under {[str(path) for path in paths]}")
    return _run(selected, contexts), len(contexts)


# --------------------------------------------------------------------------
# Shared AST helpers for the rule catalogue.


class ImportMap:
    """Resolve names and attribute chains to dotted module paths.

    Built from every ``import``/``from ... import`` in the module, at any
    nesting level.  ``dotted(node)`` maps ``np.random.seed`` (with
    ``import numpy as np``) to ``"numpy.random.seed"``; names that were
    never imported resolve to ``None`` so local variables cannot
    masquerade as modules.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._map: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self._map[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self._map[root] = root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    self._map[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, name: str) -> str | None:
        """Dotted path an imported *name* is bound to, else ``None``."""
        return self._map.get(name)

    def dotted(self, node: ast.AST) -> str | None:
        """Dotted path of a ``Name``/``Attribute`` chain rooted in an import."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.resolve(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)])


def call_name(node: ast.Call) -> str | None:
    """The called function's bare name (``register`` for both ``register(...)``
    and ``api.register(...)``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def keyword_map(node: ast.Call) -> Mapping[str, ast.expr]:
    """The call's explicit keyword arguments by name (``**kwargs`` ignored)."""
    return {keyword.arg: keyword.value for keyword in node.keywords if keyword.arg}


@dataclass
class _FunctionInfo:
    """A function definition plus the names of its parameters."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: frozenset[str] = field(default_factory=frozenset)


def iter_functions(tree: ast.Module) -> Iterator[_FunctionInfo]:
    """Every function definition in *tree* with its parameter-name set."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [
                arg.arg
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            ]
            if args.vararg:
                names.append(args.vararg.arg)
            if args.kwarg:
                names.append(args.kwarg.arg)
            yield _FunctionInfo(node=node, params=frozenset(names))
