"""Finding renderers: terminal text, strict JSON, and a markdown table.

Three views over the same sorted finding list:

* :func:`render_text` — ``path:line: RLnnn message`` lines with the
  offending snippet, grouped the way compilers print diagnostics;
* :func:`build_document` / :func:`validate_lint_document` — the strict
  JSON contract behind ``python -m repro lint --json`` (schema-versioned,
  so CI consumers can parse it without scraping);
* :func:`render_markdown` — the rule-id + ``file:line`` table the
  ``lint-contracts`` CI job appends to its step summary, mirroring the
  ``compare_benchmarks.py`` failure-table style.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.lint.engine import Finding, Rule

__all__ = [
    "LINT_SCHEMA_VERSION",
    "build_document",
    "render_markdown",
    "render_text",
    "validate_lint_document",
]

#: Version stamp of the ``--json`` document layout.
LINT_SCHEMA_VERSION = 2


def render_text(findings: Sequence[Finding]) -> list[str]:
    """Human-readable diagnostic lines, compiler style."""
    lines: list[str] = []
    for finding in findings:
        lines.append(f"{finding.path}:{finding.line}: {finding.rule} {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
        if finding.fix_hint:
            lines.append(f"    hint: {finding.fix_hint}")
    return lines


def render_markdown(findings: Sequence[Finding]) -> str:
    """A markdown table of findings for CI job summaries."""
    lines = ["### Lint contract findings", ""]
    if not findings:
        lines.append("No findings — all contracts hold.")
        return "\n".join(lines) + "\n"
    lines.append("| Rule | Location | Message |")
    lines.append("| --- | --- | --- |")
    for finding in findings:
        message = finding.message.replace("|", "\\|")
        lines.append(f"| {finding.rule} | `{finding.path}:{finding.line}` | {message} |")
    return "\n".join(lines) + "\n"


def build_document(findings: Sequence[Finding], *, rules: Iterable[Rule], files_checked: int) -> dict[str, Any]:
    """The strict-JSON lint document ``--json`` emits."""
    return {
        "lint_schema_version": LINT_SCHEMA_VERSION,
        "rules": [
            {"id": rule.id, "category": rule.category, "description": rule.description}
            for rule in rules
        ],
        "summary": {"files_checked": files_checked, "findings": len(findings)},
        "findings": [finding.to_dict() for finding in findings],
    }


_FINDING_FIELDS = {
    "rule": str,
    "category": str,
    "path": str,
    "line": int,
    "message": str,
    "snippet": str,
    "fix_hint": str,
}


def _validate_finding(data: Any, where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigurationError(f"lint document {where} must be an object")
    for name, expected in _FINDING_FIELDS.items():
        if not isinstance(data.get(name), expected) or isinstance(data.get(name), bool):
            raise ConfigurationError(
                f"lint document {where} field {name!r} must be a {expected.__name__}"
            )


def validate_lint_document(document: Any) -> None:
    """Validate a ``--json`` document; raises on the first violation."""
    if not isinstance(document, dict):
        raise ConfigurationError("lint document must be an object")
    if document.get("lint_schema_version") != LINT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported lint_schema_version {document.get('lint_schema_version')!r} "
            f"(expected {LINT_SCHEMA_VERSION})"
        )
    summary = document.get("summary")
    if not isinstance(summary, dict):
        raise ConfigurationError("lint document field 'summary' must be an object")
    for name in ("files_checked", "findings"):
        value = summary.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigurationError(
                f"lint summary field {name!r} must be a non-negative integer"
            )
    rules = document.get("rules")
    if not isinstance(rules, list):
        raise ConfigurationError("lint document field 'rules' must be a list")
    for index, rule in enumerate(rules):
        if not isinstance(rule, dict) or not all(
            isinstance(rule.get(key), str) for key in ("id", "category", "description")
        ):
            raise ConfigurationError(
                f"lint document rule {index} must have string id/category/description"
            )
    findings = document.get("findings")
    if not isinstance(findings, list):
        raise ConfigurationError("lint document field 'findings' must be a list")
    for index, item in enumerate(findings):
        _validate_finding(item, f"findings[{index}]")
    if len(findings) != summary["findings"]:
        raise ConfigurationError("lint summary 'findings' does not match the findings list")
