"""``repro.lint`` — the AST-based contract checker for the repo's invariants.

The platform's correctness rests on conventions that ordinary tests only
catch by accident: seeded-Generator-only randomness, byte-deterministic
document generation, telemetry isolation, complete driver registration,
typed exceptions and validated fabric documents.  This package turns
each into an enforced static rule — the cheap triage tier that runs
before the expensive test tier.

Layout:

* :mod:`repro.lint.engine` — :class:`Rule` registry, :class:`Finding`
  records, the pragma-aware file walker;
* :mod:`repro.lint.rules` — the RL002–RL007 catalogue;
* :mod:`repro.lint.baseline` — grandfathered findings, ratcheted to zero;
* :mod:`repro.lint.reporting` — text / strict-JSON / markdown output.

Shell entry point: ``python -m repro lint [PATHS] [--rule ID] [--json]
[--baseline FILE] [--check]`` (see :mod:`repro.api.cli`).
"""

from repro.lint.baseline import (
    Baseline,
    BaselineEntry,
    BaselineResult,
    apply_baseline,
    baseline_from_findings,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import (
    Finding,
    Rule,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
    register_rule,
    select_rules,
)
from repro.lint.reporting import (
    LINT_SCHEMA_VERSION,
    build_document,
    render_markdown,
    render_text,
    validate_lint_document,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineResult",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "Rule",
    "apply_baseline",
    "baseline_from_findings",
    "build_document",
    "fingerprint",
    "get_rule",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "render_markdown",
    "render_text",
    "select_rules",
    "validate_lint_document",
    "write_baseline",
]
