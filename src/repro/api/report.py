"""Registry-driven paper-vs-measured reporting (``EXPERIMENTS.md``).

:func:`generate_report` walks the experiment registry in registration
order and, for every experiment, summarizes what a
:class:`~repro.api.store.ResultStore` holds for it: how many runs, which
engines and seeds, which parameters the campaign swept, and the headline
lines of a deterministically chosen representative run (the experiment's
own ``summarize`` hook against the stored payload).  Experiments absent
from the store are listed with the command that would produce them, so
the document always covers the whole registry.

The output is byte-deterministic for a given store content — runtimes,
shard names and store paths are excluded — which is what lets CI assert
that the committed ``EXPERIMENTS.md`` matches a fresh ``python -m repro
run --all --fast`` + campaign run (``python -m repro report --check``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.api.analytics import ReplicateGroup, mean_std_ci, replicate_groups
from repro.api.registry import Experiment, iter_experiments
from repro.api.result import Result
from repro.api.store import ResultStore, representative

__all__ = ["generate_report", "write_report", "check_report", "format_param", "replicate_metrics_rows"]

_HEADER = """\
# EXPERIMENTS — paper vs measured

<!-- Generated by `python -m repro report`; do not edit by hand.
     Regenerate with:
       python -m repro run --all --fast --jobs 2 --store <dir>
       python -m repro run --specs examples/grids/fleet_grid.json --jobs 4 --store <dir>
       python -m repro run --specs examples/grids/per_grid.json --jobs 2 --store <dir>
       python -m repro report --store <dir> --output EXPERIMENTS.md -->

> **Provenance.**  The committed document is generated from the
> **fast campaign** — every experiment at its reduced `--fast` smoke
> parameters plus the `examples/grids/` sweeps — because CI regenerates
> and diff-checks it on every push, and full-fidelity runs would take
> hours there.  Numbers are therefore noisier than the paper's (fewer
> trials, fewer locations); a full-fidelity store published by a nightly
> job is the planned companion (see ROADMAP).  Where a campaign ran
> seed-replicates, the tables below report mean ± 95 % CI across them
> rather than a single draw.

Every registered experiment, in registry order, with the measured
headline of a representative stored run next to the paper artefact it
reproduces.  `runs` counts distinct invocations in the result store;
`swept` lists the parameters a campaign varied across them.
"""


def format_param(value: Any) -> str:
    """One canonical rendering of a parameter value in generated documents."""
    return repr(value)


def _swept_parameters(results: list[Result]) -> dict[str, list[str]]:
    """Parameter name → sorted distinct formatted values, for varying params only."""
    values: dict[str, dict[str, Any]] = {}
    for result in results:
        for name, value in result.params.items():
            if name == "seed":  # seeds get their own report line
                continue
            values.setdefault(name, {})[format_param(value)] = value
    swept = {}
    for name, distinct in sorted(values.items()):
        if len(distinct) < 2:
            continue
        try:
            ordered = sorted(distinct.values())
        except TypeError:
            ordered = [distinct[formatted] for formatted in sorted(distinct)]
        swept[name] = [format_param(value) for value in ordered]
    return swept


def replicate_metrics_rows(experiment: Experiment, group: ReplicateGroup) -> list[str]:
    """Markdown table (header + one row per metric) of a group's mean ± CI.

    The shared building block behind the replicate tables of both
    ``EXPERIMENTS.md`` and ``FIGURES.md``.  Empty when the experiment has
    no ``metrics`` hook, the group holds fewer than two replicates, or
    the hook yields no samples.
    """
    if experiment.metrics is None or group.replicates < 2:
        return []
    samples: dict[str, list[float]] = {}
    for result in group.results:
        for name, value in experiment.metrics(result.payload).items():
            samples.setdefault(name, []).append(float(value))
    if not samples:
        return []
    rows = ["| metric | mean | std | 95% CI half-width | n |", "|---|---|---|---|---|"]
    for name, values in samples.items():
        mean, std, half, n = mean_std_ci(values)
        rows.append(f"| `{name}` | {mean:.6g} | {std:.6g} | ±{half:.6g} | {n} |")
    return rows


def _replicate_lines(experiment: Experiment, results: list[Result], picked: Result) -> list[str]:
    """Mean ± CI columns for the representative grid point, when replicated.

    Only experiments with a ``metrics`` hook and at least one grid point
    the campaign ran under several seeds get the table; everything else
    keeps the single-run headline alone.
    """
    if experiment.metrics is None:
        return []
    groups = replicate_groups(results)
    replicated = [group for group in groups if group.replicates > 1]
    if not replicated:
        return []
    own = next(
        # Identity, not ==: params hold numpy arrays whose == is elementwise.
        (g for g in groups if any(member is picked for member in g.results)),
        None,
    )
    lines = [
        f"- replicated grid points: {len(replicated)} of {len(groups)} "
        f"(up to {max(g.replicates for g in replicated)} seeds)"
    ]
    if own is None or own.replicates < 2:
        own = replicated[0]
    rows = replicate_metrics_rows(experiment, own)
    if rows:
        seeds = ", ".join(str(seed) for seed in own.seeds)
        lines.extend(["", f"Replicated metrics ({own.engine} engine, seeds {seeds}):", "", *rows])
    return lines


def generate_report(store: ResultStore) -> str:
    """Render the paper-vs-measured document for *store* as Markdown."""
    by_experiment: dict[str, list[Result]] = {}
    for result in store.iter_results():
        by_experiment.setdefault(result.experiment, []).append(result)

    lines = [_HEADER]
    for experiment in iter_experiments():
        artifact = experiment.artifact or "beyond the paper"
        lines.append(f"## {experiment.name} — {experiment.title}")
        lines.append("")
        lines.append(f"*Paper artefact: {artifact}.*")
        lines.append("")
        results = by_experiment.get(experiment.name)
        if not results:
            lines.append(
                f"Not in this store — run `python -m repro run {experiment.name} --store <dir>` to add it."
            )
            lines.append("")
            continue
        engines = sorted({result.engine for result in results})
        seeds = sorted({result.seed for result in results if result.seed is not None})
        lines.append(f"- runs: {len(results)}")
        lines.append(f"- engines: {', '.join(engines)}")
        if seeds:
            shown = ", ".join(str(seed) for seed in seeds[:6])
            suffix = ", …" if len(seeds) > 6 else ""
            lines.append(f"- seeds: {shown}{suffix}")
        swept = _swept_parameters(results)
        for name, values in swept.items():
            shown = ", ".join(values[:8])
            suffix = ", …" if len(values) > 8 else ""
            lines.append(f"- swept `{name}`: {shown}{suffix}")
        picked = representative(results)
        fixed = {
            name: value
            for name, value in sorted(picked.params.items())
            if name not in swept and name != "seed"
        }
        if fixed:
            rendered = ", ".join(f"{name}={format_param(value)}" for name, value in fixed.items())
            lines.append(f"- parameters: {rendered}")
        lines.append("")
        seed_note = f", seed {picked.seed}" if picked.seed is not None else ""
        lines.append(f"Measured ({picked.engine} engine{seed_note}):")
        lines.append("")
        if experiment.summarize is not None:
            for line in experiment.summarize(picked.payload):
                lines.append(f"    {line}")
        else:
            lines.append("    (no summarize hook registered)")
        replicate_lines = _replicate_lines(experiment, results, picked)
        if replicate_lines:
            lines.append("")
            lines.extend(replicate_lines)
        lines.append("")
    return "\n".join(lines)


def write_report(store: ResultStore, path: str | Path) -> str:
    """Render the report and write it to *path*; returns the text."""
    text = generate_report(store)
    Path(path).write_text(text)
    return text


def check_report(store: ResultStore, path: str | Path) -> tuple[bool, str]:
    """Whether the document at *path* matches a fresh render of *store*.

    Returns ``(up_to_date, rendered_text)``; a missing file is simply
    out of date.
    """
    text = generate_report(store)
    target = Path(path)
    if not target.exists():
        return False, text
    return target.read_text() == text, text
