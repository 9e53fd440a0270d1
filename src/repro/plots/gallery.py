"""The registry-generated figure gallery (``FIGURES.md`` + ``figures/``).

Contract: :func:`generate_gallery` walks the experiment registry in
registration order and, for every experiment a
:class:`~repro.api.store.ResultStore` holds, renders its ``plot`` hook
against the deterministically chosen representative stored payload (the
smallest invocation key — the same pick ``EXPERIMENTS.md`` uses) and
emits one gallery section: image link, rendering provenance, parameters,
replicate coverage and, when the campaign ran seed-replicates, a
mean ± 95 % CI metrics table from :mod:`repro.api.analytics`.  Output is
byte-deterministic for a given store content — no runtimes, paths or
timestamps — which is what lets CI assert the committed gallery never
drifts (:func:`check_gallery`, the ``plot --check-manifest`` verb).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.api.analytics import ReplicateGroup, replicate_groups
from repro.api.registry import Experiment, iter_experiments
from repro.api.report import format_param, replicate_metrics_rows
from repro.api.result import Result
from repro.api.store import ResultStore, representative
from repro.exceptions import ReproError
from repro.plots.render import figure_filename, render_figure

__all__ = ["generate_gallery", "write_gallery", "check_gallery"]

_HEADER = """\
# FIGURES — the paper's figures, rendered from stored results

<!-- Generated by `python -m repro plot`; do not edit by hand.
     Regenerate with:
       python -m repro run --all --fast --jobs 2 --store <dir>
       python -m repro run --specs examples/grids/fleet_grid.json --jobs 4 --store <dir>
       python -m repro run --specs examples/grids/per_grid.json --jobs 2 --store <dir>
       python -m repro plot --store <dir> -->

Every registered experiment's figure, rendered by `python -m repro plot`
from stored result envelopes — zero driver re-execution.  The committed
images come from the reduced-fidelity **fast campaign** CI runs on every
push (same provenance as `EXPERIMENTS.md`); replicate counts and
confidence intervals below are computed across the seed-replicates the
campaign ran at the rendered grid point.
"""


def _group_of(groups: list[ReplicateGroup], picked: Result) -> ReplicateGroup:
    for group in groups:
        # Identity, not ==: Result fields hold numpy arrays, whose equality
        # is elementwise; the groups were built from these same objects.
        if any(member is picked for member in group.results):
            return group
    raise ReproError("representative result missing from its own replicate groups")


def _coverage_line(groups: list[ReplicateGroup]) -> str:
    replicated = [group for group in groups if group.replicates > 1]
    if not replicated:
        points = "grid point" if len(groups) == 1 else "grid points"
        return f"- replicate coverage: {len(groups)} {points} × 1 seed (point estimates, no CI)"
    most = max(group.replicates for group in replicated)
    points = "grid point" if len(groups) == 1 else "grid points"
    return (
        f"- replicate coverage: {len(groups)} {points}, "
        f"{len(replicated)} with seed-replicates (up to {most} seeds)"
    )


def _metrics_table(experiment: Experiment, group: ReplicateGroup) -> list[str]:
    """Mean ± CI rows for the representative grid point's replicates."""
    rows = replicate_metrics_rows(experiment, group)
    if not rows:
        return []
    return [
        f"Replicated metrics at the rendered grid point ({group.replicates} seeds):",
        "",
        *rows,
        "",
    ]


def generate_gallery(
    store: ResultStore,
    *,
    output: str | Path = "FIGURES.md",
    figures_dir: str | Path = "figures",
    format: str = "svg",
) -> tuple[str, dict[str, bytes]]:
    """Render the gallery document and every figure's image bytes.

    Returns ``(markdown, images)`` where ``images`` maps the file name
    inside *figures_dir* to rendered bytes.  *output* is only used to
    compute the relative image links, nothing is written — see
    :func:`write_gallery`.
    """
    by_experiment: dict[str, list[Result]] = {}
    for result in store.iter_results():
        by_experiment.setdefault(result.experiment, []).append(result)
    link_prefix = Path(os.path.relpath(Path(figures_dir), Path(output).parent or ".")).as_posix()

    lines = [_HEADER]
    images: dict[str, bytes] = {}
    for experiment in iter_experiments():
        artifact = experiment.artifact or "beyond the paper"
        lines.append(f"## {experiment.name} — {experiment.title}")
        lines.append("")
        lines.append(f"*Paper artefact: {artifact}.*")
        lines.append("")
        results = by_experiment.get(experiment.name)
        if not results:
            lines.append(
                f"Not in this store — run `python -m repro run {experiment.name} --store <dir>` "
                "and re-plot to add it."
            )
            lines.append("")
            continue
        if experiment.plot is None:
            lines.append("(no plot hook registered)")
            lines.append("")
            continue
        picked = representative(results)
        figure = experiment.plot(picked.payload)
        file_name = figure_filename(experiment.name, format=format)
        images[file_name] = render_figure(figure, format=format)

        lines.append(f"![{experiment.name}]({link_prefix}/{file_name})")
        lines.append("")
        if figure.caption:
            lines.append(f"*{figure.caption}*")
            lines.append("")
        seed_note = f", seed {picked.seed}" if picked.seed is not None else ""
        lines.append(f"- rendered from: {picked.engine} engine{seed_note}")
        params = {name: value for name, value in sorted(picked.params.items()) if name != "seed"}
        if params:
            rendered = ", ".join(f"{name}={format_param(value)}" for name, value in params.items())
            lines.append(f"- parameters: {rendered}")
        groups = replicate_groups(results)
        lines.append(_coverage_line(groups))
        lines.append("")
        lines.extend(_metrics_table(experiment, _group_of(groups, picked)))
    return "\n".join(lines), images


def write_gallery(
    store: ResultStore,
    *,
    output: str | Path = "FIGURES.md",
    figures_dir: str | Path = "figures",
    format: str = "svg",
) -> tuple[str, dict[str, bytes]]:
    """Render the gallery and write the document plus every image file."""
    text, images = generate_gallery(store, output=output, figures_dir=figures_dir, format=format)
    directory = Path(figures_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for file_name, data in images.items():
        (directory / file_name).write_bytes(data)
    document = Path(output)
    if document.parent != Path(""):
        document.parent.mkdir(parents=True, exist_ok=True)
    document.write_text(text)
    return text, images


def check_gallery(
    store: ResultStore,
    *,
    output: str | Path = "FIGURES.md",
    figures_dir: str | Path = "figures",
    format: str = "svg",
) -> tuple[bool, list[str]]:
    """Whether the committed gallery matches a fresh render of *store*.

    Returns ``(up_to_date, problems)`` where ``problems`` names every
    stale, missing or byte-different artefact.  Nothing is written.
    """
    text, images = generate_gallery(store, output=output, figures_dir=figures_dir, format=format)
    problems = []
    document = Path(output)
    if not document.exists():
        problems.append(f"{document} is missing")
    elif document.read_text() != text:
        problems.append(f"{document} does not match a fresh render of the store")
    directory = Path(figures_dir)
    for file_name, data in images.items():
        target = directory / file_name
        if not target.exists():
            problems.append(f"{target} is missing")
        elif target.read_bytes() != data:
            problems.append(f"{target} differs from a fresh render")
    if directory.is_dir():
        # A renamed or removed experiment must not leave its stale image
        # passing the drift gate forever.
        for orphan in sorted(directory.glob(f"*.{format}")):
            if orphan.name not in images:
                problems.append(f"{orphan} is orphaned (no registered experiment renders it)")
    return not problems, problems
