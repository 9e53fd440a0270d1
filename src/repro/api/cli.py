"""``python -m repro`` — reproduce the paper from the shell.

Subcommands
-----------

``list``
    One line per registered experiment: name, engines, paper artefact,
    title.  ``--json`` emits the same as machine-readable JSON.
``info NAME``
    Title, module, engines and the full parameter schema with defaults —
    all read from the registry entry's capability table.
``run NAME [NAME ...]``
    Execute experiments through the :class:`repro.api.Runner` and print
    each one's headline summary.  ``--engine``/``--seed`` set the
    dispatch policy, ``--set key=value`` overrides individual
    parameters (values parsed as JSON, then as Python literals, then as
    bare strings), ``--fast`` applies each experiment's reduced smoke
    parameters, ``--json PATH`` writes a single result envelope and
    ``--json-dir DIR`` one ``<name>.json`` per result.
``run --all``
    The same for every registered experiment — the whole paper in one
    command.  ``--validate`` round-trips every envelope through the JSON
    schema and fails on any mismatch (the CI smoke job runs this).
``run --specs GRID.json``
    Execute a declarative campaign: each JSON document's sweeps/specs
    expand to a batch (see :mod:`repro.api.campaign`; ``--specs`` is
    repeatable — batches concatenate in order, duplicates are rejected).
    ``--jobs N`` shards any batch (``--specs`` or ``--all``) across N
    worker processes — bit-identical results regardless of N — and
    ``--store DIR`` streams the envelopes into a
    :class:`~repro.api.store.ResultStore` (reruns skip work the store
    already holds).  A stored result is reused only when its invocation
    matches and it was produced by the current code — the source text
    of the whole package — so any edit, a comment included, re-executes;
    ``--no-resume`` (which requires ``--store``) re-executes regardless.
    ``--shard-index I --shard-count N`` executes one deterministic slice
    of the expanded batch (:mod:`repro.fabric.slicing`) and ``--manifest
    PATH`` records the shard's campaign manifest for fan-in validation.
``report --store DIR``
    Regenerate the registry-driven paper-vs-measured ``EXPERIMENTS.md``
    from a result store.  ``--check`` verifies the committed document is
    up to date instead of writing it.
``plot --store DIR``
    Render every registered experiment's figure from the stored result
    envelopes — zero driver re-execution — into ``--output-dir``
    (default ``figures/``) and write the ``FIGURES.md`` gallery next to
    ``EXPERIMENTS.md``.  ``--experiment NAME`` (repeatable) restricts
    rendering, ``--format png`` switches to the optional matplotlib
    backend (the default ``svg`` backend is built in and
    byte-deterministic), and ``--check-manifest`` verifies the committed
    gallery and images match a fresh render instead of writing.
``stats --store DIR``
    Per-experiment telemetry tables from the envelopes' attached
    :mod:`repro.obs` documents: wall time mean/p50/p95, span counts and
    events/sec, plus every counter's store-wide total and the
    campaign-level counters (resume hits and misses, merge fan-in) from
    the store's telemetry sidecar.
    ``--experiment NAME`` restricts the view and ``--json`` emits the
    same as machine-readable JSON.
``trace NAME``
    Execute one run (same ``--engine``/``--seed``/``--set``/``--fast``
    policy as ``run``) and print its telemetry span tree and counters —
    the quickest way to see where a driver spends its time.
``merge --into DIR SOURCE [SOURCE ...]``
    Fold source stores into a destination store, logging each source's
    :class:`~repro.api.store.MergeStats` (ingested / deduplicated /
    torn lines skipped).  Sources may be local directories or
    ``file://``/``http(s)://`` shard URIs; ``--manifest PATH``
    (repeatable) validates and combines campaign manifests first and
    merges every shard URI they list, and ``--json`` emits the
    per-source stats machine-readably.
``lint [PATHS ...]``
    Run the :mod:`repro.lint` contract checker (RNG discipline,
    determinism, telemetry isolation, registry completeness, exception
    hygiene, document validation) over the given paths (default
    ``src/repro``).  ``--rule ID`` restricts to specific rules,
    ``--json`` emits the strict schema-versioned document and
    ``--markdown PATH`` writes the CI summary table.  Any finding fails
    the run (exit 1); a ``# lint-ok: RLnnn -- reason`` pragma beside the
    code is the only way to excuse one.  Paths that hold no Python file
    are an error, not a clean run.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path
from typing import Any

from repro.api.registry import KNOWN_ENGINES, Experiment, get_experiment, iter_experiments
from repro.api.report import check_report, generate_report, write_report
from repro.api.result import Result, validate_result_dict
from repro.api.runner import Runner
from repro.api.spec import ExperimentSpec
from repro.api.store import ResultStore, representative
from repro.exceptions import ReproError
from repro.fabric.manifest import (
    CampaignManifest,
    ShardEntry,
    combine_manifests,
    grid_hash,
    read_manifest,
    write_manifest,
)
from repro.fabric.slicing import read_spec_files, shard_slice
from repro.lint import build_document, lint_paths, render_markdown, render_text, select_rules
from repro.obs.metrics import Collector, format_span_tree
from repro.obs.stats import campaign_counter_totals, counter_totals, stats_frame
from repro.plots.gallery import check_gallery, write_gallery
from repro.plots.render import FORMATS, figure_filename, render_experiment

__all__ = ["main"]

#: Unquoted words that are neither JSON nor Python literals pass through as
#: strings (`--set profile=contact_lens`); anything else must parse.
_BARE_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*")

_ENGINE_HELP = f"engine to dispatch to ({'/'.join(KNOWN_ENGINES)})"


def _parse_value(key: str, raw: str) -> Any:
    """Parse an override value: JSON first, Python literal second, bare word last."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        pass
    if _BARE_WORD.fullmatch(raw):
        return raw
    raise argparse.ArgumentTypeError(
        f"cannot parse value {raw!r} for {key!r}: not JSON (try {key}=[1,2] or {key}=true), "
        f"not a Python literal, and not a bare word"
    )


def _parse_override(text: str) -> tuple[str, Any]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key, _parse_value(key, raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified front door to the paper's experiments (registry, campaigns, JSON result stores).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list every registered experiment")
    list_parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    info_parser = sub.add_parser("info", help="show one experiment's schema")
    info_parser.add_argument("name", help="experiment name (see `list`)")

    run_parser = sub.add_parser("run", help="run one, several, all, or a grid of experiments")
    run_parser.add_argument("names", nargs="*", help="experiment names (see `list`)")
    run_parser.add_argument("--all", action="store_true", help="run every registered experiment")
    run_parser.add_argument(
        "--specs",
        action="append",
        default=None,
        metavar="GRID.json",
        help="declarative sweep/spec document to expand and run "
        "(repeatable; batches concatenate in order, duplicate specs are rejected)",
    )
    run_parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help="with --specs: execute only shard I of --shard-count disjoint slices of the expanded batch",
    )
    run_parser.add_argument(
        "--shard-count",
        type=int,
        default=None,
        metavar="N",
        help="with --specs: total number of shards the batch is sliced into",
    )
    run_parser.add_argument("--engine", default=None, help=_ENGINE_HELP)
    run_parser.add_argument("--seed", type=int, default=None, help="seed override for seedable experiments")
    run_parser.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        type=_parse_override,
        action="append",
        default=[],
        help="parameter override (repeatable; value parsed as JSON, then as a Python literal)",
    )
    run_parser.add_argument("--fast", action="store_true", help="use each experiment's reduced smoke parameters")
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes for batch runs (--all / --specs)"
    )
    run_parser.add_argument(
        "--store", default=None, metavar="DIR", help="append result envelopes to this store (resumes partial runs)"
    )
    run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="with --store: re-execute specs even when the store already holds their results for the current code",
    )
    run_parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="with --specs: write a campaign manifest for this (shard of the) run after it completes",
    )
    run_parser.add_argument("--json", dest="json_path", default=None, help="write the result envelope to this file")
    run_parser.add_argument("--json-dir", default=None, help="write one <name>.json envelope per result here")
    run_parser.add_argument(
        "--validate",
        action="store_true",
        help="validate every envelope against the result schema and check the JSON round trip",
    )
    run_parser.add_argument("--quiet", action="store_true", help="suppress per-experiment summaries")

    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md from a result store")
    report_parser.add_argument("--store", required=True, metavar="DIR", help="result store to report on")
    report_parser.add_argument(
        "--output",
        default="EXPERIMENTS.md",
        metavar="PATH",
        help="document to write (default: EXPERIMENTS.md; '-' prints to stdout)",
    )
    report_parser.add_argument(
        "--check",
        action="store_true",
        help="verify the output document matches the store instead of writing it",
    )

    plot_parser = sub.add_parser("plot", help="render the paper's figures from a result store")
    plot_parser.add_argument("--store", required=True, metavar="DIR", help="result store to render from")
    plot_parser.add_argument(
        "--experiment",
        dest="experiments",
        metavar="NAME",
        action="append",
        default=[],
        help="render only this experiment's figure (repeatable; skips the gallery document)",
    )
    plot_parser.add_argument(
        "--output-dir", default="figures", metavar="DIR", help="directory the images are written to"
    )
    plot_parser.add_argument(
        "--format",
        default="svg",
        choices=FORMATS,
        help="image format: svg (built-in, deterministic) or png (requires matplotlib)",
    )
    plot_parser.add_argument(
        "--gallery",
        default=None,
        metavar="PATH",
        help="gallery document to write (default: FIGURES.md for the default output dir, "
        "<output-dir>/FIGURES.md otherwise — a custom output dir never touches the committed gallery)",
    )
    plot_parser.add_argument(
        "--check-manifest",
        action="store_true",
        help="verify the committed gallery and images match a fresh render instead of writing",
    )

    stats_parser = sub.add_parser("stats", help="summarize a store's telemetry per experiment")
    stats_parser.add_argument("--store", required=True, metavar="DIR", help="result store to summarize")
    stats_parser.add_argument(
        "--experiment", default=None, metavar="NAME", help="restrict the summary to one experiment"
    )
    stats_parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    trace_parser = sub.add_parser("trace", help="run one experiment and print its span tree")
    trace_parser.add_argument("name", help="experiment name (see `list`)")
    trace_parser.add_argument("--engine", default=None, help=_ENGINE_HELP)
    trace_parser.add_argument("--seed", type=int, default=None, help="seed override for seedable experiments")
    trace_parser.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        type=_parse_override,
        action="append",
        default=[],
        help="parameter override (repeatable; value parsed as JSON, then as a Python literal)",
    )
    trace_parser.add_argument("--fast", action="store_true", help="use the experiment's reduced smoke parameters")

    merge_parser = sub.add_parser("merge", help="fold source stores (or shard URIs) into a destination store")
    merge_parser.add_argument(
        "sources",
        nargs="*",
        metavar="SOURCE",
        help="store directories or file://|http(s):// shard URIs to merge from",
    )
    merge_parser.add_argument("--into", required=True, metavar="DIR", help="destination store directory")
    merge_parser.add_argument(
        "--manifest",
        dest="manifests",
        metavar="PATH",
        action="append",
        default=[],
        help="campaign manifest(s) to fan in from (repeatable; validated and combined first, "
        "then every shard URI they list is merged)",
    )
    merge_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable per-source MergeStats JSON"
    )

    lint_parser = sub.add_parser("lint", help="check the repo's static contracts (repro.lint)")
    lint_parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH", help="files or directories to lint (default: src/repro)"
    )
    lint_parser.add_argument(
        "--rule",
        dest="rules",
        metavar="ID",
        action="append",
        default=[],
        help="run only this rule (repeatable; see --list-rules)",
    )
    lint_parser.add_argument("--list-rules", action="store_true", help="list the rule catalogue and exit")
    lint_parser.add_argument("--json", action="store_true", help="emit the strict schema-versioned JSON document")
    lint_parser.add_argument(
        "--markdown", default=None, metavar="PATH", help="also write a findings table for CI job summaries"
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    experiments = iter_experiments()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": e.name,
                        "title": e.title,
                        "artifact": e.artifact,
                        "engines": list(e.engine_names),
                        "module": e.module,
                    }
                    for e in experiments
                ],
                indent=2,
            )
        )
        return 0
    width = max(len(e.name) for e in experiments)
    engines_width = max(len(",".join(e.engine_names)) for e in experiments)
    for experiment in experiments:
        engines = ",".join(experiment.engine_names)
        print(f"{experiment.name.ljust(width)}  {engines.ljust(engines_width)}  {experiment.title}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.name)
    print(f"{experiment.name} — {experiment.title}")
    if experiment.description:
        print(experiment.description)
    print(f"module:  {experiment.module}")
    print(f"engines: {', '.join(experiment.engine_names)}")
    print(f"artifact: {experiment.artifact or '(beyond the paper)'}")
    print("parameters:")
    for parameter in experiment.parameters:
        print(f"  {parameter.name} = {parameter.default!r}")
    if experiment.fast_params:
        print(f"fast parameters (--fast): {experiment.fast_params}")
    return 0


def _check_envelope(result: Result) -> None:
    document = json.loads(result.to_json())
    validate_result_dict(document)
    restored = Result.from_dict(document)
    if not restored.same_payload(result):
        raise ReproError(f"result for {result.experiment!r} did not survive the JSON round trip")


def _emit(result: Result, experiment: Experiment, args: argparse.Namespace) -> None:
    if args.validate:
        _check_envelope(result)
    if args.json_dir:
        directory = Path(args.json_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{result.experiment}.json").write_text(result.to_json(indent=2))
    if args.json_path:
        Path(args.json_path).write_text(result.to_json(indent=2))
    if not args.quiet:
        print(f"== {experiment.title} [{result.engine}, {result.runtime_s:.2f} s] ==")
        if experiment.summarize is not None:
            for line in experiment.summarize(result.payload):
                print(f"  {line}")
        if args.validate:
            print("  result envelope validated against the schema")


def _run_campaign(
    specs: list[ExperimentSpec],
    args: argparse.Namespace,
    *,
    full_batch: list[ExperimentSpec] | None = None,
) -> int:
    """Batch path: sharded execution, optional store, one progress line per spec.

    ``full_batch`` is the whole expanded grid when *specs* is a shard
    slice of it — the campaign manifest hashes the full batch so shards
    of different grids can never be fanned back in together.
    """
    store = ResultStore(args.store) if args.store else None
    runner = Runner(seed=args.seed, engine=args.engine, jobs=args.jobs)
    total = len(specs)
    counts = {"ran": 0, "cached": 0}

    def on_result(index: int, result: Result, was_cached: bool) -> None:
        counts["cached" if was_cached else "ran"] += 1
        if args.validate and not was_cached:
            _check_envelope(result)
        if not args.quiet:
            state = "cached" if was_cached else f"{result.runtime_s:.2f} s"
            seed = f" seed={result.seed}" if result.seed is not None else ""
            print(f"[{index + 1}/{total}] {result.experiment} [{result.engine}]{seed} {state}")

    # The campaign collector sees what no per-run document can: resume
    # hits and misses happen in this process, between driver calls.  It
    # lands in the store's telemetry sidecar, never inside an envelope.
    collector = Collector()
    with collector.activate():
        runner.run_batch(specs, store=store, resume=not args.no_resume, on_result=on_result)
    if store is not None and collector.counters:
        store.append_campaign_telemetry(collector.to_dict())
    summary = f"{counts['ran']} executed, {counts['cached']} reused"
    if store is not None:
        summary += f"; store {store.root} now holds {len(store)} result(s)"
    print(f"campaign: {total} spec(s), {summary}")
    if args.manifest:
        batch = full_batch if full_batch is not None else specs
        shard_count = args.shard_count if args.shard_count is not None else 1
        shard_index = args.shard_index if args.shard_index is not None else 0
        manifest = CampaignManifest(
            grid_hash=grid_hash(batch),
            spec_count=len(batch),
            shard_count=shard_count,
            shards=(
                ShardEntry(
                    index=shard_index,
                    status="complete",
                    uri=Path(store.root).resolve().as_uri() if store is not None else None,
                    result_count=total,
                ),
            ),
        )
        write_manifest(args.manifest, manifest)
        print(
            f"wrote manifest {args.manifest} "
            f"(shard {shard_index + 1}/{shard_count}, grid {manifest.grid_hash[:12]})"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    modes = sum([bool(args.names), args.all, args.specs is not None])
    if modes != 1:
        print("error: give experiment names, --all, or --specs (exactly one)", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if (args.shard_index is None) != (args.shard_count is None):
        print("error: --shard-index and --shard-count come as a pair", file=sys.stderr)
        return 2
    if args.shard_count is not None and args.specs is None:
        print("error: --shard-index/--shard-count require --specs", file=sys.stderr)
        return 2
    if args.manifest is not None and args.specs is None:
        print("error: --manifest requires --specs (the manifest records the grid identity)", file=sys.stderr)
        return 2
    if args.no_resume and args.store is None:
        print("error: --no-resume requires --store (without a store nothing is reused)", file=sys.stderr)
        return 2
    overrides = dict(args.overrides)

    if args.specs is not None:
        if overrides or args.fast:
            print("error: --set/--fast do not apply to --specs (edit the grid document)", file=sys.stderr)
            return 2
        if args.json_path or args.json_dir:
            print("error: use --store (not --json/--json-dir) with --specs", file=sys.stderr)
            return 2
        batch = read_spec_files(args.specs)
        selected = batch
        if args.shard_count is not None:
            selected = shard_slice(batch, args.shard_index, args.shard_count)
        return _run_campaign(selected, args, full_batch=batch)

    names = [e.name for e in iter_experiments()] if args.all else args.names
    if args.json_path and len(names) > 1:
        print("error: --json takes a single experiment; use --json-dir for several", file=sys.stderr)
        return 2
    if overrides and len(names) > 1:
        print("error: --set applies to a single experiment", file=sys.stderr)
        return 2

    if args.jobs > 1 or args.store:
        if args.json_path or args.json_dir:
            print("error: use --store (not --json/--json-dir) with --jobs/--store runs", file=sys.stderr)
            return 2
        specs = []
        for name in names:
            experiment = get_experiment(name)
            params = dict(experiment.fast_params) if args.fast else {}
            params.update(overrides)
            specs.append(ExperimentSpec(experiment=name, params=params))
        return _run_campaign(specs, args)

    runner = Runner(seed=args.seed, engine=args.engine)
    for name in names:
        experiment = get_experiment(name)
        params = dict(experiment.fast_params) if args.fast else {}
        params.update(overrides)
        result = runner.run(name, params=params)
        _emit(result, experiment, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.check:
        up_to_date, _ = check_report(store, args.output)
        if not up_to_date:
            print(
                f"error: {args.output} is out of date with store {args.store}; "
                f"regenerate with: python -m repro report --store {args.store} --output {args.output}",
                file=sys.stderr,
            )
            return 1
        print(f"{args.output} is up to date with store {args.store}")
        return 0
    if args.output == "-":
        print(generate_report(store))
        return 0
    write_report(store, args.output)
    print(f"wrote {args.output} from store {args.store}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    # A custom --output-dir carries its own gallery document by default, so
    # "render elsewhere" never clobbers the committed FIGURES.md.
    gallery = args.gallery
    if gallery is None:
        gallery = "FIGURES.md" if args.output_dir == "figures" else str(Path(args.output_dir) / "FIGURES.md")

    if args.check_manifest:
        if args.experiments:
            print("error: --check-manifest verifies the whole gallery; drop --experiment", file=sys.stderr)
            return 2
        up_to_date, problems = check_gallery(
            store, output=gallery, figures_dir=args.output_dir, format=args.format
        )
        if not up_to_date:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            print(
                f"regenerate with: python -m repro plot --store {args.store} "
                f"--output-dir {args.output_dir} --format {args.format}",
                file=sys.stderr,
            )
            return 1
        print(f"{gallery} and {args.output_dir}/ are up to date with store {args.store}")
        return 0

    if args.experiments:
        for name in args.experiments:
            get_experiment(name)  # unknown names fail before any file is written
        wanted = set(args.experiments)
        by_experiment: dict[str, list[Result]] = {}
        for result in store.iter_results():  # one decode pass for any number of names
            if result.experiment in wanted:
                by_experiment.setdefault(result.experiment, []).append(result)
        missing = [name for name in args.experiments if name not in by_experiment]
        if missing:
            print(f"error: store {args.store} holds no results for {missing}", file=sys.stderr)
            return 1
        directory = Path(args.output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name in args.experiments:
            picked = representative(by_experiment[name])
            data = render_experiment(name, picked.payload, format=args.format)
            target = directory / figure_filename(name, format=args.format)
            target.write_bytes(data)
            print(f"wrote {target}")
        return 0

    _, images = write_gallery(store, output=gallery, figures_dir=args.output_dir, format=args.format)
    for file_name in images:
        print(f"wrote {Path(args.output_dir) / file_name}")
    print(f"wrote {gallery} ({len(images)} figure(s) from store {args.store})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    results = list(store.iter_results())
    if args.experiment is not None:
        get_experiment(args.experiment)  # unknown names fail loudly
        results = [result for result in results if result.experiment == args.experiment]
    if not results:
        print(f"error: store {args.store} holds no matching results", file=sys.stderr)
        return 1
    frame = stats_frame(results)
    totals = counter_totals(results)
    campaign = campaign_counter_totals(store)
    if args.json:
        print(
            json.dumps(
                {"experiments": frame.rows(), "counters": totals, "campaign_counters": campaign},
                indent=2,
            )
        )
        return 0
    width = max(len(name) for name in frame.column("experiment"))
    header = f"{'experiment'.ljust(width)}  runs  obs  mean s   p50 s    p95 s    spans  events/s"
    print(header)
    print("-" * len(header))
    for row in frame.rows():
        print(
            f"{row['experiment'].ljust(width)}  {row['runs']:4d}  {row['observed']:3d}  "
            f"{row['runtime_mean_s']:7.3f}  {row['runtime_p50_s']:7.3f}  {row['runtime_p95_s']:7.3f}  "
            f"{row['spans']:5d}  {row['events_per_s']:8.0f}"
        )
    if totals:
        print("\ncounters (store-wide totals):")
        name_width = max(len(name) for name in totals)
        for name, value in totals.items():
            print(f"  {name.ljust(name_width)}  {value}")
    if campaign:
        print("\ncampaign counters (resume + fan-in totals):")
        name_width = max(len(name) for name in campaign)
        for name, value in campaign.items():
            print(f"  {name.ljust(name_width)}  {value}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.name)
    params = dict(experiment.fast_params) if args.fast else {}
    params.update(dict(args.overrides))
    result = Runner(seed=args.seed, engine=args.engine).run(args.name, params=params)
    print(f"== {experiment.title} [{result.engine}, {result.runtime_s:.2f} s] ==")
    for line in format_span_tree(result.telemetry):
        print(line)
    counters = result.telemetry["counters"]
    if counters:
        print("counters:")
        name_width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name.ljust(name_width)}  {counters[name]}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    sources = list(args.sources)
    combined: CampaignManifest | None = None
    if args.manifests:
        # Fan-in gate: the manifests must reassemble one complete campaign
        # before a single envelope moves — a missing or conflicting shard
        # aborts here rather than publishing a partial grid.
        combined = combine_manifests([read_manifest(path) for path in args.manifests])
        sources.extend(entry.uri for entry in combined.shards if entry.uri is not None)
    if not sources:
        print("error: give SOURCE stores/URIs and/or --manifest files listing shard URIs", file=sys.stderr)
        return 2
    destination = ResultStore(args.into)
    merged: list[tuple[str, Any]] = []
    ingested = 0
    for source in sources:
        stats = destination.merge(source)
        merged.append((source, stats))
        ingested += stats.ingested
        if not args.json:
            print(
                f"{source}: {stats.ingested} ingested, {stats.deduped} deduplicated, "
                f"{stats.torn_lines_skipped} torn line(s) skipped"
            )
    if args.json:
        document: dict[str, Any] = {
            "sources": [{"source": source, **stats.to_dict()} for source, stats in merged],
            "ingested": ingested,
            "deduped": sum(stats.deduped for _, stats in merged),
            "torn_lines_skipped": sum(stats.torn_lines_skipped for _, stats in merged),
            "results": len(destination),
        }
        if combined is not None:
            document["manifest"] = combined.to_dict()
        print(json.dumps(document, indent=2))
        return 0
    print(f"store {args.into} now holds {len(destination)} result(s) (+{ingested})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    rules = select_rules(args.rules or None)
    if args.list_rules:
        width = max(len(rule.id) for rule in rules)
        category_width = max(len(rule.category) for rule in rules)
        for rule in rules:
            print(f"{rule.id.ljust(width)}  {rule.category.ljust(category_width)}  {rule.description}")
        return 0

    paths = args.paths or ["src/repro"]
    findings, files_checked = lint_paths(paths, args.rules or None)

    if args.markdown:
        Path(args.markdown).write_text(render_markdown(findings))
    if args.json:
        print(json.dumps(build_document(findings, rules=rules, files_checked=files_checked), indent=2))
    else:
        for line in render_text(findings):
            print(line)
        state = "failed" if findings else "clean"
        print(f"lint: {files_checked} file(s), {len(findings)} finding(s) — {state}")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "plot":
            return _cmd_plot(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "lint":
            return _cmd_lint(args)
        return _cmd_run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
