"""The repository benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_docs --seed 0 --seconds 20 --trace 0

``--workload`` is ``paper_docs``, ``fleet_100k`` or ``spec_churn`` (see
``perfbench/README.md``).  ``--seed`` derives every input; seed 0 is the
canonical one, at which ``paper_docs`` must reproduce the committed
documents byte for byte and ``fleet_100k`` the recorded fleet fingerprint.
The run repeats the workload's timed phase until ``--seconds`` are spent
(a plain run at least three times) and reports medians; plain repetitions
sample host speed as they run (``hostclock.py``) so that ``wall_ref_s``
can be scaled to a reference host.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates plain and traced
iterations and reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up is timed from here, before anything of repro is imported

import hostclock  # noqa: E402

if __name__ == "__main__":
    hostclock.start()  # host speed through set-up scales setup_s to the reference host

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import BenchmarkError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

#: Fresh processes that time set-up (imports, registry, inputs) in a plain
#: run.  ``setup_s`` is the median of these and the run's own set-up.  Host
#: speed drifts over tens of seconds; probes spread across the run's
#: repetitions see the drift the repetitions see, where probes bunched at
#: its start spread wider than the bound from run to run.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150

#: Plain repetitions every end-to-end run makes even when one outlasts
#: ``--seconds`` (a ``paper_docs`` repetition takes 15 to 30 s), so that
#: ``wall_ref_s`` is always a median of at least three.
MIN_PLAIN_ITERATIONS = 3


@dataclass
class Iteration:
    wall_s: float
    #: Mean time of the host-speed loop during a plain timed phase (None when traced).
    loop_s: float | None
    outcome: object
    problems: list[str]
    tracer: object | None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper_docs", "fleet_100k", "spec_churn"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the smoke check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path and make sure that is what imports."""
    if not (SOURCES / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SOURCES}")
    sys.path.insert(0, str(SOURCES))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCES / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}, not from {SOURCES}")


# ----------------------------------------------------------------- host record


def host_fingerprint() -> dict[str, object]:
    import numpy as np

    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def calibrate() -> tuple[float, float]:
    """Seconds for a fixed pure-Python loop and a fixed numpy loop (recorded, never gated)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    python_s = time.perf_counter() - start
    values = np.arange(1_000_000, dtype=float)
    start = time.perf_counter()
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    numpy_s = time.perf_counter() - start
    return python_s, numpy_s


# ------------------------------------------------------------------ measuring


def timed_setup(workload) -> tuple[dict, tuple[float, float]]:
    """This process's set-up: the workload's inputs and (host seconds, reference seconds) since start."""
    state = workload.setup()
    host_s = hostclock.now() - _START
    return state, (host_s, hostclock.at_reference(host_s, hostclock.stop()))


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """:func:`timed_setup` of one fresh process: interpreter imports through the workload's inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchmarkError(f"setup probe failed:\n{done.stderr}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup"])


def one_iteration(workload, traced: bool, workdir: Path, state: dict | None = None) -> Iteration:
    """One repetition; ``state`` is a set-up already made, else set-up runs (traced if ``traced``).

    A plain repetition samples host speed through its timed phase; a traced
    one does not, so the per-layer times hold no sampling.
    """
    from layers import Tracer
    from workloads import add_counters

    tracer = Tracer(workload.sites) if traced else None
    collector = None
    if traced:
        # Counters the program emits outside any Runner envelope (campaign-level
        # cache hits, a directly driven simulator) land here.
        from repro.obs.metrics import Collector

        collector = Collector()
    loop_s = None
    with tracer or nullcontext(), collector.activate() if collector else nullcontext():
        if state is None:
            state = workload.setup()
        if not traced:
            hostclock.start()
        try:
            start = hostclock.now()
            outcome = workload.run(state, workdir)
            wall_s = hostclock.now() - start
        finally:
            if not traced:
                loop_s = hostclock.stop()
    if collector is not None:
        add_counters(outcome.counters, [collector.to_dict()])
    problems = workload.check(state, outcome)
    outcome.data = {}
    shutil.rmtree(workdir, ignore_errors=True)
    return Iteration(wall_s, loop_s, outcome, problems, tracer)


def measure(workload, args: argparse.Namespace, workdir: Path, first_state: dict,
            setup_samples: list[tuple[float, float]]) -> list[Iteration]:
    """Repeat the workload until ``--seconds`` are spent (plain, then traced, alternately).

    The first repetition, always plain, reuses the set-up the run timed as
    its own ``setup_s`` sample.  A plain run adds ``SETUP_PROBES`` set-up
    probes to ``setup_samples``, spread over its expected length (the
    larger of ``--seconds`` and the minimum repetitions at the first one's
    pace); their time does not count against ``--seconds``.
    """
    iterations: list[Iteration] = []
    minimum = 2 if args.trace else MIN_PLAIN_ITERATIONS
    spent = 0.0
    probes = 0
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        state = first_state if not iterations else None
        start = time.perf_counter()
        iterations.append(one_iteration(workload, traced, workdir / f"iteration-{len(iterations)}", state))
        spent += time.perf_counter() - start
        done = len(iterations) >= minimum and spent * (1 + 0.5 / len(iterations)) >= args.seconds
        if not args.trace:
            expected_s = max(args.seconds, minimum * iterations[0].wall_s)
            due = SETUP_PROBES if done else min(SETUP_PROBES, math.ceil(SETUP_PROBES * spent / expected_s))
            setup_samples += [probe_setup(args) for _ in range(due - probes)]
            probes = max(probes, due)
        if done:
            return iterations


# -------------------------------------------------------------------- metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(iteration: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (0 for a layer the workload does not use)."""
    from layers import LayerStats
    from workloads import DRIVERS

    stats = iteration.tracer.stats
    counters = iteration.outcome.counters

    def layer(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    batched, heap = layer("netsim.batched.run"), layer("netsim.heap.run")
    cas, append, scan = layer("fabric.cas.hash"), layer("store.append"), layer("store.scan")
    values = {
        "netsim.batched.us_per_epoch": _ratio(1e6 * batched.total_s, batched.items.get("epochs", 0)),
        "netsim.batched.run_s": batched.self_s,
        "netsim.batched.init_s": layer("netsim.batched.init").self_s,
        "netsim.batched.epochs": batched.items.get("epochs", 0),
        "netsim.batched.tx_resolved": batched.items.get("tx_resolved", 0),
        "netsim.heap.run_s": heap.self_s,
        "netsim.heap.events_per_s": _ratio(counters.get("netsim.events.dispatched", 0), heap.total_s),
        "netsim.medium.fast_path_frac": _ratio(
            counters.get("netsim.medium.fast_path_hits", 0), counters.get("netsim.medium.resolutions", 0)
        ),
        "mc.sweep.run_s": layer("mc.sweep").self_s,
        "mc.viterbi.codewords_per_s": _ratio(
            counters.get("mc.viterbi.codewords_decoded", 0), layer("mc.viterbi").total_s
        ),
        "mc.link_abstraction.tables_built": counters.get("mc.link_abstraction.tables_built", 0),
        "channel.link_realisations": counters.get("channel.link_realisations", 0),
        "runner.overhead_ms_per_spec": 0.0,
        "fabric.cas.hash_ms": 1e3 * cas.total_s,
        "fabric.cas.hash_calls": cas.calls,
        "store.append_ms": _ratio(1e3 * append.total_s, append.calls),
        "store.scan_docs_per_s": _ratio(scan.items.get("yielded", 0), scan.total_s),
        "store.query_s": layer("store.query").self_s,
        "store.bytes_per_envelope": 0.0,
        "analytics.aggregate_s": layer("analytics").self_s,
        "report.render_s": layer("report.render").self_s,
        "plots.gallery_render_s": layer("plots.gallery").self_s,
        **{f"driver_s.{name}": 0.0 for name in DRIVERS},
    }
    values.update(iteration.outcome.layer)
    return values


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def collect_metrics(iterations: list[Iteration], setup_samples: list[tuple[float, float]],
                    calibration: tuple[float, float]) -> tuple[dict, dict, dict]:
    """(end-to-end, per-layer, workload figures), each name -> value."""
    plain = [it for it in iterations if it.tracer is None]
    traced = [it for it in iterations if it.tracer is not None]
    wall_s = statistics.median(it.wall_s for it in plain)
    end_to_end = {
        "wall_ref_s": statistics.median(hostclock.at_reference(it.wall_s, it.loop_s) for it in plain),
        "setup_s": statistics.median(reference_s for _, reference_s in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    figures = median_of([{name: value for name, (value, _) in it.outcome.summary.items()} for it in plain])
    figures["wall_s"] = wall_s
    figures["setup_host_s"] = statistics.median(host_s for host_s, _ in setup_samples)
    figures["host.loop_ms"] = 1e3 * statistics.median(it.loop_s for it in plain)
    per_layer: dict[str, float] = {}
    if traced:
        per_layer = median_of([layer_values(it) for it in traced])
        per_layer["trace.overhead_frac"] = statistics.median(it.wall_s for it in traced) / wall_s - 1.0
        per_layer["host.calibration_s"] = sum(calibration)
    return end_to_end, per_layer, figures


def select(declared: list[dict], measured: dict[str, float]) -> dict[str, dict]:
    missing = [entry["name"] for entry in declared if entry["name"] not in measured]
    if missing:
        raise BenchmarkError(f"benchmark measured no value for {missing}")
    return {entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]} for entry in declared}


def print_table(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")


# ----------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    os.chdir(ROOT)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    state, setup = timed_setup(workload)
    if args.setup_probe:
        print(json.dumps({"setup": setup}))
        return 0
    setup_samples = [setup]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_fingerprint()
    calibration = calibrate()
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    started = time.perf_counter()
    try:
        iterations = measure(workload, args, scratch, state, setup_samples)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    measured_s = time.perf_counter() - started
    for it in iterations:
        if it.tracer is not None and it.tracer.silent_sites():
            raise BenchmarkError(f"wrappers recorded zero calls: {it.tracer.silent_sites()}")

    end_to_end, per_layer, figures = collect_metrics(iterations, setup_samples, calibration)
    attempted = sum(it.outcome.attempted for it in iterations)
    failed = sum(min(len(it.problems), it.outcome.attempted) for it in iterations)
    figures["failed_frac"] = failed / attempted
    units = {entry["name"]: entry["unit"] for entry in declared["end_to_end"] + declared["per_layer"]}
    units.update({name: unit for it in iterations for name, (_, unit) in it.outcome.summary.items()})
    units.update({"failed_frac": "ratio", "wall_s": "s", "setup_host_s": "s", "host.loop_ms": "ms"})

    traced_count = sum(it.tracer is not None for it in iterations)
    print(f"== perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(iterations)} iterations ({traced_count} traced) in {measured_s:.1f} s")
    print("host: " + " ".join(f"{key}={value}" for key, value in host.items())
          + f" calibration_s={sum(calibration):.4f} (python {calibration[0]:.4f}, numpy {calibration[1]:.4f})")
    setup_text = ", ".join(f"{host_s:.4f}/{ref_s:.4f}" for host_s, ref_s in setup_samples)
    print(f"set-up samples, host/reference s: {setup_text}")
    print(f"wall_s samples: {', '.join(f'{it.wall_s:.4f}' + ('t' if it.tracer else '') for it in iterations)}")
    print(f"host loop ms: {', '.join(f'{1e3 * it.loop_s:.3f}' for it in iterations if it.loop_s)}")
    print_table("end-to-end, gated by BENCHMARK.json (plain iterations):", end_to_end, units)
    print_table("workload figures (plain iterations):", figures, units)
    if per_layer:
        ordered = {entry["name"]: per_layer[entry["name"]] for entry in declared["per_layer"]}
        print_table("per-layer (traced iterations):", ordered, units)
    problems = [problem for it in iterations for problem in it.problems]
    for problem in problems:
        print(f"FAILED: {problem}")

    kind, measured = ("per_layer", per_layer) if args.trace else ("end_to_end", end_to_end)
    metrics = select(declared[kind], measured)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
