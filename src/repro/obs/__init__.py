"""``repro.obs`` — runtime telemetry and tracing.

The platform's execution layers (runner, netsim, mc, store) emit
process-local counters, gauges and timed spans through
:mod:`repro.obs.metrics`; the :class:`~repro.api.runner.Runner` collects
them per run into a strict-JSON telemetry document riding on every
:class:`~repro.api.result.Result` envelope.  :mod:`repro.obs.stats`
aggregates those documents across a store (``python -m repro stats``).

Everything here is observability-only by contract: telemetry never
enters result identity (:func:`repro.api.store.result_key`), report
bytes or figure bytes, exactly like ``runtime_s``.
"""

from repro.obs.metrics import (
    TELEMETRY_VERSION,
    Collector,
    active_collector,
    collect,
    count,
    format_span_tree,
    gauge,
    span,
    structure,
    validate_telemetry,
)

__all__ = [
    "TELEMETRY_VERSION",
    "Collector",
    "active_collector",
    "collect",
    "count",
    "format_span_tree",
    "gauge",
    "span",
    "structure",
    "validate_telemetry",
]
