"""Observability: structured tracing, metrics and profiling hooks.

Three zero-dependency pieces, composable but independently usable:

* :mod:`repro.observability.tracebus` — the ring-buffered, schema-
  versioned event stream every instrumented component emits into;
* :mod:`repro.observability.metrics` — counters/gauges/histograms with
  JSON/CSV export;
* :mod:`repro.observability.profiling` — wall-clock probes around the
  MCKP DP, QPA and the simulation loop.

The usual entry point is the bundle::

    from repro.observability import Observability

    obs = Observability.enabled()
    system = OffloadingSystem(tasks, scenario="idle", observability=obs)
    report = system.run(horizon=10.0)
    obs.metrics.to_json()      # metrics snapshot
    obs.bus.to_jsonl()         # replayable event log
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from .profiling import (
    ProbeStats,
    Profiler,
    get_profiler,
    maybe_profiled,
    probe,
    profile_calls,
    profiled,
    set_profiler,
)
from .recorder import MetricsRecorder, Observability
from .tracebus import NULL_BUS, SCHEMA_VERSION, TraceBus, TraceEvent

__all__ = [
    "SCHEMA_VERSION",
    "TraceBus",
    "TraceEvent",
    "NULL_BUS",
    "Counter",
    "Gauge",
    "Histogram",
    "percentile",
    "MetricsRegistry",
    "MetricsRecorder",
    "Observability",
    "Profiler",
    "ProbeStats",
    "probe",
    "profile_calls",
    "maybe_profiled",
    "profiled",
    "set_profiler",
    "get_profiler",
]
