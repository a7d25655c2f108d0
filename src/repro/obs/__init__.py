"""Deterministic-safe observability: metrics, spans, exporters.

The paper is a profiling study; this package lets the reproduction
profile *itself* without perturbing it.  **Nothing is recorded unless a
collector is installed**, so instrumented hot paths cost one global
read when observability is off.  An installed collector only observes:
the run executes the same quanta, memo hits and monitor ticks as a
plain run (skipped quanta are counted, not re-run), so its artifacts
are byte-identical.

Three layers:

:mod:`repro.obs.registry`
    Counters, gauges and histograms, labelled by component / cell / PM.
:mod:`repro.obs.spans`
    Bounded span log; every span stamps wall-clock and (when a
    simulator is in scope) sim-clock start/end.
:mod:`repro.obs.export`
    OpenMetrics text + JSONL span exporters, strict re-parsers, and the
    ``--obs-dir`` directory writer consumed by ``repro obs``.

:mod:`repro.obs.runtime` owns the process-wide collector plus the cheap
``inc`` / ``set_gauge`` / ``observe`` / ``span`` helpers components
call; it is the only module here allowed to read the wall clock
(the REP011-audited funnel :func:`repro.obs.runtime.wall_now`).
"""

from repro.obs.export import (
    ObsExportError,
    parse_openmetrics,
    parse_spans_jsonl,
    render_openmetrics,
    render_spans_jsonl,
    write_obs_dir,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import (
    ObsCollector,
    collecting,
    default_enabled,
    inc,
    install,
    installed,
    observe,
    set_default,
    set_gauge,
    span,
    uninstall,
)
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsCollector",
    "ObsExportError",
    "Span",
    "SpanRecorder",
    "collecting",
    "default_enabled",
    "inc",
    "install",
    "installed",
    "observe",
    "parse_openmetrics",
    "parse_spans_jsonl",
    "render_openmetrics",
    "render_spans_jsonl",
    "set_default",
    "set_gauge",
    "span",
    "uninstall",
    "write_obs_dir",
]
