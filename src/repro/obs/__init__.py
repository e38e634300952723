"""Observability: tracing spans + metrics for the mapping pipeline.

Usage, from instrumented code (hot-path pattern)::

    from repro.obs import OBS

    with OBS.span("cover", circuit=name):
        ...
    if OBS.enabled:
        OBS.metrics.counter("dp.states_expanded").inc()

and from a driver::

    from repro.obs import OBS, observed

    with observed():
        result = lily_flow(net, library)
    print(result.obs.format_table())
    OBS.tracer.write_chrome_trace("trace.json")

With the session disabled (the default) the instrumentation costs one
attribute check per site; ``OBS.span`` returns a shared no-op context.

Beyond spans and metrics, the package carries the production-telemetry
pieces the serving stack uses: request-scoped structured event logs
(``repro.obs.events``), percentile-capable log-bucket histograms
(``repro.obs.metrics``), Prometheus text exposition
(``repro.obs.expo``) and a top-like live console
(``python -m repro.obs.monitor``).  See ``docs/OBSERVING.md``.
"""

from repro.obs.events import EventLog, new_request_id
from repro.obs.expo import format_prometheus, sanitize_metric_name
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    merge_histogram_summaries,
    merge_metrics_snapshots,
    percentile_from_buckets,
)
from repro.obs.report import (
    ObsReport,
    PhaseStat,
    build_report,
    merge_reports,
    peak_rss_mb,
)
from repro.obs.session import OBS, ObsSession, get_session, observed
from repro.obs.tracer import Span, Tracer

__all__ = [
    "OBS",
    "ObsSession",
    "get_session",
    "observed",
    "Tracer",
    "Span",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_histogram_summaries",
    "merge_metrics_snapshots",
    "percentile_from_buckets",
    "EventLog",
    "new_request_id",
    "format_prometheus",
    "sanitize_metric_name",
    "ObsReport",
    "PhaseStat",
    "build_report",
    "merge_reports",
    "peak_rss_mb",
]
