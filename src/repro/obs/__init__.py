"""``repro.obs`` — simulator-wide structured tracing and unified metrics.

Public surface:

* :class:`~repro.obs.trace.TraceSink` / :class:`~repro.obs.trace.MissSpan`
  — miss-lifecycle spans with typed events on both the OS and the HWDP
  hardware paths; zero overhead when no sink is attached.
* :class:`~repro.obs.metrics.MetricsRegistry` /
  :func:`~repro.obs.metrics.system_metrics` — one dotted-name query
  surface over every component's counters.
* :func:`~repro.obs.export.chrome_trace` and friends — Perfetto-loadable
  Chrome-trace-event JSON plus measured per-span latency breakdowns.
* :mod:`~repro.obs.runtime` — process-global activation used by the
  experiments CLI (``--trace`` / ``--metrics``).
"""

from repro.obs.export import (
    PhaseBreakdown,
    breakdown_report,
    chrome_trace,
    span_breakdown,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, system_metrics
from repro.obs.trace import (
    COALESCED,
    COMPLETED,
    FAILED,
    PATH_HWDP,
    PATH_HWDP_FALLBACK,
    PATH_OSDP,
    PATH_SWDP,
    SPURIOUS,
    InstantEvent,
    MissSpan,
    TraceSink,
)

__all__ = [
    "TraceSink",
    "MissSpan",
    "InstantEvent",
    "MetricsRegistry",
    "system_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "span_breakdown",
    "PhaseBreakdown",
    "breakdown_report",
    "COMPLETED",
    "COALESCED",
    "SPURIOUS",
    "FAILED",
    "PATH_OSDP",
    "PATH_SWDP",
    "PATH_HWDP",
    "PATH_HWDP_FALLBACK",
]
