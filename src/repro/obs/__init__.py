"""repro.obs — observability: spans, metrics, trace export.

The subsystem the paper's own methodology begins with: Figure 1's
component breakdown is a profile, and every optimisation the paper makes
(FFT filtering, load balancing, loop restructuring) was chosen by
looking at one.  ``repro.obs`` gives the virtual machine the same
ability at full fidelity:

* hierarchical **spans** over virtual time (``with ctx.span("filter.fft")``
  inside rank programs; coarse phases recorded automatically by
  ``ctx.region``), plus zero-duration **instants** for retries,
  checkpoints, restarts and rank failures;
* a **metrics registry** of counters and gauges (``sim.messages_sent``,
  ``agcm.columns_moved``, ...);
* **exporters**: Chrome-trace/Perfetto JSON (one track per rank),
  flamegraph folded stacks, and a metrics summary that rebuilds the
  Figure-1 fraction tree from spans alone.

Observability is off by default and *zero-cost when disabled*: hot paths
check a single ``enabled`` attribute on the shared
:data:`NULL_OBSERVER`.  Enable it by passing ``observer=Observer()`` to
:class:`repro.parallel.Simulator`, via the :func:`repro.api.run` facade
(``run("fig1", options=RunOptions(obs=Observer()))``), or from the
command line::

    python -m repro profile fig1 --trace-out /tmp/t.json --metrics-out /tmp/m.json

See ``docs/observability.md`` for the full tour.
"""

from repro.obs.export import (
    chrome_trace,
    figure1_fractions,
    folded_stacks,
    metrics_summary,
    render_metrics_markdown,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_summary,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.spans import (
    NULL_OBSERVER,
    NULL_SPAN,
    Instant,
    NullObserver,
    Observer,
    RunInfo,
    Span,
    activate,
    get_active,
)

__all__ = [
    # spans
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "NULL_SPAN",
    "Span",
    "Instant",
    "RunInfo",
    "activate",
    "get_active",
    # metrics
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    # exporters
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "folded_stacks",
    "metrics_summary",
    "render_metrics_markdown",
    "write_metrics_summary",
    "figure1_fractions",
]
