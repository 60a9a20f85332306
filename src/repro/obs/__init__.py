"""repro.obs — observability for balanced-BA executions.

Layered on PR 1's runtime:

* **Spans** (:mod:`repro.obs.spans`): hierarchical phase context managers
  (``with span("srds-aggregate", level=k): ...``) and the one rule that
  labels a ledger charge (``spans.charge_label``), yielding the §3.1
  per-phase cost decomposition (``CommunicationMetrics.bits_by_phase``
  / ``phase_breakdown``).
* **Flow ledger** (:mod:`repro.obs.flow`): the wire-level refinement —
  per-(round, phase, src, dst, kind) traffic-matrix cells with bounded
  memory (top-K + spill-to-JSONL) filed under the same label, exact
  per-party side counters, and bit-for-bit parity checks against
  ``CommunicationMetrics``.
* **Registry** (:mod:`repro.obs.registry`): Counter/Gauge/Histogram
  instruments with Prometheus text exposition, fed by the runtime
  (round-barrier latency, transport frame counts, injected faults,
  ``repro_flow_bytes_total``).
* **Timeline** (:mod:`repro.obs.timeline`): TraceRecorder streams + span
  intervals → Chrome trace-event JSON, loadable in Perfetto, with a
  deterministic mode mirroring ``trace.py``'s ``clock=None`` contract;
  :mod:`repro.obs.merge` stitches supervisor + worker + session tracks
  into one cross-process view sharing a single trace id.
* **Profiling** (:mod:`repro.obs.profile`): opt-in phase-scoped
  cProfile/tracemalloc collectors installable like any ``SpanLog``.
* **Bench records** (:mod:`repro.obs.bench`): structured
  ``BENCH_<name>.json`` results; :mod:`repro.obs.regression` diffs
  fresh records against committed baselines (``obs diff``).
* **Flush** (:mod:`repro.obs.flush`): the shared atomic ``--metrics-out``
  writer (tmp+fsync+replace) used by serve/cluster/runtime CLIs.

CLI: ``python -m repro obs
{report,timeline,top,flows,diff,profile,merge}`` (see
``docs/observability.md``).

This package imports only the standard library (plus
:mod:`repro.errors`), so any layer of the repo — including
:mod:`repro.net.metrics` — can depend on it without cycles.
"""

from repro.obs.bench import bench_payload, load_bench_json, write_bench_json
from repro.obs.flush import (
    FLOW_COMMENT_PREFIX,
    flush_metrics_file,
    read_flow_summary,
    write_atomic_text,
)
from repro.obs.flow import (
    FLOW_SCHEMA,
    FUNCTIONALITY,
    FlowCell,
    FlowLedger,
    load_flow_json,
    write_flow_json,
)
from repro.obs.merge import (
    SPAN_DIR_SCHEMA,
    dump_span_dir,
    export_merged_trace,
    load_span_dir,
    merged_timeline_events,
)
from repro.obs.profile import PhaseProfile, PhaseProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.regression import (
    BenchDiff,
    diff_bench,
    diff_dirs,
    diff_files,
    render_diffs,
)
from repro.obs.spans import (
    UNATTRIBUTED,
    SpanLog,
    SpanRecord,
    current_path,
    current_phase,
    flow_tags,
    recording,
    span,
)
from repro.obs.timeline import (
    export_chrome_trace,
    load_trace_dir,
    timeline_events,
    validate_trace_events,
)

__all__ = [
    "BenchDiff",
    "Counter",
    "FLOW_COMMENT_PREFIX",
    "FLOW_SCHEMA",
    "FUNCTIONALITY",
    "FlowCell",
    "FlowLedger",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfile",
    "PhaseProfiler",
    "SPAN_DIR_SCHEMA",
    "SpanLog",
    "SpanRecord",
    "UNATTRIBUTED",
    "bench_payload",
    "current_path",
    "current_phase",
    "diff_bench",
    "diff_dirs",
    "diff_files",
    "dump_span_dir",
    "export_chrome_trace",
    "export_merged_trace",
    "flow_tags",
    "flush_metrics_file",
    "load_bench_json",
    "load_flow_json",
    "load_span_dir",
    "load_trace_dir",
    "merged_timeline_events",
    "read_flow_summary",
    "recording",
    "render_diffs",
    "span",
    "timeline_events",
    "validate_trace_events",
    "write_atomic_text",
    "write_bench_json",
    "write_flow_json",
]
