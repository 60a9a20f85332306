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
  instruments with Prometheus text exposition — the gateway's live
  ``GET /metrics`` endpoint and nothing else; batch runs answer from
  the ledger, the flow cells and the trace.
* **Timeline** (:mod:`repro.obs.timeline`): TraceRecorder streams + span
  intervals → Chrome trace-event JSON, loadable in Perfetto, with a
  deterministic mode mirroring ``trace.py``'s ``clock=None`` contract.
  A cluster run's per-party trace (``cluster run --trace-dir``) is its
  one cross-process view: ``obs timeline`` renders every party, on
  whichever worker it ran, as its own Perfetto process.
* **Profiling** (:mod:`repro.obs.profile`): opt-in phase-scoped
  cProfile/tracemalloc collectors installable like any ``SpanLog``.
* **Bench records** (:mod:`repro.obs.bench`): structured
  ``BENCH_<name>.json`` results; :mod:`repro.obs.regression` diffs
  fresh records against committed baselines (``obs diff``).
* **Flush** (:mod:`repro.obs.flush`): atomic artifact writes
  (tmp+fsync+replace) — the ``--flow-out`` report of the serve, cluster
  and runtime CLIs, and the gateway's ``--metrics-out`` snapshot.

CLI: ``python -m repro obs
{report,timeline,top,flows,diff,profile}`` (see
``docs/observability.md``).

This package imports only the standard library (plus
:mod:`repro.errors`), so any layer of the repo — including
:mod:`repro.net.metrics` — can depend on it without cycles.

Re-exports resolve lazily (PEP 562), as in :mod:`repro.cluster` and
:mod:`repro.runtime`: every ledger charge imports
:mod:`repro.obs.spans` through this package, and must not pay for the
bench, profile, regression and timeline tooling it never calls.
"""

from typing import TYPE_CHECKING, List

#: Lazily re-exported name -> defining module.
_EXPORTS = {
    "bench_payload": "repro.obs.bench",
    "load_bench_json": "repro.obs.bench",
    "write_bench_json": "repro.obs.bench",
    "flush_metrics_file": "repro.obs.flush",
    "write_atomic_text": "repro.obs.flush",
    "FLOW_SCHEMA": "repro.obs.flow",
    "FUNCTIONALITY": "repro.obs.flow",
    "FlowCell": "repro.obs.flow",
    "FlowLedger": "repro.obs.flow",
    "load_flow_json": "repro.obs.flow",
    "write_flow_json": "repro.obs.flow",
    "PhaseProfile": "repro.obs.profile",
    "PhaseProfiler": "repro.obs.profile",
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "BenchDiff": "repro.obs.regression",
    "diff_bench": "repro.obs.regression",
    "diff_dirs": "repro.obs.regression",
    "diff_files": "repro.obs.regression",
    "render_diffs": "repro.obs.regression",
    "UNATTRIBUTED": "repro.obs.spans",
    "SpanLog": "repro.obs.spans",
    "SpanRecord": "repro.obs.spans",
    "current_path": "repro.obs.spans",
    "current_phase": "repro.obs.spans",
    "flow_tags": "repro.obs.spans",
    "recording": "repro.obs.spans",
    "span": "repro.obs.spans",
    "export_chrome_trace": "repro.obs.timeline",
    "load_trace_dir": "repro.obs.timeline",
    "timeline_events": "repro.obs.timeline",
    "validate_trace_events": "repro.obs.timeline",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # static importers see the eager names
    from repro.obs.bench import bench_payload, load_bench_json, write_bench_json
    from repro.obs.flush import flush_metrics_file, write_atomic_text
    from repro.obs.flow import (
        FLOW_SCHEMA,
        FUNCTIONALITY,
        FlowCell,
        FlowLedger,
        load_flow_json,
        write_flow_json,
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


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
