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
  (tmp+fsync+replace) — the ``--flow-out`` report of the serve and
  cluster CLIs, and the gateway's ``--metrics-out`` snapshot.

No metrics registry lives here: the gateway's live ``GET /metrics`` is
a rendering of its own ``status`` (:mod:`repro.serve.exposition`), and
batch runs answer from the ledger, the flow cells and the trace.

CLI: ``python -m repro obs {report,timeline,flows,diff,profile}`` (see
``docs/observability.md``).

This package imports only the standard library (plus
:mod:`repro.errors`), so any layer of the repo — including
:mod:`repro.net.metrics` — can depend on it without cycles.  As in
:mod:`repro.cluster` and :mod:`repro.runtime`, the package itself
re-exports nothing: import from the defining module.
"""

