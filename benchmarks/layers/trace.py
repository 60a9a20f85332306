"""Benchmark-side spans: who called which layer, for how long.

Nothing under ``src/`` is instrumented for this benchmark.  The traced
pass wraps every public call a workload makes in a :class:`Tracer` span
(name, layer, op id, start, end, parent) and adopts the protocol's own
Fig. 3 phase intervals — read through the already-public
``repro.obs.recording(SpanLog(clock=time.perf_counter))`` collector — as
children.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of its interval that
its children cover; summing self time by layer gives the "where the time
goes" table without double counting.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Layer charged for harness time not covered by any call into ``src/``.
HARNESS = "benchmark"

#: Fig. 3 phase (the ``repro.obs`` span name) → the ``src/repro`` layer
#: that does the bulk of its work.  ``srds-aggregate`` runs inside
#: ``protocols.balanced_ba`` but spends its time in the scheme's
#: aggregate/verify, so it is booked to ``srds``; a phase cannot be split
#: further from outside.
PHASE_LAYER = {
    "pi-ba": "protocols",
    "kssv-ae-establish": "aetree",
    "srds-setup": "srds",
    "committee-ba": "protocols",
    "committee-coin-toss": "protocols",
    "ae-send-down": "aetree",
    "base-sign": "srds",
    "srds-aggregate": "srds",
    "certified-send-down": "aetree",
    "prf-boost": "protocols",
}

#: The nine leaf phases of one pi_ba execution, in Fig. 3 order.
PHASES = tuple(name for name in PHASE_LAYER if name != "pi-ba")


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    op: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """In-memory span recorder (thread-safe: one parent stack per thread)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        op: Optional[str] = None,
        parent: Optional[Span] = None,
    ) -> Iterator[Span]:
        """Record one interval; nests under the thread's open span unless
        ``parent`` names one opened on another thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = Span(
            span_id=next(self._ids),
            name=name,
            layer=layer,
            op=op if op is not None else (parent.op if parent else ""),
            start=time.perf_counter(),
            end=0.0,
            parent=parent.span_id if parent else None,
        )
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def adopt_phases(self, log: Any, parent: Span) -> None:
        """Attach a ``SpanLog``'s wall-clocked records below ``parent``.

        The log must have been created with ``clock=time.perf_counter``
        (the tracer's own clock); nesting follows the records' depth.
        """
        open_at_depth: Dict[int, Span] = {}
        for record in log.records:
            if record.start_wall is None or record.end_wall is None:
                continue
            above = open_at_depth.get(record.depth - 1, parent)
            adopted = Span(
                span_id=next(self._ids),
                name=record.name,
                layer=PHASE_LAYER.get(record.name, parent.layer),
                op=parent.op,
                start=record.start_wall,
                end=record.end_wall,
                parent=above.span_id,
            )
            self.spans.append(adopted)
            open_at_depth[record.depth] = adopted

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(record) for record in self.spans]


class NullTracer:
    """Tracing off: ``span`` is a no-op context manager."""

    enabled = False

    def span(self, *_args: Any, **_kwargs: Any) -> Any:
        return nullcontext()


# -- self time -----------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span id → duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {record.span_id: record for record in spans}
    for record in spans:
        if record.parent is None or record.parent not in by_id:
            continue
        above = by_id[record.parent]
        start = max(record.start, above.start)
        end = min(record.end, above.end)
        if end > start:
            children.setdefault(above.span_id, []).append((start, end))
    return {
        record.span_id: (record.end - record.start)
        - _covered(children.get(record.span_id, []))
        for record in spans
    }


def layer_shares(spans: List[Span]) -> Dict[str, float]:
    """Each layer's self time as a share of all root-span time.

    Root spans are the ops; their own self time is the harness's
    (:data:`HARNESS`), so ``1 - shares[HARNESS]`` is the share of op time
    attributed to named layers.
    """
    selfs = self_times(spans)
    total = sum(
        record.end - record.start for record in spans if record.parent is None
    )
    if total <= 0:
        return {}
    by_layer: Dict[str, float] = {}
    for record in spans:
        by_layer[record.layer] = (
            by_layer.get(record.layer, 0.0) + selfs[record.span_id]
        )
    return {layer: value / total for layer, value in sorted(by_layer.items())}

