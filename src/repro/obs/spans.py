"""Hierarchical phase spans — the attribution backbone of ``repro.obs``.

The paper's headline claim (Thm 3.1) is *per-party* polylog communication,
argued phase by phase in §3.1: KSSV almost-everywhere agreement, committee
BA + coin-toss, SRDS aggregation up the tree, and the one-round PRF boost
each get their own cost envelope.  The flat
:class:`~repro.net.metrics.CommunicationMetrics` ledger can report the
worst-case party but not *which phase* dominated it.  Spans close that
gap: protocol code wraps each phase in a context manager ::

    from repro.obs.spans import span

    with span("srds-aggregate", level=k):
        ...  # every record_message / charge_functionality in here

and every ledger charge made while a span is active is attributed to the
*innermost* active span's name, unless the thing being charged carries a
phase of its own — :func:`charge_label` is that rule, stated once.

Design notes:

* The active-span stack lives in a :class:`contextvars.ContextVar`, so
  attribution is correct under ``asyncio`` — each task sees its own stack
  (the runtime's party coroutines all run phases of the same protocol, so
  in practice they share one stack, but nothing breaks if they diverge).
* Attribution works with *zero* registration: the stack is module-global
  state that the metrics ledger consults on every charge.  Interval
  *records* (for timelines and reports) additionally require an installed
  collector — see :func:`recording` / :class:`SpanLog`.
* Determinism contract mirrors :mod:`repro.runtime.trace`: a
  :class:`SpanLog` with ``clock=None`` (the default) stamps spans with a
  logical tick counter only, so two seeded runs produce identical logs;
  pass ``clock=time.perf_counter`` for wall-time profiling.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Label under which charges made outside any span are accumulated.
UNATTRIBUTED = "(unattributed)"

#: The innermost-first stack of active span names (per asyncio context).
_stack: "contextvars.ContextVar[Tuple[str, ...]]" = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)

#: The ambient wire kind set by :func:`flow_tags` (``""`` = none).
_kind: "contextvars.ContextVar[str]" = contextvars.ContextVar(
    "repro_obs_flow_kind", default=""
)

#: Installed interval collectors (module-global, like logging handlers).
_collectors: "List[SpanLog]" = []


@dataclass
class SpanRecord:
    """One recorded span interval.

    ``start_tick`` / ``end_tick`` come from the owning log's logical
    clock (monotonically increasing across the log, one tick per span
    open/close), so nesting can be reconstructed without wall times.
    ``end_tick`` is ``None`` while the span is still open.
    """

    name: str
    path: str
    depth: int
    start_tick: int
    end_tick: Optional[int] = None
    start_wall: Optional[float] = None
    end_wall: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end_tick is not None


class SpanLog:
    """Collects :class:`SpanRecord` intervals from :func:`span` calls.

    Install with :func:`recording`; one execution can feed several logs
    (e.g. a test's assertion log and a timeline exporter's log).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock
        self.records: List[SpanRecord] = []
        self._tick = 0

    # -- recording (called by span()) ----------------------------------------

    def _next_tick(self) -> int:
        tick = self._tick
        self._tick += 1
        return tick

    def open(self, name: str, path: str, depth: int,
             attrs: Dict[str, Any]) -> SpanRecord:
        record = SpanRecord(
            name=name,
            path=path,
            depth=depth,
            start_tick=self._next_tick(),
            start_wall=self._clock() if self._clock is not None else None,
            attrs=dict(attrs),
        )
        self.records.append(record)
        return record

    def close(self, record: SpanRecord) -> None:
        record.end_tick = self._next_tick()
        if self._clock is not None:
            record.end_wall = self._clock()

    # -- queries -------------------------------------------------------------

    def by_name(self, name: str) -> List[SpanRecord]:
        """All recorded spans with the given name, in open order."""
        return [record for record in self.records if record.name == name]

    @property
    def names(self) -> List[str]:
        """Distinct span names, in first-open order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.name, None)
        return list(seen)

    def roots(self) -> List[SpanRecord]:
        """Top-level (depth-0) spans."""
        return [record for record in self.records if record.depth == 0]

    def wall_of(self, name: str) -> Optional[float]:
        """Total wall seconds spent in spans of this name (needs a clock)."""
        total = 0.0
        any_wall = False
        for record in self.by_name(name):
            if record.start_wall is not None and record.end_wall is not None:
                total += record.end_wall - record.start_wall
                any_wall = True
        return total if any_wall else None


# -- the context-manager API -------------------------------------------------


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Enter a named phase span; nests, and attributes ledger charges.

    While the span is active, every
    :meth:`~repro.net.metrics.CommunicationMetrics.record_message` /
    :meth:`~repro.net.metrics.CommunicationMetrics.charge_functionality`
    call (in any ledger) that carries no phase of its own is attributed
    to ``name`` — unless a *nested* span is entered, in which case the
    innermost name wins (:func:`charge_label`).  Extra
    ``attrs`` (``level=k``, ...) are stored on the interval records of
    any installed :class:`SpanLog` (and exported to timelines), but do
    not affect attribution.
    """
    if not name:
        raise ValueError("span name must be non-empty")
    parent = _stack.get()
    token = _stack.set(parent + (name,))
    path = "/".join(parent + (name,))
    opened = [
        (log, log.open(name, path, len(parent), attrs))
        for log in _collectors
    ]
    try:
        yield
    finally:
        for log, record in reversed(opened):
            log.close(record)
        _stack.reset(token)


def current_phase() -> Optional[str]:
    """The innermost active span name, or ``None`` outside any span.

    For code that *captures* a phase to carry with a message
    (:class:`~repro.net.rounds.RoundCore` stamping a frame); code that
    applies a charge goes through :func:`charge_label`.
    """
    stack = _stack.get()
    return stack[-1] if stack else None


@contextmanager
def flow_tags(kind: str) -> Iterator[None]:
    """Stamp every charge made in this block with an ambient wire kind.

    For a wrapper that cannot reach the charge calls (the gateway runs a
    whole decision under ``"session"``); a caller that holds the charge
    passes ``kind=`` to it directly.
    """
    token = _kind.set(kind)
    try:
        yield
    finally:
        _kind.reset(token)


def charge_label(phase: str, kind: str, default_kind: str) -> Tuple[str, str]:
    """The ``(phase, kind)`` label of one ledger charge — the one rule.

    * phase: the label carried by the thing being charged
      (``Frame.phase``, ``FuncOp.phase``, a digest row's phase), else
      the innermost active span, else :data:`UNATTRIBUTED`;
    * kind: the caller's explicit kind, else the ambient
      :func:`flow_tags` kind, else the charge method's default.

    ``CommunicationMetrics`` files a charge's ``bits_by_phase`` entry and
    its flow cell under this one label, so the two views cannot disagree
    and a replay reports the phase breakdown of the run it replays.
    """
    if not phase:
        stack = _stack.get()
        phase = stack[-1] if stack else UNATTRIBUTED
    return phase, kind or _kind.get() or default_kind


def current_path() -> Optional[str]:
    """The full ``outer/inner`` span path, or ``None`` outside any span."""
    stack = _stack.get()
    return "/".join(stack) if stack else None


@contextmanager
def recording(log: Optional[SpanLog] = None) -> Iterator[SpanLog]:
    """Install a :class:`SpanLog` collector for the enclosed block.

    Usage::

        with recording() as log:
            run_balanced_ba(...)
        assert "prf-boost" in log.names
    """
    log = log if log is not None else SpanLog()
    _collectors.append(log)
    try:
        yield log
    finally:
        _collectors.remove(log)
