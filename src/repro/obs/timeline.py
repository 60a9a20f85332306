"""Chrome trace-event export: runtime traces + phase spans → Perfetto.

Converts :class:`~repro.runtime.trace.TraceRecorder` streams (or trace
directories of ``party-<id>.jsonl`` files) plus
:class:`~repro.obs.spans.SpanLog` intervals into the Chrome trace-event
JSON format (the ``{"traceEvents": [...]}`` object form), which loads
directly in https://ui.perfetto.dev and ``chrome://tracing``.

Track layout:

* one process per party (``pid = party id + 1``, named ``party-<id>``)
  with a single thread carrying that party's events: each round barrier
  becomes a complete ``"X"`` slice spanning the round (args: queue
  depth), and ``send``/``recv``/``drop``/``crash``/``halt`` become
  instant ``"i"`` events nested inside it;
* one ``protocol-phases`` process (``pid = 0``) whose thread holds the
  phase spans as nested ``"X"`` slices (depth from the span stack), so
  the §3.1 phase decomposition is visible at a glance.

Determinism contract (mirrors ``trace.py``'s ``clock=None``): when the
source events carry no ``wall`` stamps — or ``deterministic=True`` is
forced — timestamps are derived purely from logical coordinates
(``round``/``seq`` for events, log ticks for spans), so two runs with
the same seed export byte-identical JSON.  With wall stamps present and
``deterministic=False``, real microsecond timestamps are used instead.

This module deliberately imports nothing from the rest of the repo but
the JSONL reader: it consumes plain event dicts (anything with the trace
schema) and duck-typed recorders (``party_ids`` + ``events_of``).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.jsonl import dump_line, load_jsonl

#: Logical microseconds allotted to one round (deterministic mode).
ROUND_TICKS = 1_000
#: Logical microseconds allotted to one span tick (deterministic mode).
SPAN_TICKS = 1_000

_PARTY_FILE = re.compile(r"^party-(\d+)\.jsonl$")

#: Phases-track process id; parties are ``pid = party + 1``.
PHASES_PID = 0

EventMap = Mapping[int, Sequence[Dict[str, Any]]]


def _events_by_party(source: Union[EventMap, Any]) -> Dict[int, List[Dict[str, Any]]]:
    """Normalize a TraceRecorder-like object or mapping to a plain dict."""
    if hasattr(source, "party_ids") and hasattr(source, "events_of"):
        return {
            party: list(source.events_of(party)) for party in source.party_ids
        }
    return {int(party): list(events) for party, events in dict(source).items()}


def load_trace_dir(directory: Union[str, Path]) -> Dict[int, List[Dict[str, Any]]]:
    """Read every ``party-<id>.jsonl`` file in a trace directory."""
    directory = Path(directory)
    parties: Dict[int, List[Dict[str, Any]]] = {}
    for path in sorted(directory.iterdir()):
        match = _PARTY_FILE.match(path.name)
        if match:
            parties[int(match.group(1))] = load_jsonl(path)
    return parties


def _use_wall(events_by_party: Dict[int, List[Dict[str, Any]]],
              deterministic: Optional[bool]) -> bool:
    if deterministic is True:
        return False
    has_wall = any(
        "wall" in event
        for events in events_by_party.values()
        for event in events
    )
    if deterministic is False and not has_wall:
        raise ValueError(
            "deterministic=False requires wall-stamped events "
            "(record with a clock)"
        )
    return has_wall and deterministic is False


def _logical_ts(event: Dict[str, Any]) -> int:
    return int(event.get("round", 0)) * ROUND_TICKS + int(event.get("seq", 0))


def timeline_events(
    trace: Union[EventMap, Any, None] = None,
    spans: Optional[Any] = None,
    *,
    deterministic: Optional[bool] = None,
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list for a trace and/or a span log.

    ``trace`` is a :class:`TraceRecorder`-like object or a mapping of
    party id → event dicts; ``spans`` is a
    :class:`~repro.obs.spans.SpanLog`.  ``deterministic=None`` (default)
    auto-detects: wall-stamped inputs get wall timestamps only when
    ``deterministic=False`` is passed explicitly, so the default output
    is always reproducible.
    """
    events_by_party = _events_by_party(trace) if trace is not None else {}
    use_wall = _use_wall(events_by_party, deterministic)
    wall_zero = None
    if use_wall:
        walls = [
            event["wall"]
            for events in events_by_party.values()
            for event in events
            if "wall" in event
        ]
        wall_zero = min(walls) if walls else 0.0

    out: List[Dict[str, Any]] = []

    # -- metadata: name the tracks -------------------------------------------
    if spans is not None and getattr(spans, "records", None):
        out.extend(track_meta(PHASES_PID, "protocol-phases"))
    for party in sorted(events_by_party):
        out.extend(track_meta(party + 1, f"party-{party}"))

    # -- per-party tracks ----------------------------------------------------
    for party, events in sorted(events_by_party.items()):
        out.extend(_party_track(party, events, use_wall, wall_zero))

    # -- the phases track ----------------------------------------------------
    if spans is not None:
        out.extend(span_slices(spans.records, use_wall))
    return out


def track_meta(pid: int, name: str) -> List[Dict[str, Any]]:
    """The ``"M"`` events naming and sorting (by pid) one track."""
    meta = {"process_name": {"name": name},
            "process_sort_index": {"sort_index": pid}}
    return [
        {"ph": "M", "pid": pid, "tid": 0, "name": key, "args": args}
        for key, args in meta.items()
    ]


def _ts_of(event: Dict[str, Any], use_wall: bool,
           wall_zero: Optional[float]) -> int:
    if use_wall and "wall" in event:
        return int(round((event["wall"] - (wall_zero or 0.0)) * 1_000_000))
    return _logical_ts(event)


def _party_track(
    party: int,
    events: Sequence[Dict[str, Any]],
    use_wall: bool,
    wall_zero: Optional[float],
) -> List[Dict[str, Any]]:
    pid = party + 1
    out: List[Dict[str, Any]] = []
    barriers = [e for e in events if e.get("kind") == "round-barrier"]
    barrier_ts = [_ts_of(e, use_wall, wall_zero) for e in barriers]
    for index, event in enumerate(barriers):
        start = barrier_ts[index]
        end = (
            barrier_ts[index + 1]
            if index + 1 < len(barrier_ts)
            else start + ROUND_TICKS
        )
        out.append({
            "ph": "X",
            "pid": pid,
            "tid": 0,
            "name": f"round-{event.get('round', index)}",
            "cat": "round",
            "ts": start,
            "dur": max(end - start, 1),
            "args": {"queue_depth": event.get("queue_depth", 0)},
        })
    for event in events:
        kind = event.get("kind")
        if kind == "round-barrier":
            continue
        args = {
            key: value
            for key, value in event.items()
            if key not in ("party", "kind", "wall")
        }
        out.append({
            "ph": "i",
            "pid": pid,
            "tid": 0,
            "name": str(kind),
            "cat": "event",
            "ts": _ts_of(event, use_wall, wall_zero),
            "s": "t",
            "args": args,
        })
    return out


def span_slices(
    records: Sequence[Any], use_wall: bool
) -> List[Dict[str, Any]]:
    """One complete ``"X"`` slice per closed span record, on the
    phases track.

    Positioned from wall stamps when ``use_wall`` and the record carries
    both ends, else from logical ticks; ``path`` and ``depth`` lead the
    record's own attrs.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        if record.end_tick is None:
            continue  # still open: nothing to draw
        if use_wall and record.start_wall is not None and (
            record.end_wall is not None
        ):
            ts = int(round(record.start_wall * 1_000_000))
            dur = int(round((record.end_wall - record.start_wall) * 1_000_000))
        else:
            ts = record.start_tick * SPAN_TICKS
            dur = (record.end_tick - record.start_tick) * SPAN_TICKS
        args: Dict[str, Any] = {"path": record.path, "depth": record.depth}
        args.update(record.attrs)
        out.append({
            "ph": "X",
            "pid": PHASES_PID,
            "tid": 0,
            "name": record.name,
            "cat": "phase",
            "ts": ts,
            "dur": max(dur, 1),
            "args": args,
        })
    return out


def export_chrome_trace(
    path: Union[str, Path],
    trace: Union[EventMap, Any, None] = None,
    spans: Optional[Any] = None,
    *,
    deterministic: Optional[bool] = None,
) -> Path:
    """Write a Perfetto-loadable Chrome trace JSON file (sorted keys,
    compact); returns the path."""
    document = {
        "traceEvents": timeline_events(
            trace, spans, deterministic=deterministic
        ),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.timeline"},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_line(document), encoding="utf-8")
    return path


_VALID_PHASES = {"X", "i", "M", "B", "E", "C"}


def validate_trace_events(events: Sequence[Dict[str, Any]]) -> None:
    """Check the minimal trace-event schema; raises ``ValueError``.

    Perfetto's JSON importer requires ``ph`` and ``pid`` on every event,
    ``ts`` (a number) on non-metadata events, and ``dur >= 0`` on
    complete events.  This is the subset of the spec our exporter uses.
    """
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"event {index}: bad ph {phase!r}")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"event {index}: missing integer pid")
        if phase == "M":
            if "name" not in event:
                raise ValueError(f"event {index}: metadata without name")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"event {index}: missing numeric ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise ValueError(f"event {index}: X event needs dur >= 0")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"event {index}: instant event needs scope")
