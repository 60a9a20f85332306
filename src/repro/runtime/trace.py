"""Structured per-party execution traces (JSONL).

Every runtime execution can carry a :class:`TraceRecorder`: the round
core (and the asynchronous scheduler) emit one event per observable
action — ``send``, ``recv``, ``round-barrier``, ``halt``, ``crash``,
``drop`` — tagged with the party, round, logical sequence number, and (optionally)
wall-clock time and queue depth.  Events are kept *per party* so that a
concurrent execution still yields a deterministic file per party: within
one party's stream the order is fixed by that party's own program order,
which the round barriers make schedule-independent.

Determinism contract: with ``clock=None`` (the default used by the
differential tests) two executions with the same seed produce
byte-identical JSONL.  Pass ``clock=time.perf_counter`` (or use
:func:`wall_clock_recorder`) to include wall times for profiling; wall
times are obviously not reproducible and are stored under a separate
``wall`` key so consumers can ignore them.

The output is consumable by :mod:`repro.analysis` or any JSONL tool:
one JSON object per line, keys sorted, no whitespace dependence.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

# Event kinds live beside their lockstep emitter.
from repro.net.rounds import CRASH, DROP, HALT, RECV, ROUND_BARRIER, SEND
from repro.obs.jsonl import dump_line

KINDS = (SEND, RECV, ROUND_BARRIER, HALT, CRASH, DROP)

# Keys the recorder itself stamps on every event.  Caller-supplied
# ``fields`` must not collide with them: silently overwriting ``seq`` or
# ``round`` would corrupt the determinism fingerprint and every
# downstream consumer (timeline export, analysis) that trusts these
# coordinates.
RESERVED_KEYS = frozenset({"party", "kind", "round", "seq", "wall"})


class TraceRecorder:
    """Collects per-party event streams and serializes them as JSONL."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock
        self._events: Dict[int, List[Dict[str, Any]]] = {}
        self._counters: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def record(
        self, party_id: int, kind: str, round_index: int, **fields: Any
    ) -> None:
        """Append one event to a party's stream.

        Extra ``fields`` (peer, bits, queue_depth, ...) are stored
        verbatim; values must be JSON-serializable.  Fields that collide
        with the reserved envelope keys (:data:`RESERVED_KEYS`) raise
        :class:`ValueError` — historically ``event.update(fields)`` let a
        caller silently clobber ``seq``/``round``/``wall``.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        clashes = RESERVED_KEYS.intersection(fields)
        if clashes:
            raise ValueError(
                "trace fields collide with reserved event keys: "
                + ", ".join(sorted(clashes))
            )
        seq = self._counters.get(party_id, 0)
        self._counters[party_id] = seq + 1
        event: Dict[str, Any] = {
            "party": party_id,
            "kind": kind,
            "round": round_index,
            "seq": seq,
        }
        if self._clock is not None:
            event["wall"] = self._clock()
        event.update(fields)
        self._events.setdefault(party_id, []).append(event)

    # -- checkpoint/resume hooks (repro.cluster) ------------------------------

    def seq_of(self, party_id: int) -> int:
        """The sequence number the party's *next* event will carry."""
        return self._counters.get(party_id, 0)

    def prime(self, party_id: int, seq: int) -> None:
        """Pre-set one party's next sequence number.

        Used on checkpoint resume: events regenerated by a restarted
        shard must carry the same ``seq`` stamps as an uninterrupted
        run, so the merged trace stays byte-identical.
        """
        if seq < 0:
            raise ValueError("trace sequence counter cannot be negative")
        self._counters[party_id] = seq

    def preload(
        self, party_id: int, events: Iterable[Dict[str, Any]]
    ) -> None:
        """Restore one party's stream from previously dumped events.

        Events are appended verbatim (they already carry ``seq``
        stamps); the party's counter advances past the highest restored
        sequence number so freshly recorded events continue it.  Used by
        checkpoint resume and by the cluster supervisor's merge of
        worker-shipped event batches.
        """
        copies = [dict(event) for event in events]
        if not copies:
            return
        self._events.setdefault(party_id, []).extend(copies)
        nxt = max(int(event.get("seq", -1)) for event in copies) + 1
        if nxt > self._counters.get(party_id, 0):
            self._counters[party_id] = nxt

    def drain(self) -> Dict[int, List[Dict[str, Any]]]:
        """Remove and return all buffered events, keyed by party.

        Sequence counters keep advancing, so recording continues
        seamlessly — this is how a cluster worker ships its per-round
        event batch to the supervisor without double-buffering.
        """
        events, self._events = self._events, {}
        return events

    # -- queries ---------------------------------------------------------------

    @property
    def party_ids(self) -> List[int]:
        """Parties with at least one recorded event."""
        return sorted(self._events)

    def events_of(self, party_id: int) -> List[Dict[str, Any]]:
        """One party's events, in program order."""
        return list(self._events.get(party_id, []))

    def count(self, kind: Optional[str] = None) -> int:
        """Total events (optionally of one kind) across all parties."""
        return sum(
            1
            for events in self._events.values()
            for event in events
            if kind is None or event["kind"] == kind
        )

    def max_queue_depth(self) -> int:
        """Largest observed inbox depth at any round barrier."""
        depths = [
            event.get("queue_depth", 0)
            for events in self._events.values()
            for event in events
            if event["kind"] == ROUND_BARRIER
        ]
        return max(depths, default=0)

    # -- serialization --------------------------------------------------------

    def dumps(self, party_id: int) -> str:
        """One party's stream as a JSONL string (stable key order)."""
        return "".join(map(dump_line, self._events.get(party_id, [])))

    def dump_dir(self, directory: Path) -> List[Path]:
        """Write ``party-<id>.jsonl`` per party; returns the paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for party_id in self.party_ids:
            path = directory / f"party-{party_id}.jsonl"
            path.write_text(self.dumps(party_id), encoding="utf-8")
            paths.append(path)
        return paths

    def fingerprint(self) -> str:
        """A digest of the full trace — equal iff the traces are equal.

        Used by determinism tests: two runs with the same seed (and
        ``clock=None``) must produce equal fingerprints.
        """
        import hashlib

        digest = hashlib.sha256()
        for party_id in self.party_ids:
            digest.update(self.dumps(party_id).encode("utf-8"))
        return digest.hexdigest()


def wall_clock_recorder() -> TraceRecorder:
    """A recorder stamping monotonic wall times (non-reproducible)."""
    return TraceRecorder(clock=time.perf_counter)


def summarize(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Count events by kind (small helper for reports and the CLI)."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return counts
