"""Cross-process timeline merging — one Perfetto view per run.

A cluster run produces span intervals in three places: the supervisor's
own round spans, each worker's per-round span digests (shipped home in
``done`` blobs and rebuilt with
:func:`~repro.obs.spans.span_from_wire`), and — when a gateway is in
the picture — the sessions track of its
:class:`~repro.serve.sessions.SessionManager`.  This module merges any
number of such *tracks* into a single Chrome trace-event document:

* each track becomes one process (``pid`` assigned in sorted track-name
  order, so the layout is deterministic), named after the track and
  labeled with the run's trace id — every track of one run shares that
  one id;
* every closed span interval becomes a complete ``"X"`` slice; under
  the ``clock=None`` contract the slices are positioned purely from
  logical ticks, so two seeded runs export **byte-identical** JSON.

The on-disk interchange is a *span directory*: ``merge-meta.json``
(schema + trace id + track list) next to one ``spans-<track>.jsonl``
file per track, each line a :func:`~repro.obs.spans.span_to_wire` row.
``python -m repro obs merge`` consumes such a directory (the cluster
CLI's ``--spans-dir`` writes one) and emits the merged timeline.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.jsonl import dump_line, load_jsonl
from repro.obs.spans import SpanRecord, span_from_wire, span_to_wire
from repro.obs.timeline import span_slices, track_meta, write_trace_document

#: Schema tag of ``merge-meta.json`` in a span directory.
SPAN_DIR_SCHEMA = "repro-span-dir/1"

#: Metadata file name inside a span directory.
META_FILE = "merge-meta.json"

_TRACK_FILE = re.compile(r"^spans-(?P<track>[A-Za-z0-9_.-]+)\.jsonl$")

#: Track name → ordered span records.
TrackMap = Dict[str, List[SpanRecord]]


def dump_span_dir(
    directory: Union[str, Path], trace_id: str, tracks: TrackMap
) -> Path:
    """Write one span directory (meta + one JSONL per track)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(tracks)
    for name in names:
        if not _TRACK_FILE.match(f"spans-{name}.jsonl"):
            raise ConfigurationError(
                f"track name {name!r} is not filesystem-safe"
            )
        (directory / f"spans-{name}.jsonl").write_text(
            "".join(dump_line(span_to_wire(r)) for r in tracks[name]),
            encoding="utf-8",
        )
    meta = {
        "schema": SPAN_DIR_SCHEMA,
        "trace_id": trace_id,
        "tracks": names,
    }
    (directory / META_FILE).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return directory


def load_span_dir(
    directory: Union[str, Path]
) -> Tuple[str, TrackMap]:
    """Read a span directory back; returns ``(trace_id, tracks)``.

    Tolerates a missing meta file (trace id defaults to ``""`` and the
    track list is discovered from the ``spans-*.jsonl`` files), so a
    hand-assembled directory still merges.
    """
    directory = Path(directory)
    trace_id = ""
    meta_path = directory / META_FILE
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("schema") != SPAN_DIR_SCHEMA:
            raise ConfigurationError(
                f"{meta_path} is not a {SPAN_DIR_SCHEMA} span directory"
            )
        trace_id = str(meta.get("trace_id", ""))
    tracks: TrackMap = {}
    for path in sorted(directory.iterdir()):
        match = _TRACK_FILE.match(path.name)
        if match:
            tracks[match.group("track")] = [
                span_from_wire(row) for row in load_jsonl(path)
            ]
    if not tracks:
        raise ConfigurationError(
            f"{directory} holds no spans-<track>.jsonl files"
        )
    return trace_id, tracks


def merged_timeline_events(
    tracks: TrackMap,
    trace_id: str = "",
    *,
    deterministic: Optional[bool] = None,
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for a merged multi-track timeline.

    ``deterministic=None`` (default) positions every slice from logical
    ticks — byte-identical across seeded runs.  ``deterministic=False``
    uses wall stamps where a record carries both ends (mixed tracks
    fall back to ticks per record).
    """
    use_wall = deterministic is False
    out: List[Dict[str, Any]] = []
    names = sorted(tracks)
    for pid, name in enumerate(names):
        out.extend(track_meta(pid, name, trace_id))
    extra = {"trace_id": trace_id} if trace_id else {}
    for pid, name in enumerate(names):
        out.extend(span_slices(tracks[name], pid, "span", use_wall, **extra))
    return out


def export_merged_trace(
    path: Union[str, Path],
    tracks: TrackMap,
    trace_id: str = "",
    *,
    deterministic: Optional[bool] = None,
) -> Path:
    """Write the merged Perfetto-loadable JSON; returns the path."""
    return write_trace_document(
        path,
        merged_timeline_events(tracks, trace_id, deterministic=deterministic),
        {"exporter": "repro.obs.merge", "trace_id": trace_id},
    )


def cluster_tracks(result: Any) -> TrackMap:
    """The track map of one :class:`ClusterResult` (duck-typed).

    ``supervisor`` carries the supervisor's round spans; each worker's
    shipped digests appear as ``worker-<id>``.
    """
    tracks: TrackMap = {"supervisor": list(result.supervisor_spans)}
    for worker_id, records in sorted(result.worker_spans.items()):
        tracks[f"worker-{worker_id}"] = list(records)
    return tracks
