"""Delta trace checkpoints: segment replay, durability edges, format gate.

``_save_trace_segments`` appends one pickled ``(start_index, events)``
chunk per party per checkpoint to ``trace-<pid>.seg``; the manifest
carries only per-party event *counts* and :func:`read_state`
materializes the streams back.  These tests pin the replay algebra —
truncate-to-start then extend, manifest count authoritative — including
the crash window between the segment fsync and the manifest rename
(a re-appended chunk must resolve identically).  No worker processes
are involved, so the suite stays tier-1.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster.cli import cmd_cluster
from repro.cluster.supervisor import (
    STATE_FILE,
    STATE_FORMAT,
    _read_trace_segments,
    read_state,
)
from repro.errors import ClusterError


def _event(party_id: int, seq: int) -> dict:
    return {"party": party_id, "seq": seq, "kind": "round"}


def _append_chunk(run_dir, party_id: int, start: int, events: list) -> None:
    with (run_dir / f"trace-{party_id}.seg").open("ab") as handle:
        pickle.dump((start, events), handle, protocol=pickle.HIGHEST_PROTOCOL)


def _write_manifest(run_dir, **entries) -> None:
    state = {"format": STATE_FORMAT}
    state.update(entries)
    with (run_dir / STATE_FILE).open("wb") as handle:
        pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)


class TestSegmentReplay:
    def test_chunks_concatenate_into_the_stream(self, tmp_path):
        events = [_event(0, i) for i in range(7)]
        _append_chunk(tmp_path, 0, 0, events[:3])
        _append_chunk(tmp_path, 0, 3, events[3:])
        assert _read_trace_segments(tmp_path, {0: 7}) == {0: events}

    def test_reappended_chunk_resolves_identically(self, tmp_path):
        # Crash window: the chunk hit disk but the manifest rename did
        # not; the next checkpoint re-appends the same delta.
        events = [_event(1, i) for i in range(5)]
        _append_chunk(tmp_path, 1, 0, events[:2])
        _append_chunk(tmp_path, 1, 2, events[2:])
        _append_chunk(tmp_path, 1, 2, events[2:])  # the re-append
        assert _read_trace_segments(tmp_path, {1: 5}) == {1: events}

    def test_manifest_count_trims_unacknowledged_tail(self, tmp_path):
        # A chunk whose manifest never landed leaves extra events; the
        # count is authoritative and the tail is trimmed.
        events = [_event(0, i) for i in range(6)]
        _append_chunk(tmp_path, 0, 0, events[:4])
        _append_chunk(tmp_path, 0, 4, events[4:])
        assert _read_trace_segments(tmp_path, {0: 4}) == {0: events[:4]}

    def test_missing_events_are_loud(self, tmp_path):
        _append_chunk(tmp_path, 0, 0, [_event(0, 0)])
        with pytest.raises(ClusterError, match="manifest expects"):
            _read_trace_segments(tmp_path, {0: 5})

    def test_missing_segment_file_is_loud_when_count_positive(self, tmp_path):
        with pytest.raises(ClusterError, match="manifest expects"):
            _read_trace_segments(tmp_path, {3: 2})

    def test_corrupt_segment_is_loud(self, tmp_path):
        (tmp_path / "trace-0.seg").write_bytes(b"\x80\x05garbage")
        with pytest.raises(ClusterError, match="corrupt trace segment"):
            _read_trace_segments(tmp_path, {0: 1})

    def test_empty_manifest_reads_empty(self, tmp_path):
        assert _read_trace_segments(tmp_path, {}) == {}
        assert _read_trace_segments(tmp_path, {0: 0}) == {0: []}


class TestReadState:
    def test_materializes_trace_events_from_segments(self, tmp_path):
        events = {0: [_event(0, 0), _event(0, 1)], 1: [_event(1, 0)]}
        for party_id, stream in events.items():
            _append_chunk(tmp_path, party_id, 0, stream)
        _write_manifest(
            tmp_path,
            trace_segments={p: len(s) for p, s in events.items()},
        )
        state = read_state(tmp_path)
        assert state is not None
        assert state["trace_events"] == events

    @pytest.mark.parametrize(
        "entries",
        [
            {"trace_events": {0: [_event(0, 0)]}},  # inline trace form
            {"data_plane": "relay", "container": b"RPCK1"},  # relay plane
        ],
        ids=["inline", "relay-plane"],
    )
    def test_format_1_manifest_is_refused_loudly(self, tmp_path, entries):
        # A /1 run dir may hold supervisor-staged frames or an inline
        # trace; neither survives on the mesh, so resume and status
        # refuse it by name instead of silently dropping traffic.
        state = {"format": "repro-cluster-supervisor/1", **entries}
        with (tmp_path / STATE_FILE).open("wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ClusterError, match=STATE_FORMAT):
            read_state(tmp_path)
        with pytest.raises(ClusterError, match=STATE_FORMAT):
            cmd_cluster(["status", "--run-dir", str(tmp_path)])

    def test_absent_state_is_none(self, tmp_path):
        assert read_state(tmp_path) is None

    def test_wrong_format_is_loud(self, tmp_path):
        with (tmp_path / STATE_FILE).open("wb") as handle:
            pickle.dump({"format": "alien/9"}, handle)
        with pytest.raises(ClusterError, match="supervisor state"):
            read_state(tmp_path)

    def test_corrupt_state_is_loud(self, tmp_path):
        (tmp_path / STATE_FILE).write_bytes(b"not a pickle")
        with pytest.raises(ClusterError, match="corrupt supervisor state"):
            read_state(tmp_path)
