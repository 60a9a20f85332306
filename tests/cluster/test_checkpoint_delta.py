"""Delta trace checkpoints: segment replay, durability edges, format gate.

``_save_trace_segment`` appends one pickled ``{party_id: (start_index,
events)}`` chunk per checkpoint to the run's single ``trace.seg``; the
manifest carries only per-party event *counts* and :func:`read_state`
materializes the streams back.  These tests pin the replay algebra —
truncate-to-start then extend, manifest count authoritative — including
the crash window between the segment fsync and the manifest rename
(a re-appended chunk must resolve identically).  No worker processes
are involved, so the suite stays tier-1.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.cluster.cli import cmd_cluster
from repro.cluster.job import replay_job
from repro.cluster.supervisor import (
    STATE_FILE,
    STATE_FORMAT,
    TRACE_FILE,
    ClusterSupervisor,
    _read_trace_segments,
    read_state,
)
from repro.errors import ClusterError
from repro.runtime.replay import ReplayScript
from repro.runtime.trace import TraceRecorder


def _event(party_id: int, seq: int) -> dict:
    return {"party": party_id, "seq": seq, "kind": "round"}


def _append_chunk(run_dir, party_id: int, start: int, events: list) -> None:
    """One checkpoint's chunk carrying a delta for a single party."""
    with (run_dir / TRACE_FILE).open("ab") as handle:
        pickle.dump(
            {party_id: (start, events)}, handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )


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
        (tmp_path / TRACE_FILE).write_bytes(b"\x80\x05garbage")
        with pytest.raises(ClusterError, match="corrupt trace segment"):
            _read_trace_segments(tmp_path, {0: 1})

    def test_garbage_after_a_good_chunk_is_loud(self, tmp_path):
        _append_chunk(tmp_path, 0, 0, [_event(0, 0)])
        with (tmp_path / TRACE_FILE).open("ab") as handle:
            handle.write(b"torn tail")
        with pytest.raises(ClusterError, match="corrupt trace segment"):
            _read_trace_segments(tmp_path, {0: 1})

    def test_wrong_shaped_chunk_is_loud(self, tmp_path):
        # A /2-style ``(start, events)`` tuple is not a /3 chunk.
        with (tmp_path / TRACE_FILE).open("ab") as handle:
            pickle.dump((0, [_event(0, 0)]), handle)
        with pytest.raises(ClusterError, match="corrupt trace segment"):
            _read_trace_segments(tmp_path, {0: 1})

    def test_one_chunk_carries_every_party(self, tmp_path):
        with (tmp_path / TRACE_FILE).open("ab") as handle:
            pickle.dump(
                {0: (0, [_event(0, 0)]), 1: (0, [_event(1, 0), _event(1, 1)])},
                handle,
            )
            pickle.dump({1: (2, [_event(1, 2)])}, handle)
        assert _read_trace_segments(tmp_path, {0: 1, 1: 3}) == {
            0: [_event(0, 0)],
            1: [_event(1, i) for i in range(3)],
        }

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
        self._assert_refused(
            tmp_path, {"format": "repro-cluster-supervisor/1", **entries}
        )

    def test_format_2_run_dir_is_refused_by_name(self, tmp_path):
        # A /2 run dir keeps its trace in per-party trace-<pid>.seg
        # files this build never reads; materializing it from an absent
        # trace.seg would resume with an empty trace.
        with (tmp_path / "trace-0.seg").open("wb") as handle:
            pickle.dump((0, [_event(0, 0)]), handle)
        self._assert_refused(
            tmp_path,
            {"format": "repro-cluster-supervisor/2", "trace_segments": {0: 1}},
        )

    @staticmethod
    def _assert_refused(run_dir, state) -> None:
        with (run_dir / STATE_FILE).open("wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ClusterError, match=STATE_FORMAT):
            read_state(run_dir)
        with pytest.raises(ClusterError, match=STATE_FORMAT):
            cmd_cluster(["status", "--run-dir", str(run_dir)])

    def test_an_untraced_manifest_has_no_trace_events(self, tmp_path, capsys):
        _write_manifest(tmp_path, trace_segments=None)
        assert read_state(tmp_path)["trace_events"] is None
        # Resume traces iff the saved run did: asking for a trace of an
        # untraced run is a usage error, refused before any work.
        assert cmd_cluster([
            "run", "--resume", "--run-dir", str(tmp_path),
            "--trace-dir", str(tmp_path / "traces"),
        ]) == 2
        assert "holds an untraced run" in capsys.readouterr().out
        assert not (tmp_path / "traces").exists()

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


class TestSaveTraceSegment:
    """The writer side, on a supervisor that never spawns a worker."""

    @staticmethod
    def _supervisor(run_dir) -> ClusterSupervisor:
        job = replay_job(ReplayScript(segments=[]), 2)
        return ClusterSupervisor(job, run_dir=run_dir, trace=TraceRecorder())

    def test_one_chunk_and_one_fsync_per_checkpoint(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        supervisor = self._supervisor(tmp_path)
        for party_id in range(2):
            supervisor.trace.preload(party_id, [_event(party_id, 0)])
        supervisor._save_state(completed=False)
        # One fsync for trace.seg, one for the manifest — not one per party.
        assert len(synced) == 2
        supervisor.trace.preload(1, [_event(1, 1)])
        supervisor._save_state(completed=True)
        assert len(synced) == 4
        with (tmp_path / TRACE_FILE).open("rb") as handle:
            chunks = [pickle.load(handle), pickle.load(handle)]
        assert chunks == [
            {0: (0, [_event(0, 0)]), 1: (0, [_event(1, 0)])},
            {1: (1, [_event(1, 1)])},
        ]
        state = read_state(tmp_path)
        assert state["trace_segments"] == {0: 1, 1: 2}
        assert state["trace_events"] == {
            0: [_event(0, 0)], 1: [_event(1, 0), _event(1, 1)],
        }

    def test_segment_is_durable_before_the_manifest_renames(
        self, tmp_path, monkeypatch
    ):
        # Crash between the segment fsync and the manifest rename: the
        # old manifest still reads, and the next checkpoint's re-append
        # of the same delta resolves to the same streams.
        supervisor = self._supervisor(tmp_path)
        supervisor.trace.preload(0, [_event(0, 0)])
        supervisor._save_state(completed=False)
        supervisor.trace.preload(0, [_event(0, 1)])

        def crash(*_args):
            raise OSError("power cut before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="power cut"):
            supervisor._save_state(completed=False)
        monkeypatch.undo()
        assert read_state(tmp_path)["trace_events"] == {0: [_event(0, 0)]}

        resumed = self._supervisor(tmp_path)
        resumed._load_state()
        resumed.trace.preload(0, [_event(0, 1)])
        resumed._save_state(completed=True)
        assert read_state(tmp_path)["trace_events"] == {
            0: [_event(0, 0), _event(0, 1)]
        }

    def test_nothing_new_appends_nothing(self, tmp_path):
        supervisor = self._supervisor(tmp_path)
        supervisor.trace.preload(0, [_event(0, 0)])
        supervisor._save_state(completed=False)
        size = (tmp_path / TRACE_FILE).stat().st_size
        supervisor._save_state(completed=True)
        assert (tmp_path / TRACE_FILE).stat().st_size == size
