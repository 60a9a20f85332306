"""Cross-process timeline merging: span dirs, determinism, validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.merge import (
    SPAN_DIR_SCHEMA,
    cluster_tracks,
    dump_span_dir,
    export_merged_trace,
    load_span_dir,
    merged_timeline_events,
)
from repro.obs.spans import SpanLog, SpanRecord, recording, span
from repro.obs.timeline import validate_trace_events


def _seeded_tracks():
    """Two deterministic tracks built from real span machinery."""
    supervisor = SpanLog()
    with recording(supervisor):
        for index in range(3):
            with span("supervisor-round", frames=index):
                pass
    worker = SpanLog()
    with recording(worker):
        with span("cluster-round", frames_in=0):
            with span("srds-aggregate"):
                pass
    return {"supervisor": supervisor.records, "worker-0": worker.records}


class TestSpanDir:
    def test_round_trip(self, tmp_path):
        tracks = _seeded_tracks()
        dump_span_dir(tmp_path / "spans", "run-42", tracks)
        meta = json.loads(
            (tmp_path / "spans" / "merge-meta.json").read_text()
        )
        assert meta["schema"] == SPAN_DIR_SCHEMA
        assert meta["tracks"] == ["supervisor", "worker-0"]
        trace_id, loaded = load_span_dir(tmp_path / "spans")
        assert trace_id == "run-42"
        assert sorted(loaded) == ["supervisor", "worker-0"]
        assert [r.name for r in loaded["worker-0"]] == [
            "cluster-round", "srds-aggregate",
        ]
        assert loaded["worker-0"][0].attrs == {"frames_in": 0}

    def test_unsafe_track_name_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            dump_span_dir(tmp_path, "t", {"a/b": []})

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_span_dir(tmp_path)

    def test_truncated_track_file_names_file_and_line(self, tmp_path):
        dump_span_dir(tmp_path, "t", _seeded_tracks())
        path = tmp_path / "spans-worker-0.jsonl"
        path.write_text(path.read_text()[:-9])
        with pytest.raises(
            ConfigurationError, match=r"spans-worker-0\.jsonl:2: "
        ):
            load_span_dir(tmp_path)

    def test_missing_meta_tolerated(self, tmp_path):
        dump_span_dir(tmp_path, "t", _seeded_tracks())
        (tmp_path / "merge-meta.json").unlink()
        trace_id, loaded = load_span_dir(tmp_path)
        assert trace_id == ""
        assert len(loaded) == 2


class TestMergedTimeline:
    def test_tracks_become_distinct_pids_sharing_trace_id(self):
        events = merged_timeline_events(_seeded_tracks(), "run-42")
        names = {
            e["args"]["name"]: e["pid"]
            for e in events if e.get("name") == "process_name"
        }
        assert names == {"supervisor": 0, "worker-0": 1}
        labels = [e for e in events if e.get("name") == "process_labels"]
        assert {e["args"]["labels"] for e in labels} == {"run-42"}
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in slices} == {"run-42"}
        assert {e["pid"] for e in slices} == {0, 1}

    def test_merged_stream_validates(self):
        events = merged_timeline_events(_seeded_tracks(), "run-42")
        validate_trace_events(events)  # raises on malformed events

    def test_export_byte_identical_across_two_seeded_runs(self, tmp_path):
        # The clock=None contract end to end: building the same spans
        # twice and exporting yields byte-identical files.
        first = export_merged_trace(
            tmp_path / "a.json", _seeded_tracks(), "run-42"
        )
        second = export_merged_trace(
            tmp_path / "b.json", _seeded_tracks(), "run-42"
        )
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text())
        validate_trace_events(document["traceEvents"])
        assert document["otherData"]["trace_id"] == "run-42"

    def test_open_spans_are_skipped(self):
        open_record = SpanRecord(
            name="open", path="open", depth=0, start_tick=0
        )
        events = merged_timeline_events({"t": [open_record]})
        assert [e for e in events if e["ph"] == "X"] == []

    def test_wall_mode_uses_wall_stamps(self):
        record = SpanRecord(
            name="s", path="s", depth=0, start_tick=0, end_tick=1,
            start_wall=1.0, end_wall=1.5,
        )
        (event,) = [
            e for e in merged_timeline_events(
                {"t": [record]}, deterministic=False
            )
            if e["ph"] == "X"
        ]
        assert event["ts"] == 1_000_000
        assert event["dur"] == 500_000


class TestClusterTracks:
    def test_duck_typed_result(self):
        class Result:
            supervisor_spans = _seeded_tracks()["supervisor"]
            worker_spans = {1: [], 0: _seeded_tracks()["worker-0"]}

        tracks = cluster_tracks(Result())
        assert list(tracks) == ["supervisor", "worker-0", "worker-1"]
