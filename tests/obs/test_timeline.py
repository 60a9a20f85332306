"""Chrome trace-event export: schema, determinism, round-tripping."""

import json

import pytest

import repro.obs.timeline
from repro.__main__ import main
from repro.cluster.supervisor import ClusterConfig
from repro.errors import ConfigurationError
from repro.obs.spans import SpanLog, SpanRecord, recording, span
from repro.obs.timeline import (
    PHASES_PID,
    export_chrome_trace,
    SPAN_TICKS,
    load_trace_dir,
    span_slices,
    timeline_events,
    validate_trace_events,
)
from repro.protocols.phase_king import build_phase_king
from repro.runtime.placements import mesh
from repro.runtime.trace import TraceRecorder


def _sample_trace(clock=None):
    trace = TraceRecorder(clock=clock)
    for round_index in range(2):
        for party in (0, 1):
            trace.record(party, "round-barrier", round_index, queue_depth=party)
    trace.record(0, "send", 0, peer=1, bits=16)
    trace.record(1, "recv", 1, peer=0, bits=16)
    trace.record(1, "halt", 1, output="0")
    return trace


def _sample_spans():
    log = SpanLog()
    with recording(log):
        with span("pi-ba", n=2):
            with span("prf-boost"):
                pass
    return log


class TestTimelineEvents:
    def test_validates_and_has_both_tracks(self):
        events = timeline_events(_sample_trace(), _sample_spans())
        validate_trace_events(events)
        pids = {event["pid"] for event in events}
        assert PHASES_PID in pids  # phases track
        assert {1, 2} <= pids  # party tracks (pid = party + 1)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "round-0" in names and "pi-ba" in names

    def test_round_slices_carry_queue_depth(self):
        events = timeline_events(_sample_trace())
        slices = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
        assert [s["args"]["queue_depth"] for s in slices] == [1, 1]

    def test_deterministic_without_clock(self):
        one = timeline_events(_sample_trace(), _sample_spans())
        two = timeline_events(_sample_trace(), _sample_spans())
        assert one == two

    def test_wall_stamps_ignored_by_default(self):
        ticks = iter(float(i) for i in range(100))
        stamped = _sample_trace(clock=lambda: next(ticks))
        plain = _sample_trace()
        assert timeline_events(stamped) == timeline_events(plain)

    def test_deterministic_false_requires_wall(self):
        with pytest.raises(ValueError):
            timeline_events(_sample_trace(), deterministic=False)

    def test_wall_mode_uses_microseconds(self):
        ticks = iter(float(i) for i in range(100))
        stamped = _sample_trace(clock=lambda: next(ticks))
        events = timeline_events(stamped, deterministic=False)
        validate_trace_events(events)
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["ts"] >= 1_000_000 for e in instants)

    def test_accepts_plain_mapping(self):
        mapping = {0: _sample_trace().events_of(0)}
        validate_trace_events(timeline_events(mapping))


class TestPhaseSlices:
    def test_slices_carry_path_depth_and_attrs(self):
        slices = [
            e for e in timeline_events(spans=_sample_spans())
            if e["ph"] == "X"
        ]
        assert {(e["pid"], e["cat"]) for e in slices} == {(PHASES_PID, "phase")}
        args = {e["name"]: e["args"] for e in slices}
        assert args == {
            "pi-ba": {"path": "pi-ba", "depth": 0, "n": 2},
            "prf-boost": {"path": "pi-ba/prf-boost", "depth": 1},
        }

    def test_tracks_are_named_and_sorted_by_pid(self):
        events = timeline_events(_sample_trace(), _sample_spans())
        meta = {
            (e["pid"], e["name"]): e["args"] for e in events if e["ph"] == "M"
        }
        assert meta == {
            (pid, key): args
            for pid, name in (
                (PHASES_PID, "protocol-phases"), (1, "party-0"), (2, "party-1")
            )
            for key, args in (
                ("process_name", {"name": name}),
                ("process_sort_index", {"sort_index": pid}),
            )
        }

    def test_an_empty_span_log_adds_no_phases_track(self):
        events = timeline_events(_sample_trace(), SpanLog())
        assert events == timeline_events(_sample_trace())
        assert PHASES_PID not in {e["pid"] for e in events}

    def test_open_spans_are_skipped(self):
        record = SpanRecord(name="open", path="open", depth=0, start_tick=0)
        assert span_slices([record], use_wall=False) == []

    def test_wall_mode_uses_wall_stamps(self):
        record = SpanRecord(
            name="s", path="s", depth=0, start_tick=0, end_tick=1,
            start_wall=1.0, end_wall=1.5,
        )
        (event,) = span_slices([record], use_wall=True)
        assert (event["ts"], event["dur"]) == (1_000_000, 500_000)
        (logical,) = span_slices([record], use_wall=False)
        assert (logical["ts"], logical["dur"]) == (0, SPAN_TICKS)

    def test_a_span_without_a_wall_end_falls_back_to_ticks(self):
        record = SpanRecord(
            name="s", path="s", depth=0, start_tick=3, end_tick=5,
            start_wall=1.0,
        )
        (event,) = span_slices([record], use_wall=True)
        assert (event["ts"], event["dur"]) == (3 * SPAN_TICKS, 2 * SPAN_TICKS)


class TestExportAndLoad:
    def test_export_round_trips_through_trace_dir(self, tmp_path):
        trace = _sample_trace()
        trace.dump_dir(tmp_path / "traces")
        loaded = load_trace_dir(tmp_path / "traces")
        assert timeline_events(loaded) == timeline_events(trace)

    def test_truncated_trace_file_names_file_and_line(self, tmp_path):
        _sample_trace().dump_dir(tmp_path)
        path = tmp_path / "party-0.jsonl"
        path.write_text(path.read_text()[:-9])
        with pytest.raises(ConfigurationError, match=r"party-0\.jsonl:\d+: "):
            load_trace_dir(tmp_path)

    def test_export_file_is_valid_and_deterministic(self, tmp_path):
        a = export_chrome_trace(tmp_path / "a.json", _sample_trace(),
                                _sample_spans())
        b = export_chrome_trace(tmp_path / "b.json", _sample_trace(),
                                _sample_spans())
        assert a.read_bytes() == b.read_bytes()
        document = json.loads(a.read_text())
        assert document["displayTimeUnit"] == "ms"
        validate_trace_events(document["traceEvents"])


class TestValidate:
    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            validate_trace_events([{"ph": "Z", "pid": 0, "ts": 0}])

    def test_rejects_missing_pid(self):
        with pytest.raises(ValueError):
            validate_trace_events([{"ph": "X", "ts": 0, "dur": 1}])

    def test_rejects_x_without_duration(self):
        with pytest.raises(ValueError):
            validate_trace_events([{"ph": "X", "pid": 0, "ts": 0}])

    def test_rejects_instant_without_scope(self):
        with pytest.raises(ValueError):
            validate_trace_events([{"ph": "i", "pid": 0, "ts": 0}])


class TestTimelineOfAClusterRun:
    """A traced mesh run's per-party trace is its cross-process view:
    ``obs timeline`` renders every party of every worker and checks the
    document it wrote."""

    @staticmethod
    def _mesh_trace_dir(tmp_path):
        parties, honest, max_rounds = build_phase_king(
            {i: i % 2 for i in range(8)}, (7,)
        )
        result = mesh(config=ClusterConfig(num_workers=2)).run(
            parties, honest, max_rounds, trace=TraceRecorder()
        )
        result.trace.dump_dir(tmp_path / "traces")
        return tmp_path / "traces"

    def test_one_perfetto_process_per_party(self, tmp_path, capsys):
        traces = self._mesh_trace_dir(tmp_path)
        out = tmp_path / "timeline.json"
        assert main(["obs", "timeline", str(traces), str(out)]) == 0
        assert f"8 parties) -> {out}" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        validate_trace_events(events)
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == set(range(1, 9))

    def test_an_invalid_document_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        traces = self._mesh_trace_dir(tmp_path)

        def reject(events):
            raise ValueError("event 0: bad ph 'Z'")

        monkeypatch.setattr(
            repro.obs.timeline, "validate_trace_events", reject
        )
        out = tmp_path / "timeline.json"
        assert main(["obs", "timeline", str(traces), str(out)]) == 1
        assert "not a valid trace-event document" in capsys.readouterr().out
