"""Chrome trace-event export: schema, determinism, round-tripping."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.spans import SpanLog, recording, span
from repro.obs.timeline import (
    PHASES_PID,
    export_chrome_trace,
    load_trace_dir,
    timeline_events,
    validate_trace_events,
)
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
