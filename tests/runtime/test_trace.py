"""Trace recorder: schema, JSONL round-tripping, determinism knobs."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime.trace import (
    RESERVED_KEYS,
    JsonlTraceWriter,
    TraceRecorder,
    load_jsonl,
    summarize,
    wall_clock_recorder,
)


class TestRecording:
    def test_event_shape(self):
        trace = TraceRecorder()
        trace.record(0, "send", 3, peer=1, bits=16)
        (event,) = trace.events_of(0)
        assert event == {
            "party": 0, "kind": "send", "round": 3, "seq": 0,
            "peer": 1, "bits": 16,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record(0, "teleport", 0)

    def test_per_party_sequence_numbers(self):
        trace = TraceRecorder()
        trace.record(0, "send", 0)
        trace.record(1, "send", 0)
        trace.record(0, "halt", 1)
        assert [e["seq"] for e in trace.events_of(0)] == [0, 1]
        assert [e["seq"] for e in trace.events_of(1)] == [0]

    def test_counts_and_queue_depth(self):
        trace = TraceRecorder()
        trace.record(0, "round-barrier", 0, queue_depth=4)
        trace.record(0, "round-barrier", 1, queue_depth=9)
        trace.record(0, "recv", 1, peer=2, bits=8)
        assert trace.count() == 3
        assert trace.count("round-barrier") == 2
        assert trace.max_queue_depth() == 9


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.record(5, "send", 0, peer=6, bits=24)
        trace.record(5, "halt", 1, output="3")
        paths = trace.dump_dir(tmp_path)
        assert [p.name for p in paths] == ["party-5.jsonl"]
        events = load_jsonl(paths[0])
        assert events == trace.events_of(5)

    def test_jsonl_lines_are_valid_json(self):
        trace = TraceRecorder()
        trace.record(0, "send", 0, peer=1, bits=8)
        for line in trace.dumps(0).splitlines():
            json.loads(line)

    def test_summarize(self):
        trace = TraceRecorder()
        trace.record(0, "send", 0)
        trace.record(0, "send", 1)
        trace.record(0, "halt", 2)
        assert summarize(trace.events_of(0)) == {"send": 2, "halt": 1}


class TestDeterminism:
    def test_default_recorder_has_no_wall_times(self):
        trace = TraceRecorder()
        trace.record(0, "send", 0)
        assert "wall" not in trace.events_of(0)[0]

    def test_wall_clock_recorder_stamps_wall(self):
        trace = wall_clock_recorder()
        trace.record(0, "send", 0)
        assert isinstance(trace.events_of(0)[0]["wall"], float)

    def test_fingerprint_distinguishes_traces(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(0, "send", 0, peer=1)
        b.record(0, "send", 0, peer=2)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_equal_for_equal_traces(self):
        a, b = TraceRecorder(), TraceRecorder()
        for trace in (a, b):
            trace.record(1, "recv", 4, peer=0, bits=8)
        assert a.fingerprint() == b.fingerprint()


class TestReservedKeys:
    def test_reserved_field_collision_raises(self):
        # Regression: fields used to be merged with event.update(fields),
        # so a caller passing seq=/round=/party=/kind=/wall= silently
        # clobbered the recorder's own coordinates.
        trace = TraceRecorder()
        for key in ("party", "wall", "seq"):
            with pytest.raises(ValueError, match="reserved"):
                trace.record(0, "send", 0, **{key: 1})
        # "kind"/"round" can't even reach record() as keywords (Python
        # rejects the duplicate parameter), but they stay in the reserved
        # set so subclasses and dict-driven callers are covered.
        assert "round" in RESERVED_KEYS and "kind" in RESERVED_KEYS
        # A collision buried among legitimate fields is still caught.
        with pytest.raises(ValueError, match="reserved"):
            trace.record(0, "send", 0, peer=1, wall=0.0)
        # Nothing was recorded by the failed attempts.
        assert trace.count() == 0

    def test_reserved_keys_exported(self):
        assert RESERVED_KEYS == {"party", "kind", "round", "seq", "wall"}

    def test_non_reserved_fields_still_pass_through(self):
        trace = TraceRecorder()
        trace.record(0, "send", 0, peer=1, bits=8, queue_depth=3)
        (event,) = trace.events_of(0)
        assert event["peer"] == 1 and event["queue_depth"] == 3


class TestJsonlTraceWriter:
    def _record_sample(self, trace):
        trace.record(0, "round-barrier", 0, queue_depth=2)
        trace.record(0, "send", 0, peer=1, bits=16)
        trace.record(1, "recv", 1, peer=0, bits=16)
        trace.record(1, "halt", 1, output="1")

    def test_byte_identical_to_in_memory_recorder(self, tmp_path):
        memory = TraceRecorder()
        self._record_sample(memory)
        with JsonlTraceWriter(tmp_path / "stream") as stream:
            self._record_sample(stream)
            assert stream.party_ids == memory.party_ids
            for party in memory.party_ids:
                assert stream.dumps(party) == memory.dumps(party)
            assert stream.fingerprint() == memory.fingerprint()
        # On-disk files equal the in-memory recorder's dump_dir output.
        memory_paths = memory.dump_dir(tmp_path / "memory")
        for memory_path in memory_paths:
            stream_path = tmp_path / "stream" / memory_path.name
            assert stream_path.read_bytes() == memory_path.read_bytes()

    def test_streaming_counters(self, tmp_path):
        with JsonlTraceWriter(tmp_path) as stream:
            self._record_sample(stream)
            assert stream.count() == 4
            assert stream.count("send") == 1
            assert stream.max_queue_depth() == 2

    def test_events_written_through_immediately(self, tmp_path):
        stream = JsonlTraceWriter(tmp_path)
        stream.record(0, "send", 0, peer=1, bits=8)
        stream.flush()
        # Readable from disk before close.
        assert load_jsonl(tmp_path / "party-0.jsonl")[0]["kind"] == "send"
        stream.close()

    def test_truncated_last_line_names_file_and_line(self, tmp_path):
        # What a SIGKILLed writer leaves behind: a line cut mid-object.
        stream = JsonlTraceWriter(tmp_path)
        self._record_sample(stream)
        stream.close()
        path = tmp_path / "party-0.jsonl"
        whole = path.read_text()
        path.write_text(whole[: whole.rindex("{") + 9])
        lines = whole.count("\n")
        with pytest.raises(
            ConfigurationError, match=rf"party-0\.jsonl:{lines}: "
        ):
            load_jsonl(path)

    def test_read_back_after_close(self, tmp_path):
        stream = JsonlTraceWriter(tmp_path)
        self._record_sample(stream)
        stream.close()
        assert stream.events_of(1)[-1]["kind"] == "halt"
        assert stream.fingerprint()

    def test_record_after_close_raises(self, tmp_path):
        stream = JsonlTraceWriter(tmp_path)
        stream.close()
        with pytest.raises(ValueError):
            stream.record(0, "send", 0)

    def test_reserved_keys_enforced_by_subclass_too(self, tmp_path):
        with JsonlTraceWriter(tmp_path) as stream:
            with pytest.raises(ValueError, match="reserved"):
                stream.record(0, "send", 0, seq=7)

    def test_dump_dir_copies_elsewhere(self, tmp_path):
        with JsonlTraceWriter(tmp_path / "a") as stream:
            self._record_sample(stream)
            paths = stream.dump_dir(tmp_path / "b")
        assert [p.parent.name for p in paths] == ["b", "b"]
        assert (tmp_path / "b" / "party-0.jsonl").read_bytes() == (
            tmp_path / "a" / "party-0.jsonl"
        ).read_bytes()

    def test_same_seed_runtime_streams_identically(self, tmp_path):
        # The write-through path must not change what an execution records.
        from repro.protocols.phase_king import PhaseKingParty

        from repro.runtime.synchronizer import run_parties

        def parties():
            members = list(range(4))
            return [
                PhaseKingParty(i, members, 1, {0: 1, 1: 0, 2: 1, 3: 1}[i])
                for i in members
            ]

        memory = TraceRecorder()
        run_parties(parties(), trace=memory)
        with JsonlTraceWriter(tmp_path) as stream:
            run_parties(parties(), trace=stream)
            assert stream.fingerprint() == memory.fingerprint()
