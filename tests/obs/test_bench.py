"""BENCH_<name>.json records: schema, round-tripping, rendering."""

from pathlib import Path

import pytest

from repro.analysis.report import render_bench_record
from repro.errors import ConfigurationError
from repro.net.metrics import CommunicationMetrics
from repro.obs.bench import (
    SCHEMA,
    bench_payload,
    load_bench_json,
    write_bench_json,
)
from repro.obs.spans import recording, span


def _payload():
    metrics = CommunicationMetrics()
    with recording():
        with span("prf-boost"):
            metrics.record_message(0, 1, 64)
    return bench_payload(
        "unit_test",
        snapshot=metrics.snapshot(),
        phase_breakdown=metrics.phase_breakdown(),
        extra={"n": 2},
    )


class TestBenchRecords:
    def test_payload_is_plain_json(self):
        payload = _payload()
        assert payload["schema"] == SCHEMA
        assert payload["snapshot"]["total_bits"] == 64
        breakdown = payload["phase_breakdown"]["prf-boost"]
        assert isinstance(breakdown, dict)
        assert breakdown["total_bits"] == 128  # sent + received convention

    def test_write_and_load_round_trip(self, tmp_path):
        payload = _payload()
        path = write_bench_json(tmp_path, payload)
        assert path.name == "BENCH_unit_test.json"
        assert load_bench_json(path) == payload

    def test_write_rejects_foreign_schema(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench_json(tmp_path, {"schema": "other", "name": "x"})

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ConfigurationError):
            load_bench_json(path)

    def test_render_bench_record(self):
        text = render_bench_record(_payload())
        assert "unit_test" in text
        assert "prf-boost" in text
        assert "n: 2" in text
        assert "wall" not in text

    def test_load_refuses_a_version_1_record_by_name(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(
            '{"schema": "repro-bench/1", "name": "x", "wall_times": {}}'
        )
        with pytest.raises(ConfigurationError, match="repro-bench/1"):
            load_bench_json(path)


COMMITTED = sorted(
    (Path(__file__).parents[2] / "benchmarks" / "results").glob("BENCH_*.json")
)


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
def test_committed_record_loads_under_the_current_schema(path):
    payload = load_bench_json(path)
    assert payload["schema"] == SCHEMA
    assert path.name == f"BENCH_{payload['name']}.json"
    assert set(payload) == {
        "schema", "name", "snapshot", "phase_breakdown", "extra"
    }
