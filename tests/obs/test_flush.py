"""The shared artifact flush: atomicity, the gateway's plain
exposition snapshot, and the two ends of a flow-ledger run."""

from __future__ import annotations

import json

from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FLOW_SCHEMA, FlowLedger
from repro.obs.flush import (
    finish_artifacts,
    flush_metrics_file,
    open_flow,
    write_atomic_text,
)
from repro.obs.registry import MetricsRegistry


class TestWriteAtomicText:
    def test_creates_parents_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "out.txt"
        write_atomic_text(target, "one\n")
        write_atomic_text(target, "two\n")
        assert target.read_text() == "two\n"

    def test_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        write_atomic_text(target, "x")
        assert list(tmp_path.iterdir()) == [target]


class TestSnapshot:
    def test_is_the_plain_exposition(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_unit_total", "unit").inc()
        path = flush_metrics_file(tmp_path / "metrics.prom", registry)
        assert path.read_text() == registry.render()
        assert "repro_unit_total 1" in registry.render()


class TestFlowArtifacts:
    """What cluster/serve each used to spell out themselves."""

    def _charged(self, flow_out):
        metrics = CommunicationMetrics()
        flow = open_flow(flow_out)
        metrics.attach_flow(flow)
        metrics.record_message(0, 1, 80)
        return flow, metrics

    def test_spill_sits_beside_the_report(self, tmp_path):
        flow = open_flow(tmp_path / "FLOW_x.json")
        assert flow.spill_path == tmp_path / "FLOW_x.json.spill.jsonl"
        assert flow.max_cells == FlowLedger().max_cells

    def test_finish_writes_only_the_report(self, tmp_path):
        flow_out = tmp_path / "FLOW_unit.json"
        flow, metrics = self._charged(flow_out)
        payload = finish_artifacts(
            flow, flow_out, metrics=metrics, extra={"n": 2},
        )
        assert json.loads(flow_out.read_text()) == payload
        assert payload["schema"] == FLOW_SCHEMA
        assert payload["name"] == "unit"  # FLOW_ prefix stripped
        assert payload["n"] == 2
        assert payload["total_bits"] == 80
        assert payload["parity_with_metrics"] is True
        assert payload["parity_problems"] == []
        assert [p.name for p in tmp_path.iterdir()] == ["FLOW_unit.json"]

    def test_without_a_ledger_nothing_is_written(self, tmp_path):
        assert finish_artifacts(None, tmp_path / "FLOW_x.json") is None
        assert list(tmp_path.iterdir()) == []
