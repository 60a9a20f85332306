"""The shared --metrics-out / --flow-out flush: atomicity, flow summary
comment, and the two ends of a flow-ledger run."""

from __future__ import annotations

import json

from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FLOW_SCHEMA, FlowLedger
from repro.obs.flush import (
    FLOW_COMMENT_PREFIX,
    finish_artifacts,
    flush_metrics_file,
    open_flow,
    read_flow_summary,
    render_snapshot,
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
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_unit_total", "unit").inc()
        return registry

    def test_without_flow_is_plain_exposition(self):
        body = render_snapshot(self._registry())
        assert "repro_unit_total" in body
        assert FLOW_COMMENT_PREFIX not in body

    def test_flow_summary_rides_as_comment(self, tmp_path):
        flow = FlowLedger()
        flow.charge(0, "boost", 0, 1, 80)
        path = flush_metrics_file(
            tmp_path / "metrics.prom", self._registry(), flow=flow
        )
        text = path.read_text()
        assert "repro_unit_total" in text
        comment_lines = [
            line for line in text.splitlines()
            if line.startswith(FLOW_COMMENT_PREFIX)
        ]
        assert len(comment_lines) == 1
        summary = read_flow_summary(path)
        assert summary["data_bits"] == 80
        assert summary["by_phase"] == {"boost": 80}

    def test_read_flow_summary_absent(self, tmp_path):
        path = flush_metrics_file(tmp_path / "m.prom", self._registry())
        assert read_flow_summary(path) is None


class TestFlowArtifacts:
    """What runtime/cluster/serve each used to spell out themselves."""

    def _charged(self, flow_out, registry):
        metrics = CommunicationMetrics()
        flow = open_flow(flow_out, registry)
        metrics.attach_flow(flow)
        metrics.record_message(0, 1, 80)
        return flow, metrics

    def test_spill_sits_beside_the_report(self, tmp_path):
        flow = open_flow(tmp_path / "FLOW_x.json", None, max_cells=32)
        assert flow.spill_path == tmp_path / "FLOW_x.json.spill.jsonl"
        assert flow.max_cells == 32
        assert open_flow(None, None).spill_path is None

    def test_finish_writes_the_report_and_the_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        flow_out = tmp_path / "FLOW_unit.json"
        flow, metrics = self._charged(flow_out, registry)
        payload = finish_artifacts(
            flow, registry, flow_out, tmp_path / "m.prom",
            metrics=metrics, extra={"n": 2},
        )
        assert json.loads(flow_out.read_text()) == payload
        assert payload["schema"] == FLOW_SCHEMA
        assert payload["name"] == "unit"  # FLOW_ prefix stripped
        assert payload["n"] == 2
        assert payload["parity_with_metrics"] is True
        assert payload["parity_problems"] == []
        assert read_flow_summary(tmp_path / "m.prom")["data_bits"] == 80

    def test_without_a_ledger_only_the_snapshot_is_written(self, tmp_path):
        registry = MetricsRegistry()
        assert finish_artifacts(
            None, registry, None, tmp_path / "m.prom"
        ) is None
        assert [p.name for p in tmp_path.iterdir()] == ["m.prom"]
