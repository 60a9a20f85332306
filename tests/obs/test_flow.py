"""FlowLedger: cells, tags, eviction/spill, parity with the metrics ledger."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import (
    FLOW_SCHEMA,
    FUNCTIONALITY,
    INFRA,
    FlowLedger,
    load_flow_json,
    load_spill,
)
from repro.obs.flush import finish_artifacts
from repro.obs.spans import UNATTRIBUTED, charge_label, flow_tags, span


class TestCharge:
    def test_cells_accumulate_and_order_hottest_first(self):
        flow = FlowLedger()
        flow.charge(0, "setup", 1, 2, 100, kind="wire")
        flow.charge(0, "setup", 1, 2, 50, kind="wire")
        flow.charge(1, "boost", 3, 4, 700, kind="frame")
        cells = flow.cells()
        assert [(c.bits, c.frames) for c in cells] == [(700, 1), (150, 2)]
        assert cells[0].kind == "frame"
        assert flow.top(1)[0].phase == "boost"

    def test_aggregates(self):
        flow = FlowLedger()
        flow.charge(0, "a", 1, 2, 10)
        flow.charge(2, "b", 2, 1, 30)
        flow.charge(0, "", 1, 2, 5)
        assert flow.by_phase() == {"a": 10, "b": 30, UNATTRIBUTED: 5}
        assert flow.by_kind() == {"wire": 45}
        assert flow.party_bits()[1] == {
            "sent": 15, "received": 30, "total": 45,
        }
        assert flow.data_bits == 45
        assert flow.coverage() == pytest.approx(40 / 45)

    def test_control_kind_excluded_from_data_plane(self):
        flow = FlowLedger()
        flow.charge(0, "(control)", INFRA, -10, 999, kind="ctl:job")
        flow.charge(0, "p", 0, 1, 8)
        assert flow.data_bits == 8
        assert flow.control_bits == 999
        assert flow.coverage() == 1.0  # control bits never dilute coverage
        assert flow.party_bits() == {
            0: {"sent": 8, "received": 0, "total": 8},
            1: {"sent": 0, "received": 8, "total": 8},
        }

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowLedger().charge(0, "p", 0, 1, -1)

    def test_tiny_max_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowLedger(max_cells=8)


class TestFlowTags:
    def test_default_no_override(self):
        assert charge_label("", "", "wire") == (UNATTRIBUTED, "wire")

    def test_nesting_inherits_outer_values(self):
        with span("outer"), flow_tags("frame"):
            with flow_tags("session"):
                assert charge_label("", "", "wire") == ("outer", "session")
            assert charge_label("", "", "wire") == ("outer", "frame")
            # What the charge itself carries beats the ambient context.
            assert charge_label("own", "async", "wire") == ("own", "async")
        assert charge_label("", "", "hybrid") == (UNATTRIBUTED, "hybrid")

    def test_explicit_label_wins_in_both_views(self):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        with span("real-phase"):
            metrics.record_message(
                0, 1, 64, phase="replayed-phase", kind="frame"
            )
            metrics.charge_functionality([2], 10, 1, phase="replayed-op")
            metrics.record_message(0, 1, 8)
        # The label dimension and the flow cells file each charge under
        # the same phase: the carried one, else the span.
        assert metrics.bits_by_phase(0) == {
            "replayed-phase": 64, "real-phase": 8,
        }
        assert metrics.bits_by_phase(2) == {"replayed-op": 10}
        assert {(c.phase, c.kind) for c in flow.cells()} == {
            ("replayed-phase", "frame"),
            ("replayed-op", "hybrid"),
            ("real-phase", "wire"),
        }


class TestEviction:
    def test_eviction_spills_coldest_and_keeps_aggregates_exact(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        flow = FlowLedger(max_cells=16, spill_path=spill)
        # 17 distinct cells with distinct sizes: inserting the 17th
        # evicts a batch of the coldest cells.
        for i in range(17):
            flow.charge(i, "p", 0, 1, (i + 1) * 8)
        assert len(flow.cells()) <= 16
        assert flow.evicted_cells > 0
        spilled = load_spill(spill)
        assert len(spilled) == flow.evicted_cells
        # The evicted cells are the coldest ones.
        live_min = min(c.bits for c in flow.cells())
        assert all(c.bits <= live_min for c in spilled)
        # Aggregates and side counters never lose evicted bits.
        total = sum((i + 1) * 8 for i in range(17))
        assert flow.by_phase() == {"p": total}
        assert flow.party_bits()[0]["sent"] == total
        assert flow.data_bits == total
        flow.close()

    def test_truncated_spill_names_file_and_line(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        flow = FlowLedger(max_cells=16, spill_path=spill)
        for i in range(17):
            flow.charge(i, "p", 0, 1, (i + 1) * 8)
        flow.close()
        spill.write_text(spill.read_text()[:-9])
        with pytest.raises(
            ConfigurationError,
            match=rf"spill\.jsonl:{flow.evicted_cells}: ",
        ):
            load_spill(spill)

    def test_eviction_is_deterministic(self):
        def run():
            flow = FlowLedger(max_cells=16)
            for i in range(40):
                flow.charge(i % 5, f"phase-{i % 3}", i % 7, (i + 1) % 7,
                            (i * 37) % 256)
            return ([c.to_wire() for c in flow.cells()],
                    flow.evicted_cells, flow.evicted_bits)

        assert run() == run()


class TestMetricsParity:
    def test_record_message_parity(self):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        metrics.record_message(0, 1, 100)
        metrics.record_message(1, 2, 36)
        metrics.end_round()
        metrics.record_message(2, 0, 7)
        assert flow.verify_against(metrics) == []
        # Round refinement: post-end_round charges land in round 1.
        assert {c.round for c in flow.cells()} == {0, 1}

    def test_charge_functionality_halves_keep_parity(self):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        with span("srds-aggregate"):
            metrics.charge_functionality([0, 1, 2], 33, 2)
        assert flow.verify_against(metrics) == []
        kinds = {c.kind for c in flow.cells()}
        assert kinds == {"hybrid"}
        # Sent half 17 (p -> F), received half 16 (F -> p).
        sent = [c for c in flow.cells() if c.dst == FUNCTIONALITY]
        recv = [c for c in flow.cells() if c.src == FUNCTIONALITY]
        assert {c.bits for c in sent} == {17}
        assert {c.bits for c in recv} == {16}

    def test_verify_reports_mismatch(self):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.record_message(0, 1, 50)  # flow not attached: no mirror
        problems = flow.verify_against(metrics)
        assert len(problems) == 2
        assert any("party 0" in p and "sent" in p for p in problems)

    def test_pickled_metrics_drop_flow(self):
        import pickle

        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        metrics.record_message(0, 1, 10)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.flow is None
        assert clone.tally_of(0).bits_sent == 10


class TestNoRegistryFeed:
    def test_flow_ledger_takes_no_registry(self):
        # The flow report and the gateway's status op carry what the
        # repro_flow_* series used to copy.
        with pytest.raises(TypeError):
            FlowLedger(registry=object())


class TestReports:
    def test_report_round_trip(self, tmp_path):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        with span("p"):
            metrics.record_message(0, 1, 40)
        path = tmp_path / "FLOW_unit.json"
        payload = finish_artifacts(flow, path, metrics=metrics,
                                   extra={"n": 2})
        assert payload["schema"] == FLOW_SCHEMA
        assert payload["name"] == "unit"
        assert payload["parity_with_metrics"] is True
        assert payload["coverage"] == 1.0
        assert payload["n"] == 2
        assert load_flow_json(path) == payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "FLOW_bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ConfigurationError):
            load_flow_json(path)

    def test_summary_shape(self):
        flow = FlowLedger()
        flow.charge(0, "p", 0, 1, 8)
        summary = flow.summary()
        assert summary["data_bits"] == 8
        assert summary["by_phase"] == {"p": 8}
        assert summary["coverage"] == 1.0
