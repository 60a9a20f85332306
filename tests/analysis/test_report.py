"""Tests for the per-phase and BENCH-record text renderers."""

import dataclasses

from repro.analysis.report import (
    render_bench_record,
    render_party_phase_table,
    render_phase_breakdown,
)
from repro.net.metrics import CommunicationMetrics
from repro.obs.spans import span


def _metrics(parties=3):
    metrics = CommunicationMetrics()
    with span("tree-aggregate"):
        for recipient in range(1, parties):
            metrics.record_message(0, recipient, 96)
    with span("prf-boost"):
        metrics.record_message(1, 0, 8)
    return metrics


def _body(text):
    """The data rows of a rendered table (header and rule dropped)."""
    return text.splitlines()[2:]


class TestPhaseBreakdown:
    def test_heaviest_phase_first(self):
        text = render_phase_breakdown(_metrics().phase_breakdown())
        assert [row.split()[0] for row in _body(text)] == [
            "tree-aggregate", "prf-boost",
        ]

    def test_equal_totals_sort_by_name(self):
        entry = {"total_bits": 64, "max_bits_per_party": 32,
                 "parties": 2, "messages": 1}
        text = render_phase_breakdown({"zeta": entry, "alpha": entry})
        assert [row.split()[0] for row in _body(text)] == ["alpha", "zeta"]

    def test_dict_form_renders_like_the_dataclass(self):
        breakdown = _metrics().phase_breakdown()
        as_dicts = {name: dataclasses.asdict(entry)
                    for name, entry in breakdown.items()}
        assert render_phase_breakdown(as_dicts) == \
            render_phase_breakdown(breakdown)

    def test_columns_widen_to_the_longest_phase(self):
        entry = {"total_bits": 8, "max_bits_per_party": 8,
                 "parties": 1, "messages": 1}
        name = "a-rather-long-phase-label"
        header, rule, row = render_phase_breakdown({name: entry}).splitlines()
        assert header.startswith("phase" + " " * (len(name) - len("phase")))
        assert len(rule) == len(header)
        assert row.startswith(name + "  ")

    def test_missing_fields_read_as_zero(self):
        (row,) = _body(render_phase_breakdown({"p": {"total_bits": 2048}}))
        assert row.split() == ["p", "2.0Kb", "0.0b", "0", "0"]


class TestPartyPhaseTable:
    def test_a_consistent_ledger_matches_everywhere(self):
        metrics = _metrics()
        rows = _body(render_party_phase_table(metrics))
        assert len(rows) == len(metrics.party_ids)
        for party_id, row in zip(metrics.party_ids, rows):
            total = f"{metrics.tally_of(party_id).bits_total:,}"
            assert row.split() == [str(party_id), total, total, "ok"]

    def test_a_phase_sum_off_the_total_is_flagged(self):
        class Skewed(CommunicationMetrics):
            def bits_by_phase(self, party_id):
                phases = super().bits_by_phase(party_id)
                if party_id == 2:
                    phases["prf-boost"] = phases.get("prf-boost", 0) + 1
                return phases

        skewed = Skewed()
        skewed.record_message(0, 1, 8)
        skewed.record_message(0, 2, 8)
        rows = _body(render_party_phase_table(skewed))
        assert [row.split()[-1] for row in rows] == ["ok", "ok", "MISMATCH"]

    def test_parties_past_the_limit_are_elided(self):
        text = render_party_phase_table(_metrics(parties=6), limit=4)
        rows = _body(text)
        assert [row.split()[0] for row in rows[:-1]] == ["0", "1", "2", "3"]
        assert rows[-1] == "... (2 more parties elided)"


class TestBenchRecord:
    def test_bit_counters_carry_their_unit(self):
        text = render_bench_record({
            "name": "demo",
            "snapshot": {"total_bits": 3 * 1024 * 1024, "rounds": 2048},
        })
        assert "  total_bits: 3,145,728 (3.0Mb)" in text.splitlines()
        assert "  rounds: 2048" in text.splitlines()

    def test_empty_sections_are_left_out(self):
        assert render_bench_record({"name": "bare"}) == "bench record: bare"
        assert render_bench_record({}) == "bench record: ?"

    def test_sections_in_order_and_keys_sorted(self):
        text = render_bench_record({
            "name": "demo",
            "snapshot": {"total_bits": 8},
            "phase_breakdown": {"p": {"total_bits": 8}},
            "extra": {"seed": 3, "n": 16},
        })
        lines = text.splitlines()
        headings = [line for line in lines if not line.startswith(" ")]
        assert headings == [
            "bench record: demo", "snapshot:", "phase breakdown:", "extra:",
        ]
        assert lines[-2:] == ["  n: 16", "  seed: 3"]
