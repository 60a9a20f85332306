"""The bench regression gate: every field of a record compared exactly."""

from __future__ import annotations

import copy
import json
from pathlib import Path

from repro.obs.bench import bench_payload, write_bench_json
from repro.obs.regression import (
    BenchDiff,
    diff_bench,
    diff_dirs,
    diff_files,
    diffs_to_json,
    pair_bench_files,
    render_diffs,
)


def _payload(**overrides):
    base = bench_payload(
        "unit",
        snapshot={
            "total_bits": 1000, "max_bits_per_party": 100,
            "max_locality": 5, "max_messages_per_party": 20,
            "rounds": 9, "num_parties": 8,
        },
        phase_breakdown={
            "srds-aggregate": {
                "total_bits": 800, "max_bits_per_party": 80,
                "messages": 12, "parties": 8,
            },
        },
        extra={"cells": [{"n": 16, "rounds": 2}, {"n": 64, "rounds": 3}]},
    )
    base.update(overrides)
    return base


class TestDiffBench:
    def test_identical_is_ok(self):
        diff = diff_bench(_payload(), _payload())
        assert diff.ok
        assert diff.hard_failures == []
        assert diff.warnings == []

    def test_bit_drift_is_hard_failure(self):
        fresh = _payload()
        fresh["snapshot"]["total_bits"] = 1100  # +10%
        fresh["phase_breakdown"]["srds-aggregate"]["total_bits"] = 880
        diff = diff_bench(_payload(), fresh)
        assert not diff.ok
        assert len(diff.hard_failures) == 2
        assert any("snapshot.total_bits" in f for f in diff.hard_failures)
        assert any("srds-aggregate" in f for f in diff.hard_failures)

    def test_any_drift_fails_even_one_bit(self):
        fresh = _payload()
        fresh["snapshot"]["max_bits_per_party"] = 101
        assert not diff_bench(_payload(), fresh).ok

    def test_failure_names_the_json_path(self):
        fresh = _payload()
        fresh["snapshot"]["max_bits_per_party"] = 200
        diff = diff_bench(_payload(), fresh)
        assert diff.hard_failures == [
            "snapshot.max_bits_per_party: 100 != 200"
        ]

    def test_tampered_extra_leaf_fails(self):
        fresh = _payload()
        fresh["extra"]["cells"][1]["rounds"] = 99
        diff = diff_bench(_payload(), fresh)
        assert diff.hard_failures == ["extra.cells[1].rounds: 3 != 99"]

    def test_type_change_fails(self):
        fresh = _payload()
        fresh["extra"]["cells"][0]["n"] = 16.0
        assert not diff_bench(_payload(), fresh).ok

    def test_one_sided_snapshot_key_fails(self):
        fresh = _payload()
        del fresh["snapshot"]["max_locality"]
        diff = diff_bench(_payload(), fresh)
        assert diff.hard_failures == ["snapshot.max_locality: only in baseline"]
        assert diff.warnings == []

    def test_one_sided_phase_fails(self):
        fresh = _payload()
        fresh["phase_breakdown"]["new-phase"] = copy.deepcopy(
            fresh["phase_breakdown"]["srds-aggregate"]
        )
        diff = diff_bench(_payload(), fresh)
        assert diff.hard_failures == [
            "phase_breakdown.new-phase: only in fresh"
        ]

    def test_list_length_change_fails(self):
        fresh = _payload()
        fresh["extra"]["cells"].append({"n": 256, "rounds": 3})
        diff = diff_bench(_payload(), fresh)
        assert diff.hard_failures == ["extra.cells: length 2 != 3"]

    def test_null_against_a_value_fails(self):
        fresh = _payload()
        fresh["snapshot"] = None
        assert not diff_bench(_payload(), fresh).ok

    def test_key_that_is_not_a_word_is_quoted(self):
        base = _payload(extra={"specs": {"a b=1": 1}})
        fresh = _payload(extra={"specs": {"a b=1": 2}})
        assert diff_bench(base, fresh).hard_failures == [
            'extra.specs["a b=1"]: 1 != 2'
        ]


class TestDirs:
    def _write(self, directory, payload):
        return write_bench_json(directory, payload)

    def test_pairing_and_gate(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        self._write(base_dir, _payload())
        self._write(fresh_dir, _payload())
        self._write(fresh_dir, _payload(name="only_fresh"))
        pairs = pair_bench_files(base_dir, fresh_dir)
        assert [name for name, _, _ in pairs] == ["only_fresh", "unit"]
        results = diff_dirs(base_dir, fresh_dir)
        assert all(r.ok for r in results)
        missing = next(r for r in results if r.name == "only_fresh")
        assert "no baseline" in missing.warnings[0]

    def test_diff_files(self, tmp_path):
        a = self._write(tmp_path, _payload())
        fresh = _payload()
        fresh["snapshot"]["rounds"] = 10
        b = write_bench_json(tmp_path / "f", fresh)
        assert not diff_files(a, b).ok

    def test_a_stale_record_fails_by_schema_name(self, tmp_path):
        a = self._write(tmp_path, _payload())
        stale = _payload()
        stale["schema"] = "repro-bench/1"
        b = tmp_path / "stale" / "BENCH_unit.json"
        b.parent.mkdir()
        b.write_text(json.dumps(stale))
        diff = diff_files(a, b)
        assert not diff.ok
        assert "repro-bench/1" in diff.hard_failures[0]


class TestRendering:
    def test_render_and_json(self):
        results = [
            BenchDiff(name="ok_one"),
            BenchDiff(name="bad", hard_failures=["snapshot.x: 1 != 2"]),
        ]
        text = render_diffs(results)
        assert "ok_one: ok" in text
        assert "bad: FAIL" in text
        assert "HARD snapshot.x" in text
        document = json.loads(diffs_to_json(results))
        assert document["ok"] is False
        assert len(document["results"]) == 2

    def test_render_empty(self):
        assert "no benchmark records" in render_diffs([])


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        write_bench_json(base_dir, _payload())
        write_bench_json(fresh_dir, _payload())
        assert main(
            ["obs", "diff", str(base_dir), str(fresh_dir)]
        ) == 0
        regressed = _payload()
        regressed["snapshot"]["total_bits"] = 1100
        write_bench_json(fresh_dir, regressed)
        assert main(
            ["obs", "diff", str(base_dir), str(fresh_dir)]
        ) == 1
        out = capsys.readouterr().out
        assert "HARD" in out

    def test_usage_errors(self, tmp_path):
        from repro.__main__ import main

        assert main(["obs", "diff"]) == 2
        assert main(
            ["obs", "diff", str(tmp_path), str(tmp_path / "nope")]
        ) == 2


RESULTS = Path(__file__).parents[2] / "benchmarks" / "results"


class TestCommittedRecords:
    """A tampered copy of a committed record fails the gate by path."""

    def test_tampered_aba_record_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        baseline = RESULTS / "BENCH_aba.json"
        record = json.loads(baseline.read_text())
        row = record["extra"]["comparison"][0]
        doubled = 2 * row["aba_max_bits_per_party"]
        row["aba_max_bits_per_party"] = doubled
        record["extra"]["aba_cells"][0]["rounds"] = 99
        fresh = write_bench_json(tmp_path, record)
        assert main(["obs", "diff", str(baseline), str(fresh)]) == 1
        out = capsys.readouterr().out
        assert "aba: FAIL" in out
        assert (
            f"extra.comparison[0].aba_max_bits_per_party: "
            f"{doubled // 2} != {doubled}"
        ) in out
        assert "extra.aba_cells[0].rounds:" in out and "!= 99" in out

    def test_tampered_gateway_record_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        baseline = RESULTS / "BENCH_gateway.json"
        record = json.loads(baseline.read_text())
        bits = record["extra"]["per_party_bits"]
        bits["0"], bits["1"] = bits["1"], bits["0"]
        fresh = write_bench_json(tmp_path, record)
        assert main(["obs", "diff", str(baseline), str(fresh)]) == 1
        out = capsys.readouterr().out
        assert "gateway: FAIL" in out
        assert "extra.per_party_bits.0:" in out
        assert "extra.per_party_bits.1:" in out
