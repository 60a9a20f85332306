"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import main


class TestCommands:
    def test_ba(self, capsys):
        assert main(["ba", "48"]) == 0
        output = capsys.readouterr().out
        assert "snark-srds" in output and "owf-srds" in output
        assert "agree=True" in output

    def test_tree(self, capsys):
        assert main(["tree", "128"]) == 0
        output = capsys.readouterr().out
        assert "good-path leaves" in output
        assert "2/3-honest: True" in output

    def test_attacks(self, capsys):
        assert main(["attacks"]) == 0
        output = capsys.readouterr().out
        assert "Thm 1.3" in output and "Thm 1.4" in output

    def test_ba_out_writes_records_and_timelines(self, tmp_path, capsys):
        out = tmp_path / "ba"
        assert main(["ba", "16", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "snark-srds" in text and "owf-srds" in text
        assert "srds-aggregate" in text
        assert "VIOLATED" not in text and "MISMATCH" not in text
        assert sorted(p.name for p in out.glob("BENCH_*.json")) == [
            "BENCH_ba_owf_srds.json",
            "BENCH_ba_snark_srds.json",
        ]
        assert sorted(p.name for p in out.glob("timeline_*.json")) == [
            "timeline_owf_srds.json",
            "timeline_snark_srds.json",
        ]

    def test_ba_exits_1_when_the_phase_sum_is_violated(self, capsys,
                                                       monkeypatch):
        from repro.net.metrics import CommunicationMetrics

        honest = CommunicationMetrics.bits_by_phase

        def short_one_bit(self, party_id):
            phases = honest(self, party_id)
            if party_id == 0 and phases:
                phases[min(phases)] -= 1
            return phases

        monkeypatch.setattr(CommunicationMetrics, "bits_by_phase",
                            short_one_bit)
        assert main(["ba", "16"]) == 1
        text = capsys.readouterr().out
        assert "MISMATCH" in text
        assert text.count("bits_total per party: VIOLATED") == 2

    def test_no_command_shows_usage(self, capsys):
        assert main([]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_unknown_command_shows_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["lint", "check"],  # its rules are tier-1 witnesses now
        ["runtime", "16", "tcp"],  # the placement tests cover its checks
        ["report"],  # benchmarks/results/ is read record by record
    ], ids=["lint", "runtime", "report"])
    def test_retired_commands_are_unknown(self, argv, capsys):
        assert main(argv) == 2
        assert "Commands" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["obs", "top", "FLOW_x.json"],  # obs flows --by cells --k N
        ["cluster", "resume", "--run-dir", "d"],  # cluster run --resume
    ], ids=["obs-top", "cluster-resume"])
    def test_folded_subcommands_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_every_table_row_resolves_and_readme_quotes_the_usage(self):
        import importlib

        from repro.__main__ import COMMANDS, usage

        for module, function, _ in COMMANDS.values():
            assert callable(getattr(importlib.import_module(module), function))
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert usage() in readme.read_text(encoding="utf-8")


class TestOperatorErrors:
    """A library error is one ``error:`` line on stderr and exit 1."""

    @pytest.mark.parametrize("argv", [
        ["cluster", "run", "--kill", "bogus"],
        ["cluster", "run", "--resume", "--run-dir", "{empty}"],
        ["obs", "flows", "{missing}"],
        ["obs", "flows", "README.md"],
        ["obs", "report", "{missing}"],
        ["serve", "client", "ping", "--port", "0"],
        ["campaign", "run", "--only", ",", "--results-dir", "{empty}"],
        ["campaign", "replay", "bogus"],
    ], ids=["kill-plan", "resume-empty", "flows-missing", "flows-not-json",
            "report-missing", "client-port-0", "campaign-only-empty",
            "campaign-bad-spec"])
    def test_one_error_line_and_exit_1(self, argv, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        (tmp_path / "empty").mkdir()
        argv = [arg.format(empty=tmp_path / "empty",
                           missing=tmp_path / "missing.json")
                for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list((tmp_path / "empty").iterdir()) == []

    def test_a_wrong_schema_is_refused(self, tmp_path, capsys):
        from repro.obs.bench import bench_payload, write_bench_json

        path = write_bench_json(tmp_path, bench_payload("demo"))
        assert main(["obs", "flows", str(path)]) == 1
        assert "not a repro-flow/1 record" in capsys.readouterr().err


class TestObsCommand:
    def test_obs_report_renders_bench_json(self, tmp_path, capsys):
        from repro.obs.bench import bench_payload, write_bench_json

        path = write_bench_json(
            tmp_path,
            bench_payload(
                "demo",
                phase_breakdown={"prf-boost": {
                    "phase": "prf-boost", "total_bits": 128,
                    "max_bits_per_party": 64, "parties": 2, "messages": 1,
                }},
            ),
        )
        assert main(["obs", "report", str(path)]) == 0
        text = capsys.readouterr().out
        assert "demo" in text and "prf-boost" in text

    def test_obs_report_summarizes_trace_dir(self, tmp_path, capsys):
        from repro.runtime.trace import TraceRecorder

        trace = TraceRecorder()
        trace.record(0, "send", 0, peer=1, bits=8)
        trace.record(1, "recv", 1, peer=0, bits=8)
        trace.dump_dir(tmp_path / "traces")
        out = tmp_path / "out"
        assert main([
            "obs", "report", str(tmp_path / "traces"), "--out", str(out)
        ]) == 0
        text = capsys.readouterr().out
        assert "2 parties" in text
        assert (out / "timeline.json").exists()

    def test_obs_timeline_exports_valid_json(self, tmp_path, capsys):
        import json

        from repro.obs.timeline import validate_trace_events
        from repro.runtime.trace import TraceRecorder

        trace = TraceRecorder()
        trace.record(0, "round-barrier", 0, queue_depth=0)
        trace.record(0, "halt", 0, output="1")
        trace.dump_dir(tmp_path / "traces")
        target = tmp_path / "timeline.json"
        assert main([
            "obs", "timeline", str(tmp_path / "traces"), str(target)
        ]) == 0
        document = json.loads(target.read_text())
        validate_trace_events(document["traceEvents"])

    def test_obs_usage_errors(self, capsys):
        assert main(["obs"]) == 2
        assert main(["obs", "bogus"]) == 2
        assert main(["obs", "timeline", "only-one-arg"]) == 2

    def test_obs_flows_renders_cells_and_views(self, tmp_path, capsys):
        from repro.net.metrics import CommunicationMetrics
        from repro.obs.flush import finish_artifacts, open_flow

        flow_out = tmp_path / "FLOW_unit.json"
        flow = open_flow(flow_out)
        metrics = CommunicationMetrics()
        metrics.attach_flow(flow)
        for recipient in (1, 2, 3):
            metrics.record_message(0, recipient, 80 * recipient)
        finish_artifacts(flow, flow_out, metrics=metrics)
        assert main(["obs", "flows", str(flow_out), "--k", "2"]) == 0
        text = capsys.readouterr().out
        assert "flow report unit" in text
        assert "0->3" in text and "0->2" in text and "0->1" not in text
        assert "bits by phase:" in text and "per-party" in text
        assert main(["obs", "flows", str(flow_out), "--by", "kind"]) == 0
        text = capsys.readouterr().out
        assert "bits by wire kind:" in text
        assert "bits by phase:" not in text and "0->3" not in text
