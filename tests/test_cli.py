"""Tests for the ``python -m repro`` command-line interface."""

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

    def test_runtime(self, capsys):
        assert main(["runtime", "16"]) == 0
        output = capsys.readouterr().out
        assert "transport=local" in output
        assert "matches-sync=True" in output
        assert "parity-with-hybrid=True" in output

    def test_runtime_tcp_with_trace_dir(self, tmp_path, capsys):
        target = tmp_path / "traces"
        assert main(["runtime", "16", "tcp", str(target)]) == 0
        output = capsys.readouterr().out
        assert "transport=tcp" in output
        assert "JSONL files" in output
        assert sorted(target.glob("party-*.jsonl"))

    def test_no_command_shows_usage(self, capsys):
        assert main([]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_unknown_command_shows_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_every_table_row_resolves_and_readme_quotes_the_usage(self):
        import importlib
        from pathlib import Path

        from repro.__main__ import COMMANDS, usage

        for module, function, _ in COMMANDS.values():
            assert callable(getattr(importlib.import_module(module), function))
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert usage() in readme.read_text(encoding="utf-8")

    def test_report_stdout(self, capsys):
        assert main(["report"]) == 0
        output = capsys.readouterr().out
        assert "Measured experiment report" in output
        assert "T1 — Table 1" in output

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["report", str(target)]) == 0
        assert target.exists()
        assert "E12" in target.read_text()


class TestObsCommand:
    def test_obs_report_fresh_run_verifies_invariant(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(["obs", "report", "16", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "snark-srds" in text and "owf-srds" in text
        assert "srds-aggregate" in text
        assert "VIOLATED" not in text and "MISMATCH" not in text
        assert sorted(p.name for p in out.glob("BENCH_*.json")) == [
            "BENCH_obs_report_owf_srds.json",
            "BENCH_obs_report_snark_srds.json",
        ]
        assert sorted(p.name for p in out.glob("timeline_*.json"))

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
                wall_times={"run": 0.25},
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
        assert main(["obs", "bogus"]) == 2
        assert main(["obs", "timeline", "only-one-arg"]) == 2
