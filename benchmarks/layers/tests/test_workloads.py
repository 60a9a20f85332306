"""Smoke sizes of every workload, failure accounting, determinism."""

import time

import pytest

from benchmarks.layers import runner, spec
from benchmarks.layers import workloads as wl
from benchmarks.layers.calib import Host
from benchmarks.layers.trace import NullTracer

SEED = 7


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


@pytest.mark.parametrize("name", list(spec.WORKLOAD_WHY))
def test_smoke_run_passes_its_output_checks(name):
    entry = runner.run_workload(name, SEED, 30.0, "0", smoke=True)
    assert entry["failed"] == 0 and entry["failed_share"] == 0.0
    assert entry["attempted"] == 3 * wl.WORKLOADS[name].ops_per_step
    metrics = entry["end_to_end"]
    assert list(metrics) == [row[0] for row in spec.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(entry["setup_samples"]) == 2  # own + one child
    line = runner.result_line(entry, "0")
    assert line["correct"] and line["attempted"] == entry["attempted"]


def test_traced_smoke_run_reports_every_per_layer_metric():
    entry = runner.run_workload("piba-snarkhash-n64", SEED, 30.0, "1", smoke=True)
    expected = {row[0]: row[1] for row in spec.per_layer_spec()}
    reported = {name: m["unit"] for name, m in entry["per_layer"].items()}
    assert reported == expected
    assert entry["trace_failures"] == []
    assert entry["per_layer"]["obs.attributed_share"]["value"] >= 0.95
    assert entry["per_layer"]["cluster.restarts"]["value"] == 0
    assert sum(entry["layer_share"].values()) == pytest.approx(1.0)
    assert {s["layer"] for s in entry["spans"]} >= {"protocols", "srds", "aetree"}


def test_same_seed_same_inputs_and_bits_other_seed_differs(workdir):
    def fingerprint(seed):
        workload = wl.PiBaSnarkHash(seed, workdir, smoke=True)
        host = Host()
        workload.setup(host)
        loop = wl.LoopResult()
        for k in range(2):
            wl.run_step(workload, k, host, NullTracer(), loop, time.monotonic() + 60)
        assert not loop.failures
        return [workload.op_inputs(k) for k in range(4)], loop.max_bits

    assert fingerprint(SEED) == fingerprint(SEED)
    assert fingerprint(SEED)[0] != fingerprint(SEED + 1)[0]
    for cls in (wl.ExecSweep, wl.GatewayMix):
        assert cls(SEED, workdir, True).op_inputs(4) == cls(SEED, workdir, True).op_inputs(4)
        assert cls(SEED, workdir, True).op_inputs(4) != cls(SEED + 1, workdir, True).op_inputs(4)


def test_corrupted_gateway_reply_is_a_failed_op(workdir):
    mix = wl.GatewayMix(SEED, workdir, smoke=True)
    reference = {"value": 1, "per_party_bits": {"0": 10, "1": 12}}
    mix.references = [reference, reference]
    good = {
        "ok": True, "state": "done",
        "result": dict(reference, agreement=True, validity=True, within_budget=True),
    }
    assert mix.check_reply(0, 0, good) is None
    tampered = {**good, "result": {**good["result"], "per_party_bits": {"0": 10, "1": 13}}}
    assert "per_party_bits" in mix.check_reply(0, 0, tampered)
    assert "non-ok" in mix.check_reply(0, 0, {"ok": False, "code": "busy"})
    assert mix.check_reply(0, 0, dict(good, result=dict(good["result"], validity=False)))
    # A cold batch has no reference to match, but must still be within budget (owf).
    cold = dict(good, result=dict(tampered["result"], within_budget=False))
    assert "budget" in mix.check_reply(4, 0, cold)
    assert mix.check_reply(4, 0, tampered) is None


def test_corrupted_tally_fails_the_sweep_op(workdir):
    class Tampered(wl.ExecSweep):
        def leg_runtime_local(self, tracer):
            ledger, outputs = super().leg_runtime_local(tracer)
            ledger.record_message(0, 1, 8)  # one byte the script never sent
            return ledger, outputs

    sweep = Tampered(SEED, workdir, smoke=True)
    host = Host()
    sweep.setup(host)
    sweep.choose_inputs()
    loop = wl.LoopResult()
    wl.run_step(sweep, 0, host, NullTracer(), loop, time.monotonic() + 60)
    assert loop.failed == 1 and loop.attempted == 1
    assert "runtime-local tallies differ" in loop.failures[0]
    assert loop.latencies == []  # a failed op contributes no latency sample


def test_exceptions_and_timeouts_count_as_failed_ops(workdir, monkeypatch):
    class Sick(wl.Workload):
        name = "gateway-mix"
        ops_per_step = 2

        def step(self, k, host, tracer):
            if k == 0:
                raise ValueError("boom")
            time.sleep(5)

    monkeypatch.setattr(wl, "OP_TIMEOUT_S", 0.05)
    loop = wl.LoopResult()
    sick = Sick(SEED, workdir)
    started = time.monotonic()
    wl.run_step(sick, 0, Host(), NullTracer(), loop, time.monotonic() + 60)
    wl.run_step(sick, 1, Host(), NullTracer(), loop, time.monotonic() + 60)
    wl.run_step(sick, 2, Host(), NullTracer(), loop, time.monotonic() - 1)
    assert time.monotonic() - started < 2
    assert loop.attempted == 6 and loop.failed == 6
    assert "boom" in loop.failures[0]
    assert "exceeded" in loop.failures[2]
    assert "deadline" in loop.failures[4]
