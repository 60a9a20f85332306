"""ShardEngine: the lockstep-round contract on a single engine, smoke
parity with the runtime synchronizer, and the save → load → resume
property: a run interrupted at a checkpoint barrier and continued from
``snapshot → save_checkpoint → load_checkpoint → restore`` produces
byte-identical outputs, metrics tallies, round count and trace
fingerprint versus an uninterrupted run."""

from __future__ import annotations

import pickle
from functools import lru_cache

import pytest

from repro.cluster.checkpoint import load_checkpoint, save_checkpoint
from repro.cluster.engine import ShardEngine
from repro.errors import ClusterError
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.obs.jsonl import load_jsonl
from repro.params import ProtocolParameters
from repro.protocols.phase_king import build_phase_king
from repro.runtime.replay import (
    apply_func_ops,
    build_replay_parties,
    tallies_equal,
)
from repro.runtime.synchronizer import run_parties
from repro.runtime.trace import TraceRecorder
from repro.utils.randomness import Randomness
from tests.net import test_simulator as contract
from tests.placements import SHARD_ENGINE, drive_shard

N = 16


def _phase_king():
    """A fresh ``(parties, honest_ids, max_rounds)`` of the n=16 cell."""
    return build_phase_king({i: i % 2 for i in range(N)}, (2, 9))


@lru_cache(maxsize=None)
def _pi_ba_script(scheme_name: str):
    from repro.cluster.drivers import record_balanced_ba_script
    from repro.srds import scheme_by_name

    params = ProtocolParameters()
    inputs = {i: i % 2 for i in range(N)}
    plan = random_corruption(
        N, params.max_corruptions(N), Randomness(11).fork("corruption")
    )
    _, script = record_balanced_ba_script(
        inputs, plan, scheme_by_name(scheme_name), params,
        Randomness(11).fork("protocol"),
    )
    return script


def _reference(parties, until, max_rounds):
    metrics = CommunicationMetrics()
    trace = TraceRecorder()
    result = run_parties(
        parties, metrics=metrics, trace=trace,
        until=until, max_rounds=max_rounds,
    )
    return result, metrics, trace


class TestEngineParity:
    def test_phase_king_matches_run_parties(self):
        ref, ref_metrics, ref_trace = _reference(*_phase_king())
        metrics = CommunicationMetrics()
        trace = TraceRecorder()
        result = SHARD_ENGINE.run(
            *_phase_king(), metrics=metrics, trace=trace
        )
        assert result.outputs == ref.outputs
        assert result.rounds == ref.rounds
        assert metrics.max_bits_per_party == ref_metrics.max_bits_per_party
        assert tallies_equal(metrics, ref_metrics, range(N))
        assert trace.fingerprint() == ref_trace.fingerprint()

    @pytest.mark.parametrize("scheme_name", ["snark", "owf"])
    def test_pi_ba_replay_matches_run_parties(self, scheme_name):
        script = _pi_ba_script(scheme_name)
        max_rounds = script.num_rounds + 2
        ref, ref_metrics, ref_trace = _reference(
            build_replay_parties(script, N), None, max_rounds
        )
        apply_func_ops(script, ref_metrics)
        metrics = CommunicationMetrics()
        trace = TraceRecorder()
        result = SHARD_ENGINE.run(
            build_replay_parties(script, N),
            metrics=metrics, trace=trace, max_rounds=max_rounds,
        )
        apply_func_ops(script, metrics)
        assert result.outputs == ref.outputs
        assert metrics.max_bits_per_party == ref_metrics.max_bits_per_party
        assert tallies_equal(metrics, ref_metrics, range(N))
        assert trace.fingerprint() == ref_trace.fingerprint()

    def test_round_mismatch_rejected(self):
        engine = ShardEngine(_phase_king()[0])
        with pytest.raises(ClusterError, match="round"):
            engine.step_round(5, [])

    def test_snapshot_restore_preserves_seq_counters(self):
        engine = ShardEngine(_phase_king()[0])
        out0 = engine.step_round(0, [])
        out1 = engine.step_round(1, out0)
        restored = ShardEngine.restore(engine.snapshot())
        assert restored.next_round == engine.next_round
        assert restored.party_ids == engine.party_ids
        # Sequence counters continue, keeping canonical inbox order.
        a = engine.step_round(2, out1)
        b = restored.step_round(2, out1)
        assert [
            (f.sender, f.recipient, f.seq, f.payload) for f in a
        ] == [(f.sender, f.recipient, f.seq, f.payload) for f in b]


class TestShardEngineSemantics(
    contract.TestDelivery,
    contract.TestAuthentication,
    contract.TestTermination,
    contract.TestNoPolicy,
    contract.TestReplayAttribution,
):
    """The lockstep-round contract (tests/net/test_simulator.py) on one
    engine holding every party; budgets are not a ShardEngine option."""

    placement = SHARD_ENGINE


class TestSaveLoadResume:
    """Interrupt at a checkpoint barrier, resume, compare byte-for-byte."""

    def _assert_resume_parity(
        self, build, until, max_rounds, interrupt_after, tmp_path
    ):
        ref, ref_metrics, ref_trace = _reference(
            build(), until, max_rounds
        )

        def checkpoint_every_other_round(engine, in_flight):
            if engine.next_round % 2:
                return
            save_checkpoint(
                tmp_path, "shard-0", engine.snapshot(staged=in_flight)
            )
            engine.trace.dump_dir(tmp_path / "trace")
            # The ledger crosses a restart the way the supervisor carries
            # its own: pickled whole beside the shard checkpoints.
            (tmp_path / "metrics.pkl").write_bytes(pickle.dumps(first_metrics))

        first_metrics = CommunicationMetrics()
        with pytest.raises(ClusterError, match="did not terminate"):
            drive_shard(
                ShardEngine(build(), trace=TraceRecorder()),
                first_metrics,
                until=until,
                max_rounds=interrupt_after,
                on_barrier=checkpoint_every_other_round,
            )

        # A fresh process: nothing survives but the files.
        checkpoint = load_checkpoint(tmp_path, "shard-0")
        trace = TraceRecorder()
        for path in sorted((tmp_path / "trace").glob("party-*.jsonl")):
            trace.preload(int(path.stem.split("-", 1)[1]), load_jsonl(path))
        metrics = pickle.loads((tmp_path / "metrics.pkl").read_bytes())
        result = drive_shard(
            ShardEngine.restore(checkpoint, trace=trace),
            metrics,
            pending=checkpoint.staged,
            until=until,
            max_rounds=max_rounds,
        )
        assert 0 < checkpoint.next_round <= interrupt_after
        assert result.outputs == ref.outputs
        assert result.rounds == ref.rounds
        assert metrics.max_bits_per_party == ref_metrics.max_bits_per_party
        assert tallies_equal(metrics, ref_metrics, range(N))
        assert trace.fingerprint() == ref_trace.fingerprint()
        assert (
            metrics.snapshot().rounds == ref_metrics.snapshot().rounds
        )

    def test_phase_king_resume_is_byte_identical(self, tmp_path):
        _, honest, max_rounds = _phase_king()
        self._assert_resume_parity(
            lambda: _phase_king()[0],
            honest, max_rounds, interrupt_after=5, tmp_path=tmp_path,
        )

    @pytest.mark.parametrize("scheme_name", ["snark", "owf"])
    def test_pi_ba_resume_is_byte_identical(self, scheme_name, tmp_path):
        script = _pi_ba_script(scheme_name)
        self._assert_resume_parity(
            lambda: build_replay_parties(script, N),
            None, script.num_rounds + 2,
            interrupt_after=script.num_rounds // 2, tmp_path=tmp_path,
        )

    def test_resume_without_checkpoint_raises(self, tmp_path):
        # The one path in src/: a worker pinned to a barrier whose
        # checkpoint file is missing dies loudly, it does not start over.
        from repro.cluster.worker import _build_engine

        with pytest.raises(ClusterError, match="checkpoint"):
            _build_engine(
                b"", list(range(N)), 2, tmp_path, "shard-0", TraceRecorder(),
            )
