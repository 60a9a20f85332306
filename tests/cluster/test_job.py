"""Job descriptions, the round-0 shard checkpoint, and shard partitioning."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.checkpoint import (
    checkpoint_path,
    decode_checkpoint,
    save_checkpoint,
)
from repro.cluster.job import ClusterJob, split_shards
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.cluster.worker import _build_engine
from repro.errors import ClusterError
from repro.protocols.phase_king import build_phase_king
from repro.runtime.trace import TraceRecorder


class TestSplitShards:
    @given(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=32),
    )
    def test_partition_properties(self, n, k):
        if k > n:
            with pytest.raises(ClusterError):
                split_shards(n, k)
            return
        shards = split_shards(n, k)
        assert len(shards) == k
        flat = [p for shard in shards for p in shard]
        assert flat == list(range(n))  # contiguous, disjoint, complete
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_zero_workers_rejected(self):
        with pytest.raises(ClusterError):
            split_shards(8, 0)


def _phase_king_job(n=8, byzantine=(1,), **kwargs):
    parties, honest, max_rounds = build_phase_king(
        {i: i % 2 for i in range(n)}, byzantine
    )
    return ClusterJob(
        name="phase-king", n=n, parties=parties, until=tuple(honest),
        max_rounds=max_rounds, **kwargs,
    )


class TestClusterJob:
    def test_a_job_is_built_from_a_builders_return_value(self):
        job = _phase_king_job()
        assert sorted(p.party_id for p in job.parties) == list(range(8))
        assert job.target_ids() == [i for i in range(8) if i != 1]

    def test_builder_reference_is_not_a_field(self):
        with pytest.raises(TypeError):
            ClusterJob(
                name="x", n=4, builder="repro.cluster.job:phase_king_parties"
            )

    def test_party_ids_validated(self):
        parties, _, _ = build_phase_king({i: 0 for i in range(4)})
        with pytest.raises(ClusterError, match="range"):
            ClusterJob(name="bad", n=5, parties=parties)

    def test_unknown_target_rejected(self):
        parties, _, _ = build_phase_king({i: 0 for i in range(4)})
        with pytest.raises(ClusterError, match="unknown target"):
            ClusterJob(name="bad", n=4, parties=parties, until=(7,))


class TestJobBlob:
    """What worker ``w`` is shipped: its shard's round-0 checkpoint."""

    def test_blob_is_the_shards_round_zero_checkpoint(self, tmp_path):
        job = _phase_king_job()
        supervisor = ClusterSupervisor(job, ClusterConfig(num_workers=3))
        for worker_id, shard in enumerate(supervisor.shards):
            blob = supervisor._job_blob(worker_id, 0)
            checkpoint = decode_checkpoint(blob)
            assert checkpoint.next_round == 0
            assert sorted(checkpoint.by_party()) == shard
            assert checkpoint.staged == []
            assert all(
                record.send_seq == 0 and record.trace_seq == 0
                for record in checkpoint.parties
            )
            # Byte-identical to the file a worker would have written
            # had round 0 been a durable barrier.
            save_checkpoint(tmp_path, "shard", job.shard_checkpoint(shard))
            assert checkpoint_path(tmp_path, "shard").read_bytes() == blob

    def test_worker_restores_its_shard_from_the_blob(self, tmp_path):
        supervisor = ClusterSupervisor(
            _phase_king_job(), ClusterConfig(num_workers=2)
        )
        shard = supervisor.shards[1]
        engine = _build_engine(
            supervisor._job_blob(1, 0), shard, 0, tmp_path, "shard-1",
            TraceRecorder(),
        )
        assert sorted(engine.party_ids) == shard
        assert engine.core.held() == []

    def test_later_barriers_ship_no_parties(self):
        supervisor = ClusterSupervisor(
            _phase_king_job(), ClusterConfig(num_workers=2)
        )
        assert supervisor._job_blob(0, 4) == b""

    def test_blob_for_the_wrong_shard_is_refused(self, tmp_path):
        supervisor = ClusterSupervisor(
            _phase_king_job(), ClusterConfig(num_workers=2)
        )
        with pytest.raises(ClusterError, match="holds parties"):
            _build_engine(
                supervisor._job_blob(0, 0), supervisor.shards[1], 0,
                tmp_path, "shard-1", TraceRecorder(),
            )

    def test_the_n64_replay_jobs_whole_fleet_blob_stays_under_a_mebibyte(self):
        """Why the control channel does not chunk: the largest body it
        carries — one worker handed the whole n=64 snark-hash fleet — is
        256 times under ``wire._MAX_MESSAGE`` (docs/cluster.md has the
        measured DONE sizes of the same job)."""
        from repro.cluster.job import replay_job
        from tests.placements import recorded_pi_ba

        job = replay_job(recorded_pi_ba(64, "snark-hash").script(), 64)
        supervisor = ClusterSupervisor(job, ClusterConfig(num_workers=1))
        assert 0 < len(supervisor._job_blob(0, 0)) < 1 << 20
