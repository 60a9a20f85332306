"""Mesh fault injection: link death, slow trains, SIGKILL, budget.

Three layers of failure tolerance under test:

* the :class:`~repro.cluster.mesh.MeshRouter` itself — a killed TCP
  link redials, the handshake's watermark exchange resends retained
  trains, and send-seq dedup means a frame is *delivered once* no
  matter how many times the link tears (in-process, no subprocesses);
* the supervisor's per-worker liveness judgment — a worker slowly
  trickling a huge body past ``round_timeout`` is NOT declared dead
  (the regression for the bug where "slow relaying a big train" was
  conflated with "dead"), while a worker whose progress genuinely
  stalls still is (simulated clock, no process);
* whole-process faults on the mesh data plane (``cluster`` marker) —
  a worker SIGKILLed mid-round respawns, re-handshakes, resumes from the
  last committed barrier and still charges bit-identical ledgers (no
  double-charged bits across the replayed rounds), and an exhausted
  restart budget exits loudly naming the last failure and how the
  worker died.
"""

from __future__ import annotations

import socket
import threading
import time
from functools import lru_cache

import pytest

from repro.cluster.drivers import run_balanced_ba_cluster
from repro.cluster.job import ClusterJob
from repro.cluster.mesh import MeshRouter
from repro.cluster.supervisor import (
    ClusterConfig,
    ClusterSupervisor,
    _Worker,
    _WorkerDied,
)
from repro.cluster.wire import HEARTBEAT, Message
from repro.errors import ClusterError
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger
from repro.net.party import SilentParty
from repro.params import ProtocolParameters
from repro.protocols.phase_king import build_phase_king
from repro.runtime.drivers import run_balanced_ba_runtime
from repro.runtime.placements import mesh
from repro.runtime.replay import tallies_equal
from repro.runtime.trace import TraceRecorder
from repro.runtime.transport import Frame
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness

SEED = 2021


# -- router-level link faults (in-process, tier-1) ----------------------------


def _mesh_pair(chunk_bytes=16):
    """Two routers with an established link (1 dials 0, by convention)."""
    a = MeshRouter(0, chunk_bytes=chunk_bytes)
    b = MeshRouter(1, chunk_bytes=chunk_bytes)
    a.update_peers({1: b.address})
    b.update_peers({0: a.address})
    return a, b


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _dialers(router):
    """The router's live dial / redial threads."""
    prefixes = tuple(
        f"mesh-{verb}-{router.worker_id}-" for verb in ("dial", "redial")
    )
    return [t for t in threading.enumerate() if t.name.startswith(prefixes)]


def _exit_process_of(router):
    """What a worker's exit does to its router's sockets.  ``close()``
    alone cannot stand in for it here: a descriptor closed under this
    process's own blocked ``accept`` / ``recv`` stays open in the
    kernel until that call returns."""
    router._closed.set()
    links = [link.sock for link in router._links.values()]
    for sock in [router._listener, *links]:
        sock.shutdown(socket.SHUT_RDWR)
    router.close()


def _frames(round_index, tag):
    return [
        Frame(0, 9, tag, sent_round=round_index,
              deliver_round=round_index + 1, seq=seq)
        for seq in range(3)
    ]


class TestLinkFaults:
    def test_round_trip_over_live_link(self):
        a, b = _mesh_pair()
        try:
            sent = _frames(0, b"hello")
            a.send_train(1, 0, sent)
            assert b.wait_round(0, [0], timeout=5.0)
            assert b.collect_round(0, [0]) == (sent, False)
            a.send_train(1, 1, [], halted=True)
            assert b.wait_round(1, [0], timeout=5.0)
            assert b.collect_round(1, [0]) == ([], True)
        finally:
            a.close()
            b.close()

    def test_send_before_link_established_is_replayed(self):
        """Startup ordering: a train sent before the peer has even
        dialed in is retained and shipped by the first handshake."""
        a = MeshRouter(0)
        b = MeshRouter(1)
        try:
            sent = _frames(0, b"early")
            a.send_train(1, 0, sent, halted=True)  # no link: retained only
            a.update_peers({1: b.address})
            b.update_peers({0: a.address})
            assert b.wait_round(0, [0], timeout=5.0)
            assert b.collect_round(0, [0]) == (sent, True)
        finally:
            a.close()
            b.close()

    def test_link_kill_mid_train_redials_and_dedups(self):
        """Kill the live link, keep sending: the dialer redials, the
        handshake watermark resends retained trains, and send-seq dedup
        delivers every round exactly once."""
        a, b = _mesh_pair(chunk_bytes=8)  # multi-chunk trains
        try:
            first = _frames(0, b"round-zero")
            a.send_train(1, 0, first)
            assert b.wait_round(0, [0], timeout=5.0)
            assert b.collect_round(0, [0]) == (first, False)

            # Tear the link out from under the dialer's receiver.
            b._links[0].sock.close()

            # The sender pushes the next round into the torn link; some
            # chunks land in a dead TCP buffer, some fail outright.
            second = _frames(1, b"round-one")
            a.send_train(1, 1, second)
            # Redial + retained-train replay must deliver it exactly
            # once despite any duplicate resend racing the original.
            assert b.wait_round(1, [0], timeout=5.0)
            assert b.collect_round(1, [0]) == (second, False)

            # The next round flows over the healed link normally.
            third = _frames(2, b"round-two")
            a.send_train(1, 2, third)
            assert b.wait_round(2, [0], timeout=5.0)
            assert b.collect_round(2, [0]) == (third, False)
            assert a.progress() > 0 and b.progress() > 0
        finally:
            a.close()
            b.close()

    def test_repeated_link_kills_still_converge(self):
        a, b = _mesh_pair(chunk_bytes=8)
        try:
            for round_index in range(4):
                if round_index in (1, 3):
                    b._links[0].sock.close()
                sent = _frames(round_index, b"r%d" % round_index)
                a.send_train(1, round_index, sent)
                assert b.wait_round(round_index, [0], timeout=5.0)
                assert b.collect_round(round_index, [0]) == (sent, False)
        finally:
            a.close()
            b.close()

    def test_close_wakes_the_dial_pacer_and_no_dial_starts_after_it(
        self, monkeypatch
    ):
        """STOP quiesces the mesh: the peer that left first drops the
        link, the dialer redials into ECONNREFUSED and backs off — and
        ``close()`` must end that backoff, not sit it out."""
        monkeypatch.setattr(
            "repro.cluster.mesh._DIAL_DELAYS", (0.0, 30.0, 30.0)
        )
        a, b = _mesh_pair()
        try:
            assert _wait_for(lambda: 0 in b._links)
            _exit_process_of(a)  # worker 0 got its STOP first and is gone
            assert _wait_for(lambda: _dialers(b))  # refused; backing off
            b.close()
            assert _wait_for(lambda: not _dialers(b)), "slept through close()"
            late = MeshRouter(2)
            late.close()
            late.update_peers({0: a.address, 1: b.address})
            assert not _dialers(late)
        finally:
            a.close()
            b.close()

    def test_trim_discards_retained_rounds(self):
        a, b = _mesh_pair()
        try:
            a.send_train(1, 0, _frames(0, b"old"))
            a.send_train(1, 1, _frames(1, b"new"))
            assert b.wait_round(1, [0], timeout=5.0)
            a.trim(1)
            assert 0 not in a._retained.get(1, {0: None})
            assert 1 in a._retained[1]
        finally:
            a.close()
            b.close()


# -- the per-worker liveness judgment (unit, tier-1) -------------------------


class _ScriptedChannel:
    """A stand-in control channel: each poll delivers one list of
    events, then its recv deadline.  ``("partial", nbytes)`` is part of
    a huge body arriving (the poll ends there); ``("msg", message)``
    is one whole message."""

    def __init__(self):
        self.bytes_received = 0
        self.buffered = 0
        self._events = []

    def feed(self, events):
        self._events = list(events)

    def recv(self, timeout):
        assert timeout == 0
        if not self._events:
            raise TimeoutError("recv deadline")
        kind, value = self._events.pop(0)
        if kind == "partial":
            self.bytes_received += value
            self.buffered += value
            self._events = []
            raise TimeoutError("recv deadline")
        self.bytes_received += 64
        self.buffered = 0
        return value


def _poll_harness(timeline, *, round_timeout=0.25, heartbeat_timeout=5.0):
    """Poll one scripted worker at each ``(now, events)`` of a simulated
    clock; returns the worker handle."""
    supervisor = ClusterSupervisor(
        ClusterJob("poll", 4, [SilentParty(i) for i in range(4)]),
        ClusterConfig(
            num_workers=2,
            round_timeout=round_timeout,
            heartbeat_timeout=heartbeat_timeout,
        ),
    )
    channel = _ScriptedChannel()
    worker = _Worker(
        worker_id=0, shard=[0, 1], process=None, channel=channel,
        log_handle=None, heard=0.0, moved=0.0,
    )
    for now, events in timeline:
        channel.feed(events)
        supervisor._poll(worker, now)
    return worker


def _beat(progress):
    return ("msg", Message(HEARTBEAT, {"progress": progress}))


class TestSlowTrainIsNotDead:
    def test_trickling_body_outlives_round_timeout(self):
        """~0.8 s of slow body (byte growth across recv deadlines) far
        past ``round_timeout=0.25`` must NOT be declared dead — liveness
        is reset by demonstrable byte progress."""
        timeline = [(0.1 * k, [("partial", 4096)]) for k in range(1, 9)]
        worker = _poll_harness(timeline, round_timeout=0.25)
        assert worker.moved == worker.heard == timeline[-1][0]

    def test_advancing_progress_heartbeats_keep_worker_alive(self):
        timeline = [(0.1 * k, [_beat(k)]) for k in range(1, 9)]
        worker = _poll_harness(timeline, round_timeout=0.25)
        assert worker.last_progress == 8

    def test_stalled_progress_still_dies(self):
        """Heartbeats whose progress counter never advances exhaust the
        round deadline: a livelocked worker is still a dead worker."""
        timeline = [(0.1 * k, [_beat(5)]) for k in range(1, 30)]
        with pytest.raises(_WorkerDied, match="no progress"):
            _poll_harness(timeline, round_timeout=0.25)

    def test_total_silence_still_dies(self):
        with pytest.raises(_WorkerDied, match="no heartbeat"):
            _poll_harness([(5.5, [])], round_timeout=60.0)


# -- a hostile charge digest (unit, tier-1) ----------------------------------


class TestDigestRowsAreValidated:
    """A worker's digest crosses a process boundary: every row is
    checked before a charge lands, and each bad shape is a
    ``ClusterError`` — never a silently mis-charged ledger."""

    validate = staticmethod(ClusterSupervisor._validate_digest_rows)

    def test_good_rows_become_chargeable_frames(self):
        (frame,) = self.validate([(0, 3, 17, "vote")], 4)
        assert (frame.sender, frame.recipient, frame.bits(), frame.phase) == (
            0, 3, 17, "vote"
        )
        assert self.validate((), 4) == []

    @pytest.mark.parametrize(
        "rows, match",
        [
            ({"not": "rows"}, "not a row sequence"),
            (b"\x00\x01", "not a row sequence"),
            ([(0, 1, 8)], "malformed"),
            ([(0, 1, 8, "p", "extra")], "malformed"),
            ([17], "malformed"),
            ([(True, 1, 8, "p")], "malformed"),
            ([(0, False, 8, "p")], "malformed"),
            ([(0, 1, True, "p")], "malformed"),
            ([(0, 1, -1, "p")], "negative charge"),
            ([(0, 1, 8, None)], "malformed"),
            ([(0, 1, 8, b"p")], "malformed"),
            ([(0, 4, 8, "p")], "unknown party 4"),
            ([(0, -1, 8, "p")], "unknown party -1"),
        ],
    )
    def test_bad_rows_are_refused(self, rows, match):
        with pytest.raises(ClusterError, match=match):
            self.validate(rows, 4)


# -- whole-process mesh faults (cluster marker) -------------------------------


@lru_cache(maxsize=None)
def _setup(n):
    params = ProtocolParameters()
    inputs = {i: i % 2 for i in range(n)}
    plan = random_corruption(
        n, params.max_corruptions(n), Randomness(SEED).fork("corruption")
    )
    return params, inputs, plan


@lru_cache(maxsize=None)
def _reference(n):
    """(ba_result, transport-charged ledger) for the crash-free run."""
    params, inputs, plan = _setup(n)
    ledger = CommunicationMetrics()
    result, _ = run_balanced_ba_runtime(
        inputs, plan, scheme_by_name("snark"), params,
        Randomness(SEED).fork("protocol"), metrics=ledger,
    )
    return result, ledger


def _mesh_run(n, *, kill_plan=None, max_restarts=3, flow=None,
              run_dir=None, resume=False):
    params, inputs, plan = _setup(n)
    config = ClusterConfig(
        num_workers=2,
        kill_plan=dict(kill_plan or {}),
        max_restarts=max_restarts,
        flow=flow,
    )
    return run_balanced_ba_cluster(
        inputs, plan, scheme_by_name("snark"), params,
        Randomness(SEED).fork("protocol"),
        num_workers=2, checkpoint_interval=2,
        config=config, run_dir=run_dir, resume=resume,
    )


@pytest.mark.cluster
class TestMeshProcessFaults:
    def test_sigkill_mid_round_resumes_without_double_charge(self):
        """SIGKILL a worker mid-round: it respawns, re-handshakes into
        the mesh, resumes from its checkpoint — and the replayed rounds
        charge nothing twice (ledger and flow stay bit-identical to the
        crash-free reference)."""
        flow = FlowLedger()
        reference, ref_ledger = _reference(16)
        result, cluster = _mesh_run(16, kill_plan={3: 1}, flow=flow)
        assert cluster.restarts == 1
        assert result.agreement
        assert result.outputs == reference.outputs
        assert (
            result.metrics.max_bits_per_party
            == reference.metrics.max_bits_per_party
        )
        assert tallies_equal(cluster.metrics, ref_ledger, range(16))
        assert flow.verify_against(cluster.metrics) == []
        flow.close()

    def test_two_sigkills_different_workers(self):
        result, cluster = _mesh_run(16, kill_plan={2: 0, 5: 1})
        assert cluster.restarts == 2
        assert result.outputs == _reference(16)[0].outputs

    def test_a_dead_worker_names_how_it_died(self):
        """The budget error says *how* the worker went, not just that
        its channel closed: here the signal the kill plan sent."""
        parties, honest, max_rounds = build_phase_king(
            {i: i % 2 for i in range(16)}, (3,)
        )
        row = mesh(config=ClusterConfig(
            num_workers=2, kill_plan={2: 1}, max_restarts=0,
        ))
        with pytest.raises(
            ClusterError,
            match=r"restart budget of 0 exhausted \(last failure: worker 1 "
                  r"killed by SIGKILL: control channel closed",
        ):
            row.run(parties, honest, max_rounds)

    def test_restart_budget_exhaustion_exits_loudly(self, tmp_path):
        with pytest.raises(
            ClusterError, match="restart budget.*last failure"
        ):
            _mesh_run(
                16, kill_plan={3: 0}, max_restarts=0, run_dir=tmp_path
            )
        # ... and the wreck is resumable from its durable barrier.
        result, _cluster = _mesh_run(16, run_dir=tmp_path, resume=True)
        assert result.outputs == _reference(16)[0].outputs

    def test_death_before_the_first_barrier_restarts_from_the_job_blob(self):
        """No durable barrier ever happens (the interval outlasts the
        run), so the killed worker's only checkpoint is round 0's — the
        JOB blob — and recovery is the same restore-then-replay path."""
        inputs = {i: i % 2 for i in range(16)}

        def run(kill_plan):
            trace = TraceRecorder()
            parties, honest, max_rounds = build_phase_king(inputs, (3,))
            assert max_rounds < 1_000
            result = mesh(
                checkpoint_interval=1_000,
                config=ClusterConfig(num_workers=2, kill_plan=kill_plan),
            ).run(parties, honest, max_rounds, trace=trace)
            return result, trace.fingerprint()

        clean, clean_fingerprint = run({})
        killed, killed_fingerprint = run({1: 1})
        assert (clean.restarts, killed.restarts) == (0, 1)
        assert not list(killed.run_dir.glob("shard-*.ckpt"))
        assert killed.outputs == clean.outputs
        assert tallies_equal(killed.metrics, clean.metrics, range(16))
        assert killed_fingerprint == clean_fingerprint
