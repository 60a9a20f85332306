"""Mesh fault injection: broken links, slow trains, SIGKILL, budget.

Three layers of failure tolerance under test:

* the :class:`~repro.cluster.mesh.MeshRouter` itself — routers joined
  by ``socket.socketpair()`` exactly as the supervisor joins workers,
  in-process: trains arrive whole and in order, a malformed or
  out-of-order chunk is a ``SerializationError`` the waiter sees, and a
  peer's EOF ends only its link (no subprocesses);
* the supervisor's per-worker liveness judgment — a worker slowly
  trickling a huge body past ``round_timeout`` is NOT declared dead
  (the regression for the bug where "slow relaying a big train" was
  conflated with "dead"), while a worker whose progress genuinely
  stalls still is (simulated clock, no process);
* whole-process faults on the mesh data plane (``cluster`` marker) —
  a worker SIGKILLed mid-round makes the supervisor relaunch the whole
  fleet from the last committed barrier, one restart counted, and the
  run still charges bit-identical ledgers (no double-charged bits
  across the replayed rounds); an exhausted restart budget exits
  loudly naming the last failure and how the worker died.
"""

from __future__ import annotations

import socket
import sys
import threading
from functools import lru_cache

import pytest

from repro.cluster.job import ClusterJob
from repro.cluster.mesh import MeshRouter
from repro.cluster.meshwire import split_train
from repro.cluster.supervisor import (
    ClusterConfig,
    ClusterSupervisor,
    _Worker,
    _WorkerDied,
)
from repro.cluster.wire import DONE, HEARTBEAT, Message
from repro.errors import ClusterError, SerializationError
from repro.net.adversary import random_corruption
from repro.net.fork import fork_child
from repro.net.metrics import CommunicationMetrics
from repro.net.party import SilentParty
from repro.net.trains import _LENGTH, encode_train_body
from repro.obs.flow import FlowLedger
from repro.params import ProtocolParameters
from repro.protocols.phase_king import build_phase_king
from repro.runtime.placements import LOCAL, mesh
from repro.runtime.replay import replay_balanced_ba, tallies_equal
from repro.runtime.trace import TraceRecorder
from repro.runtime.transport import Frame
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness

SEED = 2021


# -- router-level link faults (in-process, tier-1) ----------------------------


def _mesh_pair(chunk_bytes=16):
    """Routers 0 and 1 on the two ends of one socketpair."""
    end_0, end_1 = socket.socketpair()
    return (
        MeshRouter(0, {1: end_0}, chunk_bytes=chunk_bytes),
        MeshRouter(1, {0: end_1}, chunk_bytes=chunk_bytes),
    )


def _forged_link():
    """Router 1 and the raw socket of a peer 0 that writes by hand."""
    raw, end_1 = socket.socketpair()
    return raw, MeshRouter(1, {0: end_1})


#: An empty train's body: the round barrier a peer owes every round.
EMPTY = encode_train_body([])


def _send_records(sock, records):
    for record in records:
        sock.sendall(_LENGTH.pack(len(record)) + record)


def _frames(round_index, tag):
    return [
        Frame(0, 9, tag, sent_round=round_index,
              deliver_round=round_index + 1, seq=seq)
        for seq in range(3)
    ]


class TestLinkFaults:
    def test_round_trip(self):
        a, b = _mesh_pair()
        try:
            sent = _frames(0, b"hello")
            a.send_train(1, 0, sent)
            b.send_train(0, 0, [], halted=True)
            assert b.wait_round(0, [0], timeout=5.0)
            assert b.collect_round(0, [0]) == (sent, False)
            assert a.wait_round(0, [1], timeout=5.0)
            assert a.collect_round(0, [1]) == ([], True)
            assert a.progress() > 0 and b.progress() > 0
        finally:
            a.close()
            b.close()

    def test_multi_chunk_trains_reassemble_in_order(self):
        """Trains many chunks long (8-byte chunks), several rounds sent
        before the receiver collects any: each round comes out whole."""
        a, b = _mesh_pair(chunk_bytes=8)
        try:
            sent = {r: _frames(r, b"round-%d" % r) for r in range(4)}
            for round_index, frames in sent.items():
                a.send_train(1, round_index, frames, halted=round_index == 3)
            for round_index, frames in sent.items():
                assert b.wait_round(round_index, [0], timeout=5.0)
                assert b.collect_round(round_index, [0]) == (
                    frames, round_index == 3
                )
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "case, match",
        [
            ("out-of-order chunk", "chunk 1 arrived, chunk 0 is next"),
            ("foreign round", "owes round 0"),
            ("repeated round", "owes round 1"),
        ],
    )
    def test_a_broken_link_is_refused(self, case, match):
        """The waiter, not the receiver thread, raises: the worker's main
        loop dies nonzero on it."""
        raw, b = _forged_link()
        try:
            if case == "out-of-order chunk":
                _send_records(raw, split_train(0, 1, 0, EMPTY, chunk_bytes=4)[1:])
            elif case == "foreign round":
                _send_records(raw, split_train(0, 1, 7, EMPTY))
            else:
                _send_records(raw, split_train(0, 1, 0, EMPTY))
                assert b.wait_round(0, [0], timeout=5.0)
                b.collect_round(0, [0])
                _send_records(raw, split_train(0, 1, 0, EMPTY))
            with pytest.raises(SerializationError, match=match):
                b.wait_round(1, [0], timeout=5.0)
        finally:
            raw.close()
            b.close()

    def test_a_link_failure_is_raised_on_every_later_wait(self):
        """Once one link broke, a round the other links did complete
        does not hide it: every later wait raises the same error."""
        raw, end_10 = socket.socketpair()
        end_12, end_21 = socket.socketpair()
        router = MeshRouter(1, {0: end_10, 2: end_12})
        peer_2 = MeshRouter(2, {1: end_21})
        try:
            _send_records(raw, split_train(0, 1, 7, EMPTY))
            with pytest.raises(SerializationError, match="owes round 0") as first:
                router.wait_round(0, [0, 2], timeout=5.0)
            peer_2.send_train(1, 0, [])
            for _ in range(2):
                with pytest.raises(SerializationError) as again:
                    router.wait_round(0, [2], timeout=5.0)
                assert again.value is first.value
        finally:
            raw.close()
            router.close()
            peer_2.close()

    def test_a_train_for_another_worker_is_refused(self):
        raw, b = _forged_link()
        try:
            _send_records(raw, split_train(0, 2, 0, EMPTY))
            with pytest.raises(SerializationError, match="at worker 1"):
                b.wait_round(0, [0], timeout=5.0)
        finally:
            raw.close()
            b.close()

    def test_peer_eof_ends_one_link_and_never_hangs(self):
        """Worker 1's peers 0 and 2; 0 delivers round 0 and its process
        goes.  Round 0 still completes, and worker 1 can wait on round 1
        with a deadline — which expires — and keep sending to 2."""
        end_10, end_01 = socket.socketpair()
        end_12, end_21 = socket.socketpair()
        router = MeshRouter(1, {0: end_10, 2: end_12})
        peer_2 = MeshRouter(2, {1: end_21})
        try:
            _send_records(end_01, split_train(0, 1, 0, EMPTY))
            end_01.close()  # what worker 0's exit does to its end
            peer_2.send_train(1, 0, [])
            assert router.wait_round(0, [0, 2], timeout=5.0)
            assert router.collect_round(0, [0, 2]) == ([], False)
            peer_2.send_train(1, 1, [])
            assert not router.wait_round(1, [0, 2], timeout=0.2)
            for round_index in (0, 1):
                router.send_train(0, round_index, [])  # closed end: dropped
                router.send_train(2, round_index, _frames(round_index, b"up"))
                assert peer_2.wait_round(round_index, [1], timeout=5.0)
                assert peer_2.collect_round(round_index, [1]) == (
                    _frames(round_index, b"up"), False
                )
        finally:
            router.close()
            peer_2.close()

    def test_three_links_at_once_lose_no_train(self):
        """Three receiver threads file trains into one inbox while the
        stepping thread collects, at a switch interval short enough to
        interleave every step: each round comes out whole, from every
        peer, exactly once."""
        rounds, peers = 40, (1, 2, 3)
        links = {}
        senders = []
        for peer in peers:
            mine, theirs = socket.socketpair()
            links[peer] = mine
            senders.append(MeshRouter(peer, {0: theirs}, chunk_bytes=8))
        router = MeshRouter(0, links)

        def ship(sender):
            for round_index in range(rounds):
                sender.send_train(
                    0, round_index, _frames(round_index, b"%d" % sender.worker_id)
                )

        threads = [threading.Thread(target=ship, args=(s,)) for s in senders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for round_index in range(rounds):
                assert router.wait_round(round_index, peers, timeout=10.0)
                frames, halted = router.collect_round(round_index, peers)
                assert not halted
                assert frames == [
                    frame for peer in peers
                    for frame in _frames(round_index, b"%d" % peer)
                ]
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            assert router._inbox == {}
        finally:
            sys.setswitchinterval(interval)
            router.close()
            for sender in senders:
                sender.close()

    def test_close_is_idempotent_and_ends_the_peer_link(self):
        a, b = _mesh_pair()
        a.close()
        a.close()
        b.send_train(0, 0, [])  # a's end is gone: dropped, not raised
        assert not b.wait_round(0, [0], timeout=0.1)
        b.close()
        b.close()


# -- the per-worker liveness judgment (unit, tier-1) -------------------------


class _ScriptedChannel:
    """A stand-in control channel: each poll delivers one list of
    events, then its recv deadline.  ``("partial", nbytes)`` is part of
    a huge body arriving (the poll ends there); ``("msg", message)``
    is one whole message; ``("error", exc)`` is a recv that raises."""

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
        if kind == "error":
            raise value
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
        worker_id=0, process=None, channel=channel,
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


class TestABrokenChannelIsADeadWorker:
    def test_a_corrupt_control_frame_kills_the_worker_at_once(self):
        """A channel that fails to parse is a dead worker now, not "no
        more messages" until the heartbeat deadline runs out minutes
        later — and the death names what broke."""
        broken = ClusterError("corrupt control message: truncated header")
        with pytest.raises(_WorkerDied, match="corrupt control message"):
            _poll_harness([(0.1, [("error", broken)])], heartbeat_timeout=60)


# -- what a relaunch leaves the supervisor (unit, tier-1) ---------------------


def _idle_supervisor(kill_plan=None):
    return ClusterSupervisor(
        ClusterJob("relaunch", 4, [SilentParty(i) for i in range(4)]),
        ClusterConfig(num_workers=2, kill_plan=dict(kill_plan or {})),
    )


class TestRelaunchBookkeeping:
    def test_a_done_below_the_charged_round_is_dropped(self):
        """A relaunched fleet replays from its barrier: the dones of
        rounds already charged change nothing, the next one charges."""
        supervisor = _idle_supervisor()
        for round_index in (0, 1):
            for worker_id in (0, 1):
                supervisor._on_done(
                    worker_id, Message(DONE, {"round": round_index}), 0.0
                )
        assert supervisor.round_index == 2
        assert supervisor.metrics.rounds_completed == 2
        for worker_id in (0, 1):  # the relaunch replays rounds 0 and 1
            for round_index in (0, 1):
                supervisor._on_done(
                    worker_id, Message(DONE, {"round": round_index}), 0.0
                )
        assert supervisor._pending == {}
        assert supervisor.metrics.rounds_completed == 2
        supervisor._on_done(0, Message(DONE, {"round": 2}), 0.0)
        supervisor._on_done(1, Message(DONE, {"round": 2}), 0.0)
        assert supervisor.round_index == 3

    def test_a_done_without_a_round_is_refused(self):
        with pytest.raises(ClusterError, match="no round"):
            _idle_supervisor()._on_done(0, Message(DONE, {"round": "1"}), 0.0)

    def test_each_incarnation_gets_its_earliest_unspent_kill(self):
        supervisor = _idle_supervisor({2: 1, 5: 1, 3: 0})
        assert supervisor._kill_round(1, 0) == 2
        assert supervisor._kill_round(1, 4) == 5  # resumed past round 2
        assert supervisor._kill_round(0, 4) is None
        supervisor._unspent_kills.pop(2)  # the incarnation holding 2 died
        assert supervisor._kill_round(1, 0) == 5


# -- a hostile charge digest (unit, tier-1) ----------------------------------


class TestDigestRowsAreValidated:
    """A worker's digest crosses a process boundary: every row is
    checked before a charge lands, and each bad shape is a
    ``ClusterError`` — never a silently mis-charged ledger."""

    validate = staticmethod(ClusterSupervisor._validate_digest_rows)
    #: The reporting worker's shard: parties 0 and 1 of n=4.
    SHARD = [0, 1]

    def test_good_rows_are_multicast_runs(self):
        rows = [(0, 17, "vote", [3, 2, 3]), (1, 0, "", [0])]
        assert self.validate(rows, 4, self.SHARD) == rows
        assert self.validate((), 4, self.SHARD) == []

    @pytest.mark.parametrize(
        "rows, match",
        [
            ({"not": "rows"}, "not a row sequence"),
            (b"\x00\x01", "not a row sequence"),
            ([(0, 8, "p")], "malformed"),
            ([(0, 8, "p", [1], "extra")], "malformed"),
            ([17], "malformed"),
            ([(True, 8, "p", [1])], "malformed"),
            ([(0, True, "p", [1])], "malformed"),
            ([(0, -1, "p", [1])], "negative charge"),
            ([(0, 8, None, [1])], "malformed"),
            ([(0, 8, b"p", [1])], "malformed"),
            ([(0, 8, "p", [4])], "unknown party 4"),
            ([(0, 8, "p", [-1])], "unknown party -1"),
            # A worker charges only its own parties' sends.
            ([(2, 8, "p", [1])], "party 2, which is not in its shard"),
            ([(0, 8, "p", (1, 2))], "malformed"),
            ([(0, 8, "p", 1)], "malformed"),
            ([(0, 8, "p", [])], "names no recipient"),
            ([(0, 8, "p", [1, False])], "recipient that is not a party id"),
            ([(0, 8, "p", [1, "2"])], "recipient that is not a party id"),
            ([(0, 8, "p", [3, 1, 9, 0])], "unknown party 9"),
            ([(0, 8, "p", [2, -3, 7])], "unknown party -3"),
        ],
    )
    def test_bad_rows_are_refused(self, rows, match):
        with pytest.raises(ClusterError, match=match):
            self.validate(rows, 4, self.SHARD)


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
    result, _ = replay_balanced_ba(
        LOCAL, inputs, plan, scheme_by_name("snark"), params,
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
    row = mesh(
        name="pi-ba-replay", checkpoint_interval=2, config=config,
        run_dir=run_dir, resume=resume,
    )
    return replay_balanced_ba(
        row, inputs, plan, scheme_by_name("snark"), params,
        Randomness(SEED).fork("protocol"),
    )


@pytest.mark.cluster
class TestMeshProcessFaults:
    def test_sigkill_mid_round_resumes_without_double_charge(self):
        """SIGKILL a worker mid-round: the fleet relaunches from the last
        committed barrier — and the replayed rounds charge nothing twice
        (ledger and flow stay bit-identical to the crash-free
        reference)."""
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

    def test_one_kill_counts_one_restart_though_every_worker_relaunched(
        self, monkeypatch
    ):
        """The survivor the supervisor stops for the relaunch is not a
        death: two launches of two workers fork four processes, and
        ``restarts`` counts worker 1's death alone."""
        import repro.cluster.supervisor as supervisor

        forked = []

        def counting_fork(name, *args, **kwargs):
            forked.append(name)
            return fork_child(name, *args, **kwargs)

        monkeypatch.setattr(supervisor, "fork_child", counting_fork)
        parties, honest, max_rounds = build_phase_king(
            {i: i % 2 for i in range(16)}, (3,)
        )
        result = mesh(config=ClusterConfig(
            num_workers=2, kill_plan={2: 1},
        )).run(parties, honest, max_rounds)
        assert result.restarts == 1
        assert sorted(forked) == ["cluster-worker-0", "cluster-worker-0",
                                  "cluster-worker-1", "cluster-worker-1"]

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
        run), so the relaunched fleet's only checkpoint is round 0's —
        the JOB blob — and recovery is the same restore-then-replay
        path."""
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
