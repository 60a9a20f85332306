"""RoundSynchronizer: the paper's synchronous model over async transports.

The central claim of the runtime is *differential equivalence*: party
state machines driven by the RoundSynchronizer produce exactly the
outputs and metrics they produce on the in-process row — by
construction, since both step the same ``RoundCore``.  The contract
cases (duplicate ids, next-round delivery, sender stamping, faults,
termination, the committee builders) are the in-process row's own,
re-run here on the ``local`` and ``tcp`` transports; the rest
smoke-tests the committee protocols end to end and pins tracing
determinism.
"""

import pytest

from repro.net.metrics import CommunicationMetrics
from repro.net.party import Envelope, Party
from repro.net.rounds import RoundCore, run_in_process
from repro.protocols.gradecast import (
    build_gradecast,
    check_gradecast_guarantees,
    run_gradecast,
)
from repro.protocols.phase_king import build_phase_king, run_phase_king
from repro.runtime.placements import IN_PROCESS, LOCAL, TCP, mesh
from repro.runtime.synchronizer import (
    RoundSynchronizer,
    run_parties,
    run_parties_async,
)
from repro.runtime.trace import TraceRecorder
from repro.runtime.transport import AsyncLocalTransport, Transport
from tests.net import test_simulator as contract
from tests.net.test_simulator import EchoParty
from tests.placements import run_honest


class _Contract(
    contract.TestDelivery,
    contract.TestAuthentication,
    contract.TestTermination,
    contract.TestFaultPlan,
    contract.TestNoPolicy,
    contract.TestTrace,
    contract.TestReplayAttribution,
    contract.TestBuilders,
):
    """Every lockstep-round contract case (tests/net/test_simulator.py)."""


class TestBasicSemantics(_Contract):
    placement = LOCAL

    def test_echo_round_trip_matches_simulator(self):
        sim_a, sim_b = EchoParty(0, 1), EchoParty(1, 0)
        reference = run_in_process([sim_a, sim_b], max_rounds=10)

        rt_a, rt_b = EchoParty(0, 1), EchoParty(1, 0)
        result = run_parties([rt_a, rt_b], max_rounds=10)
        assert rt_a.received == sim_a.received
        assert rt_b.received == sim_b.received
        assert result.outputs == reference.outputs
        assert result.metrics.snapshot() == reference.metrics.snapshot()


class TestTcpSemantics(_Contract):
    placement = TCP


@pytest.mark.parametrize("n", [7, 13])
def test_phase_king_differential(n):
    inputs = {i: (i * 3) % 2 for i in range(n)}
    byzantine = [1, n - 2][: max(1, (n - 1) // 3)]
    sync_outputs, sync_metrics = run_phase_king(inputs, byzantine)
    rt_outputs, rt = run_honest(LOCAL, build_phase_king(inputs, byzantine))
    assert rt_outputs == sync_outputs
    assert rt.metrics.snapshot() == sync_metrics.snapshot()


@pytest.mark.parametrize("equivocating", [False, True])
def test_gradecast_differential(equivocating):
    members = list(range(7))
    sync_outputs, sync_metrics = run_gradecast(
        members, sender=2, value=1, byzantine=[5],
        equivocating_sender=equivocating,
    )
    rt_outputs, rt = run_honest(LOCAL, build_gradecast(
        members, sender=2, value=1, byzantine=[5],
        equivocating_sender=equivocating,
    ))
    assert rt_outputs == sync_outputs
    assert rt.metrics.snapshot() == sync_metrics.snapshot()
    assert check_gradecast_guarantees(
        rt_outputs, sender_honest=not equivocating, sender_value=1
    )


def test_tcp_matches_local_for_phase_king():
    inputs = {i: i % 2 for i in range(7)}
    local_out, local = run_honest(LOCAL, build_phase_king(inputs, [3]))
    tcp_out, tcp = run_honest(TCP, build_phase_king(inputs, [3]))
    assert tcp_out == local_out
    assert tcp.metrics.snapshot() == local.metrics.snapshot()


class TestTraceDeterminism:
    def test_same_seed_same_trace(self):
        inputs = {i: i % 2 for i in range(7)}
        fingerprints = []
        for _ in range(2):
            trace = TraceRecorder()
            LOCAL.run(*build_phase_king(inputs, [2]), trace=trace)
            fingerprints.append(trace.fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_trace_identical_across_transports(self):
        inputs = {i: i % 2 for i in range(5)}
        traces = []
        for row in (LOCAL, TCP):
            trace = TraceRecorder()
            row.run(*build_phase_king(inputs, [1]), trace=trace)
            traces.append(trace.fingerprint())
        assert traces[0] == traces[1]

    def test_trace_contains_expected_kinds(self):
        trace = TraceRecorder()
        run_parties([EchoParty(0, 1), EchoParty(1, 0)], trace=trace)
        kinds = {
            event["kind"]
            for party in trace.party_ids
            for event in trace.events_of(party)
        }
        assert {"send", "recv", "round-barrier", "halt"} <= kinds
        assert trace.max_queue_depth() >= 1


def test_external_metrics_object_is_charged():
    metrics = CommunicationMetrics()
    result = run_parties(
        [EchoParty(0, 1), EchoParty(1, 0)], metrics=metrics
    )
    assert result.metrics is metrics
    assert metrics.total_bits > 0


class _Chatter(Party):
    """Sends one frame to every peer in round 0, halts at round 2."""

    def __init__(self, party_id: int, n: int) -> None:
        super().__init__(party_id)
        self.n = n

    def step(self, round_index, inbox):
        if round_index == 0:
            return [
                Envelope(self.party_id, r, b"x" * 4)
                for r in range(self.n)
                if r != self.party_id
            ]
        if round_index >= 2:
            self.halt(len(inbox))
        return []


def test_plain_run_ends_once_every_party_halts():
    result = run_parties([_Chatter(i, 3) for i in range(3)])
    assert result.rounds == 3
    # Round-0 sends arrive at round 1; the round-2 inbox is empty.
    assert set(result.outputs.values()) == {0}
    assert result.metrics.tally_of(0).messages_sent == 2


class TestNoRegistryFeed:
    """A batch run keeps no Prometheus registry: the ledger, its flow
    cells and the trace are its only instrumentation."""

    @pytest.mark.parametrize(
        "entry",
        [
            run_parties,
            run_parties_async,
            lambda parties, **kw: RoundSynchronizer(
                parties, AsyncLocalTransport([0, 1]), **kw
            ),
        ],
        ids=["run_parties", "run_parties_async", "RoundSynchronizer"],
    )
    def test_entry_point_takes_no_registry(self, entry):
        with pytest.raises(TypeError):
            entry([_Chatter(i, 2) for i in range(2)], registry=object())

    def test_transport_has_no_registry_binding(self):
        assert not hasattr(Transport, "bind_registry")
        assert not hasattr(AsyncLocalTransport([0, 1]), "_registry")

    def test_round_core_takes_no_fault_callback(self):
        with pytest.raises(TypeError):
            RoundCore([_Chatter(i, 2) for i in range(2)], on_fault=print)


class TestNoMessageBudget:
    """No executor takes a per-party message budget: nothing in ``src/``,
    the benchmark or the examples ever set one."""

    @pytest.mark.parametrize(
        "entry",
        [
            RoundCore,
            run_parties,
            run_parties_async,
            lambda parties, **kw: RoundSynchronizer(
                parties, AsyncLocalTransport([0, 1]), **kw
            ),
            IN_PROCESS.run,
            LOCAL.run,
            TCP.run,
            mesh(2).run,
        ],
        ids=[
            "RoundCore", "run_parties",
            "run_parties_async", "RoundSynchronizer", "in-process",
            "local", "tcp", "mesh",
        ],
    )
    def test_entry_point_takes_no_budget(self, entry):
        with pytest.raises(TypeError):
            entry(
                [_Chatter(i, 2) for i in range(2)],
                message_budget_per_party=3,
            )
