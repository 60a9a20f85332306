"""Acceptance criteria: differential parity between the reference
synchronous executions and the asyncio runtime.

For n in {16, 64} with random corruption at t = floor((n-1)/3), the
``AsyncLocalTransport`` + ``RoundSynchronizer`` combination must produce
byte-identical honest outputs and identical communication snapshots to
the reference for ``balanced_ba`` (both SRDS constructions); TCP passes
the same output-parity check at n = 16; and the same seed twice yields
identical JSONL traces.
"""

import pytest

from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import run_balanced_ba
from repro.protocols.phase_king import build_phase_king
from repro.runtime.faults import FaultPlan
from repro.runtime.placements import IN_PROCESS, LOCAL, PLACEMENTS, TCP
from repro.runtime import replay
from repro.runtime.replay import (
    RecordingLedger,
    record_balanced_ba_script,
    replay_balanced_ba,
    replay_over_simulator,
    tallies_equal,
)
from repro.runtime.trace import TraceRecorder
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness
from tests.placements import phase_views, run_honest

SCHEMES = {
    "snark": lambda: SnarkSRDS(base_scheme=HashRegistryBase()),
    "owf": lambda: OwfSRDS(message_bits=64),
}


def _setting(n, seed=7, corruptions=None):
    params = ProtocolParameters()
    rng = Randomness(seed)
    t = (n - 1) // 3 if corruptions is None else corruptions
    plan = random_corruption(n, t, rng.fork("corrupt"))
    inputs = {i: i % 2 for i in range(n)}
    return inputs, plan, params, rng


def _reference(n, scheme_name, seed=7, corruptions=None):
    inputs, plan, params, rng = _setting(n, seed, corruptions)
    scheme = SCHEMES[scheme_name]()
    result = run_balanced_ba(inputs, plan, scheme, params, rng.fork("run"))
    return result, (inputs, plan, params)


def _runtime(n, scheme_name, seed=7, corruptions=None, row=LOCAL, **kwargs):
    inputs, plan, params, rng = _setting(n, seed, corruptions)
    scheme = SCHEMES[scheme_name]()
    return replay_balanced_ba(
        row, inputs, plan, scheme, params, rng.fork("run"), **kwargs
    )


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("n", [16, 64])
def test_balanced_ba_local_parity(n, scheme_name):
    reference, _ = _reference(n, scheme_name)
    result, runtime = _runtime(n, scheme_name)

    # Byte-identical honest outputs.
    assert result.outputs == reference.outputs
    assert result.agreement == reference.agreement
    assert result.validity == reference.validity
    assert result.agreed_value == reference.agreed_value

    # Identical per-party communication accounting.
    assert result.metrics.max_bits_per_party == \
        reference.metrics.max_bits_per_party
    assert result.metrics.total_bits == reference.metrics.total_bits
    assert result.metrics.mean_bits_per_party == \
        reference.metrics.mean_bits_per_party
    assert result.metrics.max_locality == reference.metrics.max_locality
    assert runtime.outputs  # the replay machines all halted


@pytest.mark.parametrize("n", [16, 64])
def test_balanced_ba_parity_in_agreeing_regime(n):
    """Same parity check, but with t at the parameters' own budget
    (beta*n) so the reference actually reaches agreement — pins that
    the runtime reproduces real agreed values, not just null outputs."""
    params = ProtocolParameters()
    t = params.max_corruptions(n)
    reference, _ = _reference(n, "snark", corruptions=t)
    assert reference.agreement and reference.agreed_value is not None
    result, _ = _runtime(n, "snark", corruptions=t)
    assert result.outputs == reference.outputs
    assert result.agreed_value == reference.agreed_value
    assert result.metrics.max_bits_per_party == \
        reference.metrics.max_bits_per_party


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_balanced_ba_tcp_parity(scheme_name):
    n = 16
    reference, _ = _reference(n, scheme_name)
    result, _ = _runtime(n, scheme_name, row=TCP)
    assert result.outputs == reference.outputs
    assert result.metrics.max_bits_per_party == \
        reference.metrics.max_bits_per_party
    assert result.metrics.total_bits == reference.metrics.total_bits


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_balanced_ba_in_process_parity(scheme_name):
    """The one driver also takes the in-process row: the replay over
    ``SynchronousNetwork`` charges what the reference run charged."""
    n = 16
    reference, _ = _reference(n, scheme_name)
    result, runtime = _runtime(n, scheme_name, row=IN_PROCESS)
    assert result.outputs == reference.outputs
    assert result.metrics.max_bits_per_party == \
        reference.metrics.max_bits_per_party
    assert result.metrics.total_bits == reference.metrics.total_bits
    assert result.metrics.max_locality == reference.metrics.max_locality
    assert runtime.outputs


def test_cluster_drivers_serves_the_recorder():
    """``benchmarks/layers`` imports the recorder from the cluster
    package; it is the replay module's own function."""
    from repro.cluster import drivers

    assert drivers.record_balanced_ba_script is record_balanced_ba_script


@pytest.mark.parametrize("reorder", [False, True],
                         ids=["in-order", "reorder"])
def test_only_a_reordering_plan_derives_the_delivery_seam(reorder,
                                                          monkeypatch):
    """Fig. 3 consumes its inboxes in a permuted order exactly when the
    fault plan reorders, from the plan's ``balanced-ba-delivery`` fork."""
    seen = []

    def spy(*args):
        seen.append(args[-1])
        return record_balanced_ba_script(*args)

    monkeypatch.setattr(replay, "record_balanced_ba_script", spy)
    faults = FaultPlan(reorder=reorder, rng=Randomness(5))
    _runtime(16, "snark", fault_plan=faults)
    (delivery_rng,) = seen
    if not reorder:
        assert delivery_rng is None
        return
    expected = Randomness(5).fork("balanced-ba-delivery")
    assert delivery_rng.seed == expected.seed


def test_replay_matches_simulator_tallies():
    """The recorded wire traffic replayed over SynchronousNetwork charges
    each party exactly what the runtime replay charges it — and both
    file every charge under the phase the live run filed it under."""
    n = 16
    inputs, plan, params, rng = _setting(n)
    scheme = SCHEMES["snark"]()
    ledger = RecordingLedger()
    run_balanced_ba(
        inputs, plan, scheme, params, rng.fork("run"), metrics=ledger
    )
    script = ledger.script()
    sim_metrics = CommunicationMetrics()
    replay_over_simulator(script, n, metrics=sim_metrics)

    _, runtime = _runtime(n, "snark")
    assert tallies_equal(sim_metrics, runtime.metrics, range(n))
    recorded = phase_views(ledger, range(n))
    assert phase_views(sim_metrics, range(n)) == recorded
    assert phase_views(runtime.metrics, range(n)) == recorded


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_same_seed_identical_traces(transport):
    n = 16
    fingerprints = []
    for _ in range(2):
        trace = TraceRecorder()
        _runtime(n, "snark", row=PLACEMENTS[transport], trace=trace)
        fingerprints.append(trace.fingerprint())
    assert fingerprints[0] == fingerprints[1]


def test_trace_jsonl_dump_identical_across_runs(tmp_path):
    n = 16
    dumps = []
    for run_index in range(2):
        trace = TraceRecorder()
        _runtime(n, "snark", trace=trace)
        directory = tmp_path / f"run-{run_index}"
        directory.mkdir()
        paths = trace.dump_dir(directory)
        dumps.append({p.name: p.read_bytes() for p in paths})
    assert dumps[0] == dumps[1]
    assert len(dumps[0]) == n


class TestReorderRobustness:
    """Satellite: honest outputs are invariant under within-round
    delivery-order permutations (the scheduling adversary of §1)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_balanced_ba_outputs_unchanged(self, seed):
        n = 16
        t = ProtocolParameters().max_corruptions(n)
        reference, _ = _reference(n, "snark", corruptions=t)
        assert reference.agreement  # meaningful baseline
        faults = FaultPlan(reorder=True, rng=Randomness(seed))
        result, _ = _runtime(n, "snark", corruptions=t, fault_plan=faults)
        assert result.outputs == reference.outputs
        assert result.agreement and result.agreed_value == \
            reference.agreed_value

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [7, 10])
    def test_phase_king_outputs_unchanged(self, n, seed):
        inputs = {i: (i * 5) % 2 for i in range(n)}
        byzantine = list(range(0, (n - 1) // 3))
        canonical, _ = run_honest(LOCAL, build_phase_king(inputs, byzantine))
        faults = FaultPlan(reorder=True, rng=Randomness(seed))
        shuffled, _ = run_honest(
            LOCAL, build_phase_king(inputs, byzantine), fault_plan=faults
        )
        assert shuffled == canonical
