"""Tests for the f_aggr-sig committee functionality."""

import pytest

from repro.net.metrics import CommunicationMetrics
from repro.protocols.aggregate_mpc import run_aggregate_sig
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

N = 40


@pytest.fixture(scope="module")
def deployment():
    rng = Randomness(4)
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    pp = scheme.setup(N, rng.fork("s"))
    vks, sks = {}, {}
    for i in range(N):
        vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
    return scheme, pp, vks, sks


def _filtered(deployment, message, indices):
    scheme, pp, vks, sks = deployment
    signatures = [scheme.sign(pp, i, sks[i], message) for i in indices]
    return scheme.aggregate1(pp, vks, message, signatures)


class TestMajorityFilter:
    def test_unanimous_committee(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"m"
        filtered = _filtered(deployment, message, range(20))
        members = list(range(5))
        submissions = {m: (message, filtered) for m in members}
        metrics = CommunicationMetrics()
        result = run_aggregate_sig(scheme, pp, members, submissions, metrics)
        assert result is not None and result.count == 20

    def test_minority_submission_dropped(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"m"
        common = _filtered(deployment, message, range(10))
        extra = _filtered(deployment, message, range(10, 12))
        members = list(range(5))
        submissions = {m: (message, common) for m in members[:4]}
        # One member sneaks in two extra contributions nobody else saw.
        submissions[members[4]] = (message, common + extra)
        metrics = CommunicationMetrics()
        result = run_aggregate_sig(scheme, pp, members, submissions, metrics)
        assert result.count == 10

    def test_majority_message_selected(self, deployment):
        scheme, pp, vks, _ = deployment
        good, bad = b"good", b"bad"
        filtered_good = _filtered(deployment, good, range(15))
        filtered_bad = _filtered(deployment, bad, range(15, 18))
        members = list(range(5))
        submissions = {m: (good, filtered_good) for m in members[:3]}
        submissions[members[3]] = (bad, filtered_bad)
        submissions[members[4]] = (bad, filtered_bad)
        metrics = CommunicationMetrics()
        result = run_aggregate_sig(scheme, pp, members, submissions, metrics)
        assert result.count == 15  # 'good' was the majority message

    def test_empty_submissions(self, deployment):
        scheme, pp, _, _ = deployment
        metrics = CommunicationMetrics()
        assert run_aggregate_sig(scheme, pp, [0, 1, 2], {}, metrics) is None

    def test_silent_members_tolerated(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"m"
        filtered = _filtered(deployment, message, range(20))
        members = list(range(7))
        submissions = {m: (message, filtered) for m in members[:4]}
        metrics = CommunicationMetrics()
        result = run_aggregate_sig(scheme, pp, members, submissions, metrics)
        assert result is not None and result.count == 20

    def test_below_majority_yields_none(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"m"
        filtered = _filtered(deployment, message, range(5))
        members = list(range(7))
        submissions = {members[0]: (message, filtered)}
        metrics = CommunicationMetrics()
        assert run_aggregate_sig(
            scheme, pp, members, submissions, metrics
        ) is None


class TestCharging:
    def test_members_charged(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"m"
        filtered = _filtered(deployment, message, range(10))
        members = list(range(5))
        submissions = {m: (message, filtered) for m in members}
        metrics = CommunicationMetrics()
        run_aggregate_sig(scheme, pp, members, submissions, metrics)
        for member in members:
            assert metrics.tally_of(member).bits_total > 0


class TestSharedSubmissionLists:
    """The honest members of a good node hand in one shared Aggregate1
    output; the functionality walks each distinct list object once.  That
    is bookkeeping: the aggregate and the charge depend on the contents."""

    def _run(self, deployment, members, submissions):
        scheme, pp, _, _ = deployment
        metrics = CommunicationMetrics()
        result = run_aggregate_sig(scheme, pp, members, submissions, metrics)
        return (
            result.encode() if result is not None else None,
            [metrics.tally_of(member) for member in members],
        )

    def test_shared_equal_and_interleaved_lists_agree(self, deployment):
        message = b"m"
        common = _filtered(deployment, message, range(10))
        extra = _filtered(deployment, message, range(10, 13))
        members = list(range(7))
        wider = common + extra
        shared = {m: (message, common) for m in members[:4]}
        shared.update({m: (message, wider) for m in members[4:6]})
        distinct = {
            m: (message, list(filtered)) for m, (_, filtered) in shared.items()
        }
        # The wider list first and between the others: first-seen order
        # of the support keys differs, the outcome may not.
        interleaved = {
            members[4]: (message, wider), members[0]: (message, common),
            members[5]: (message, list(wider)), members[1]: (message, common),
            members[2]: (message, list(common)), members[3]: (message, common),
        }
        outcome = self._run(deployment, members, shared)
        assert outcome[0] is not None
        assert self._run(deployment, members, distinct) == outcome
        assert self._run(deployment, members, interleaved) == outcome

    def test_a_shared_list_counts_once_per_submitter(self, deployment):
        scheme, pp, _, _ = deployment
        message = b"m"
        common = _filtered(deployment, message, range(10))
        extra = _filtered(deployment, message, range(10, 13))
        members = list(range(7))
        # Four of seven is a majority, three is not — whether the three
        # share one list object or not.
        submissions = {m: (message, common) for m in members[:4]}
        shared_extra = common + extra
        submissions.update({m: (message, shared_extra) for m in members[4:]})
        result = run_aggregate_sig(
            scheme, pp, members, submissions, CommunicationMetrics()
        )
        assert result.count == 10
        # An item repeated inside one list still counts once for it.
        doubled = common + common
        submissions = {m: (message, doubled) for m in members[:3]}
        assert run_aggregate_sig(
            scheme, pp, members, submissions, CommunicationMetrics()
        ) is None
