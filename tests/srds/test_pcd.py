"""The counting skeleton's internal circuit, driven directly.

One suite over every scheme that plugs into :mod:`repro.srds.pcd`: each
case tampers one thing in a (statement, witness) pair the circuit
outputs.  ``NoRangeCheckSnarkSRDS`` removes exactly one predicate, so it
must still reject everything but the overlap.
"""

import pytest

from repro.crypto.prf import prf
from repro.errors import MALFORMED_INPUT_ERRORS
from repro.srds import pcd
from repro.srds.ablation import NoRangeCheckSnarkSRDS
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.srds.registered import RegisteredSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness
from repro.utils.serialization import decode_sequence, encode_sequence

N = 24
MESSAGE = b"counted"

SCHEMES = {
    "snark-hash": lambda: SnarkSRDS(HashRegistryBase()),
    "snark-schnorr": lambda: SnarkSRDS(SchnorrBase()),
    "registered": RegisteredSRDS,
    "no-ranges": lambda: NoRangeCheckSnarkSRDS(HashRegistryBase()),
}


class Deployment:
    def __init__(self, name):
        rng = Randomness(41)
        self.name = name
        self.scheme = SCHEMES[name]()
        self.certificate = self.scheme.certificate
        self.pp = self.scheme.setup(N, rng.fork("setup"))
        self.snark = self.pp.extra["snark"]
        self.board, self.secrets = {}, {}
        for index in range(N):
            self.board[index], self.secrets[index] = self.scheme.keygen(
                self.pp, rng.fork(f"k{index}")
            )
        # A second board: same keys but for one index outside every
        # range the cases aggregate.
        self.foreign_board = dict(self.board)
        self.foreign_board[N - 1], _ = self.scheme.keygen(
            self.pp, rng.fork("foreign")
        )

    def binding(self, message):
        """The statement's first field: the message itself under Thm
        2.8's scheme, its digest under the registered one."""
        if isinstance(self.scheme, RegisteredSRDS):
            return prf(b"", "registered-srds/msg", message)
        return message

    def child(self, indices, message=MESSAGE, board=None):
        board = self.board if board is None else board
        return self.scheme.aggregate(
            self.pp, board, message,
            [
                self.scheme.sign(self.pp, index, self.secrets[index], message)
                for index in indices
            ],
        )

    def holds(self, children, message=MESSAGE, witness=None, **fields):
        """Whether the internal circuit outputs, from these children,
        the statement an honest prover would derive (fields
        overridable)."""
        statement = dict(
            count=sum(child.count for child in children),
            lo=min(child.lo for child in children),
            hi=max(child.hi for child in children),
            accumulator=self.certificate.fold(
                child.accumulator for child in children
            ),
            board=children[0].board,
        )
        statement.update(fields)
        if witness is None:
            witness = encode_sequence([child.encode() for child in children])
        binding = self.binding(message)
        return pcd.internal_circuit(
            self.snark, self.certificate, binding, witness
        ) == pcd.encode_statement(binding, *statement.values())


@pytest.fixture(scope="module", params=sorted(SCHEMES))
def deployment(request):
    return Deployment(request.param)


@pytest.fixture(scope="module")
def children(deployment):
    return [deployment.child(range(0, 8)), deployment.child(range(8, 16))]


def test_the_honest_witness_is_accepted(deployment, children):
    assert deployment.holds(children)
    # ... and it is what Aggregate2 proves.
    combined = deployment.scheme.aggregate(
        deployment.pp, deployment.board, MESSAGE, children
    )
    assert (combined.count, combined.lo, combined.hi) == (16, 0, 15)
    assert combined.accumulator == deployment.certificate.fold(
        child.accumulator for child in children
    )


def test_overlapping_children_are_rejected_unless_ranges_are_off(
    deployment, children
):
    overlapping = [children[0], deployment.child(range(4, 12))]
    assert deployment.holds(overlapping) is (deployment.name == "no-ranges")


def test_an_inflated_count_is_rejected(deployment, children):
    assert not deployment.holds(children, count=17)


def test_a_child_under_a_foreign_board_is_rejected(deployment, children):
    foreign = deployment.child(range(8, 16), board=deployment.foreign_board)
    assert foreign.board != children[0].board
    assert not deployment.holds([children[0], foreign])
    assert not deployment.holds([children[0], foreign], board=foreign.board)


def test_a_child_for_another_message_is_rejected(deployment, children):
    other = deployment.child(range(8, 16), message=b"another")
    assert not deployment.holds([children[0], other])
    assert not deployment.holds([children[0], other], message=b"another")


@pytest.mark.parametrize("endpoint", [{"lo": 1}, {"hi": 14}, {"hi": 16}])
def test_wrong_endpoints_are_rejected(deployment, children, endpoint):
    assert not deployment.holds(children, **endpoint)


def test_a_wrong_accumulator_is_rejected(deployment, children):
    assert not deployment.holds(children, accumulator=children[0].accumulator)


def test_a_truncated_or_empty_witness_is_rejected(deployment, children):
    witness = encode_sequence([child.encode() for child in children])
    assert not deployment.holds(children, witness=witness[:-1])
    assert not deployment.holds(children, witness=witness[:40])
    assert not deployment.holds(children, witness=encode_sequence([]))
    assert not deployment.holds(children, witness=b"")


def test_a_statement_that_is_not_six_fields_is_rejected(deployment, children):
    witness = encode_sequence([child.encode() for child in children])
    five = encode_sequence([b"five", b"fields", b"are", b"too", b"few"])
    output = pcd.internal_circuit(
        deployment.snark, deployment.certificate,
        deployment.binding(MESSAGE), witness,
    )
    assert len(decode_sequence(output, 0)[0]) == 6
    assert output != five
    for statement in (five, b"\xff"):
        with pytest.raises(MALFORMED_INPUT_ERRORS):
            pcd.decode_statement(statement)
