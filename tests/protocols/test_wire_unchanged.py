"""The batch opening moved f_aggr-sig's hybrid charge and nothing else.

``golden/wire_parent.json`` holds what :func:`wire_capture.capture`
returned at commit 8b3624e, where every base signature entering
f_aggr-sig carried its own Merkle path.  The leaf *statement* did not
change, so every node's aggregate, the certificate, the outputs, every
message count, every wire cell and every hybrid cell outside
``srds-aggregate`` must still be equal, run by run.
"""

import json

import pytest

from tests.protocols import wire_capture

_PARENT = json.loads(wire_capture.GOLDEN.read_text(encoding="utf-8"))

#: The one captured value that is allowed (and expected) to move.
_MOVES = "max_bits_per_party"

_RUNS = [
    (n, seed, base)
    for base in sorted(wire_capture.BASES)
    for n in wire_capture.SIZES
    for seed in wire_capture.SEEDS
]


@pytest.mark.parametrize("n,seed,base", _RUNS)
def test_every_wire_value_equals_the_parent_commits(n, seed, base):
    parent = _PARENT[wire_capture.key(n, seed, base)]
    measured = wire_capture.capture(n, seed, base)
    assert measured["agreement"]
    assert {k: v for k, v in measured.items() if k != _MOVES} == {
        k: v for k, v in parent.items() if k != _MOVES
    }
    assert measured[_MOVES] < parent[_MOVES]
    if n == 64 and base == "hash":
        # The claimed workload's shape (benchmarks/layers
        # piba-snarkhash-n64): at most 0.55 x the parent's heaviest party.
        assert measured[_MOVES] <= 0.55 * parent[_MOVES]
