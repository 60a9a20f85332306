"""Moving ``RegisteredSRDS`` onto the shared counting skeleton moved no byte.

``golden/registered_parent.json`` holds what
:func:`registered_capture.capture` returned at commit b6f0bec, where the
scheme carried its own internal relation, greedy filter, ``verify`` and
board memo.  Every node's aggregate, the certificate, the outputs and
every party's tally must still be equal, run by run.
"""

import json

import pytest

from tests.srds import registered_capture

_PARENT = json.loads(registered_capture.GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "n,seed",
    [
        (n, seed)
        for n in registered_capture.SIZES
        for seed in registered_capture.SEEDS
    ],
)
def test_every_captured_value_equals_the_parent_commits(n, seed):
    measured = registered_capture.capture(n, seed)
    assert measured["agreement"]
    assert measured == _PARENT[registered_capture.key(n, seed)]
