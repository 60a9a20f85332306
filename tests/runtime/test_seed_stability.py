"""Seed-stability regression: pinned trace fingerprints for π_ba.

The runtime promises bit-level determinism: one seed, one trace.  The
differential tests check *within-process* stability (same seed twice in
one run); this module pins the actual fingerprints, so an accidental
change to message encoding, delivery order, randomness forking, or
transport framing — anything that silently alters the wire behavior —
fails loudly here even though outputs still agree.

If a deliberate protocol change lands, re-pin by running::

    PYTHONPATH=src python -c "
    from tests.runtime.test_seed_stability import compute_fingerprint
    for s in ('snark', 'owf'):
        for t in ('local', 'tcp'):
            print(s, t, compute_fingerprint(s, t))"
"""

import pytest

from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.runtime.placements import PLACEMENTS
from repro.runtime.replay import replay_balanced_ba
from repro.runtime.trace import TraceRecorder
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

N = 16
SEED = 7

# One fingerprint per SRDS scheme: the trace is transport-independent
# (local asyncio queues and TCP must produce identical round/delivery
# schedules), which the test asserts explicitly.
PINNED = {
    "snark": "64f9143f0a362671e9b6557dd7468bea99910bce793cc24e29f2361dc7b2d753",
    "owf": "3292ba08626b5e167ec27d569f96f3fcd14645e4cc074a26fa8802bf9bca7778",
}


def compute_fingerprint(scheme_name: str, transport: str) -> str:
    params = ProtocolParameters()
    rng = Randomness(SEED)
    plan = random_corruption(
        N, params.max_corruptions(N), rng.fork("corrupt")
    )
    inputs = {i: i % 2 for i in range(N)}
    scheme = (
        SnarkSRDS(base_scheme=HashRegistryBase())
        if scheme_name == "snark"
        else OwfSRDS(message_bits=64)
    )
    trace = TraceRecorder()
    replay_balanced_ba(
        PLACEMENTS[transport],
        inputs,
        plan,
        scheme,
        params,
        rng.fork("run"),
        trace=trace,
    )
    return trace.fingerprint()


class TestSeedStability:
    @pytest.mark.parametrize("transport", ["local", "tcp"])
    @pytest.mark.parametrize("scheme_name", sorted(PINNED))
    def test_fingerprint_matches_pin(self, scheme_name, transport):
        assert compute_fingerprint(scheme_name, transport) == PINNED[
            scheme_name
        ], (
            "trace fingerprint drifted — if the protocol change is "
            "deliberate, re-pin per the module docstring"
        )

    def test_transports_agree(self):
        # Redundant with the pins while both hold, but localizes the
        # diagnosis when one drifts: scheme change vs transport change.
        assert compute_fingerprint("snark", "local") == compute_fingerprint(
            "snark", "tcp"
        )
