"""What one seeded pi_ba run over ``RegisteredSRDS`` produces, reduced to
comparable values.

``tests/srds/test_registered_unchanged.py`` compares :func:`capture` with
``golden/registered_parent.json``, which this file wrote when run against
the source tree of commit b6f0bec (the last commit where
``RegisteredSRDS`` carried its own copy of the counting relation)::

    PYTHONPATH=<checkout of b6f0bec>/src python -m tests.srds.registered_capture

It uses nothing of the library that differs between the two commits.
"""

import json
import pathlib
import sys

from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.srds.registered import RegisteredSRDS
from repro.utils.randomness import Randomness
from tests.protocols.wire_capture import RecordingBA, _digest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "registered_parent.json"

SIZES = (16, 64)
SEEDS = (7, 2021, 424242)


def capture(n: int, seed: int) -> dict:
    """Every node's aggregate, the certificate and every party's tally."""
    params = ProtocolParameters()
    rng = Randomness(seed)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    inputs = {party: party % 2 for party in range(n)}
    metrics = CommunicationMetrics()
    protocol = RecordingBA(
        inputs, plan, RegisteredSRDS(), params, rng.fork("run"),
        metrics=metrics,
    )
    result = protocol.run()
    tallies = {
        str(party): [
            tally.bits_sent, tally.bits_received,
            tally.messages_sent, tally.messages_received, tally.locality,
        ]
        for party in metrics.party_ids
        for tally in [metrics.tally_of(party)]
    }
    root = max(protocol.node_encodings)
    return {
        "node_aggregates_sha256": _digest(protocol.node_encodings),
        "nodes_with_output": sum(
            1 for encoded in protocol.node_encodings.values()
            if encoded is not None
        ),
        "certificate_hex": protocol.node_encodings[root],
        "certificate_bytes": result.certificate_bytes,
        "outputs_sha256": _digest(
            [result.outputs[party] for party in range(n)]
        ),
        "agreement": result.agreement,
        "tallies_sha256": _digest(tallies),
        "max_bits_per_party": metrics.max_bits_per_party,
        "total_bits": metrics.total_bits,
    }


def key(n: int, seed: int) -> str:
    return f"n{n}/seed{seed}"


def main() -> int:
    captured = {
        key(n, seed): capture(n, seed) for n in SIZES for seed in SEEDS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(captured, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN} ({len(captured)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
