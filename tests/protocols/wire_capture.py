"""What one seeded pi_ba run puts on the wire, reduced to comparable values.

``tests/protocols/test_wire_unchanged.py`` compares :func:`capture` with
``golden/wire_parent.json``, which this file wrote when run against the
source tree of commit 8b3624e (the last commit whose f_aggr-sig input
carried one Merkle path per base signature)::

    PYTHONPATH=<checkout of 8b3624e>/src python tests/protocols/wire_capture.py

It uses nothing of the library that differs between the two commits.
"""

import hashlib
import json
import pathlib
import sys

from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import BalancedBA
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

GOLDEN = pathlib.Path(__file__).parent / "golden" / "wire_parent.json"

BASES = {"hash": HashRegistryBase, "schnorr": SchnorrBase}
SIZES = (16, 64)
SEEDS = (7, 2021, 424242)

#: The one phase whose hybrid charge (f_aggr-sig) is allowed to move.
AGGREGATE_PHASE = "srds-aggregate"


class RecordingBA(BalancedBA):
    """pi_ba that keeps what every tree node output in step 5."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.node_encodings = {}

    def _aggregate_node(self, tree, node, *args, **kwargs):
        output = super()._aggregate_node(tree, node, *args, **kwargs)
        self.node_encodings[node.node_id] = (
            output.encode().hex() if output is not None else None
        )
        return output


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def capture(n: int, seed: int, base: str) -> dict:
    """Everything of one run that f_aggr-sig's input size must not move."""
    params = ProtocolParameters()
    rng = Randomness(seed)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    inputs = {party: party % 2 for party in range(n)}
    metrics = CommunicationMetrics()
    flow = FlowLedger(max_cells=1 << 20)
    metrics.attach_flow(flow)
    protocol = RecordingBA(
        inputs, plan, SnarkSRDS(base_scheme=BASES[base]()), params,
        rng.fork("run"), metrics=metrics,
    )
    result = protocol.run()
    assert flow.evicted_cells == 0

    cells = [cell.to_wire() for cell in flow.cells()]
    for cell in cells:
        del cell["round"]  # a hybrid charge's rounds are not wire traffic
    wire = sorted(
        (c for c in cells if c["kind"] == "wire"),
        key=lambda c: (c["phase"], c["src"], c["dst"]),
    )
    hybrid_elsewhere = sorted(
        (
            c for c in cells
            if c["kind"] != "wire" and c["phase"] != AGGREGATE_PHASE
        ),
        key=lambda c: (c["phase"], c["src"], c["dst"], c["kind"]),
    )
    other_phase_bits = {
        str(party): {
            phase: bits
            for phase, bits in metrics.bits_by_phase(party).items()
            if phase != AGGREGATE_PHASE
        }
        for party in metrics.party_ids
    }
    return {
        "node_aggregates_sha256": _digest(protocol.node_encodings),
        "nodes_with_output": sum(
            1 for encoded in protocol.node_encodings.values()
            if encoded is not None
        ),
        "certificate_bytes": result.certificate_bytes,
        "outputs_sha256": _digest(
            [result.outputs[party] for party in range(n)]
        ),
        "agreement": result.agreement,
        "messages": {
            phase: stats.messages
            for phase, stats in metrics.phase_breakdown().items()
        },
        "other_phase_bits_sha256": _digest(other_phase_bits),
        "wire_cells": len(wire),
        "wire_cells_sha256": _digest(wire),
        "wire_bits_in_aggregate_phase": sum(
            c["bits"] for c in wire if c["phase"] == AGGREGATE_PHASE
        ),
        "hybrid_cells_elsewhere_sha256": _digest(hybrid_elsewhere),
        "max_bits_per_party": result.metrics.max_bits_per_party,
    }


def key(n: int, seed: int, base: str) -> str:
    return f"{base}/n{n}/seed{seed}"


def main() -> int:
    captured = {
        key(n, seed, base): capture(n, seed, base)
        for base in sorted(BASES)
        for n in SIZES
        for seed in SEEDS
    }
    GOLDEN.write_text(
        json.dumps(captured, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN} ({len(captured)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
