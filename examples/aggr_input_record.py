#!/usr/bin/env python3
"""Where the heaviest party's bits go, by Fig. 3 step, and how the
maximum grows with n — the record behind EXPERIMENTS.md B1.

Runs seeded hash-base ``SnarkSRDS`` pi_ba executions of whichever
``repro`` is on the import path and writes one JSON record:

* at ``--split-n`` (default 64): the heaviest party's bits split into
  step 5b (the committee-wide re-broadcast of received sets), step 5d
  (child committee to parent committee), f_aggr-sig (the hybrid charge:
  committee x input bits) and everything else;
* for every n in ``--sizes``: ``max_bits_per_party``, measured / ceiling
  (``pi_ba_per_party_budget``) and the local log-log slope to the next
  smaller n.

It calls nothing that differs between commit 8b3624e (one Merkle path
per base signature in f_aggr-sig's input) and its successor (one batch
opening per leaf), so the *before* column of B1 is this script run
against a checkout of 8b3624e::

    PYTHONPATH=<checkout of 8b3624e>/src python examples/aggr_input_record.py \\
        --out benchmarks/results/AGGR_INPUT_before.json
    PYTHONPATH=src python examples/aggr_input_record.py \\
        --out benchmarks/results/AGGR_INPUT_after.json
"""

import argparse
import json
import math
import sys

from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger
from repro.obs.spans import span
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import BalancedBA
from repro.protocols.cost_model import pi_ba_per_party_budget
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

STEP_5B, STEP_5D, AGGR_SIG, REST = "step-5b", "step-5d", "f_aggr-sig", "rest"


class _SteppedBA(BalancedBA):
    """pi_ba whose step-5 charges carry the step that made them.

    ``_node_inbox`` makes the step-5d charges; ``_aggregate_node`` makes
    the step-5b wire charge and, through f_aggr-sig, the one hybrid
    charge of the aggregation phase.
    """

    def _node_inbox(self, *args, **kwargs):
        with span(STEP_5D):
            return super()._node_inbox(*args, **kwargs)

    def _aggregate_node(self, *args, **kwargs):
        with span(STEP_5B):
            return super()._aggregate_node(*args, **kwargs)


def _step_of(phase: str, kind: str) -> str:
    if phase == STEP_5D:
        return STEP_5D
    if phase == STEP_5B:
        return STEP_5B if kind == "wire" else AGGR_SIG
    return REST


def run(n: int, seed: int):
    """One execution; returns (result, per-party bits by step)."""
    params = ProtocolParameters()
    rng = Randomness(seed)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    metrics = CommunicationMetrics()
    flow = FlowLedger(max_cells=1 << 22)
    metrics.attach_flow(flow)
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    result = _SteppedBA(
        {party: party % 2 for party in range(n)}, plan, scheme, params,
        rng.fork("run"), metrics=metrics,
    ).run()
    if not (result.agreement and result.validity) or flow.evicted_cells:
        raise SystemExit(f"n={n} seed={seed}: run failed its own checks")
    by_party = {}
    for cell in flow.cells():
        step = _step_of(cell.phase, cell.kind)
        for party in (cell.src, cell.dst):
            if party >= 0:  # not the functionality's pseudo party
                steps = by_party.setdefault(party, {})
                steps[step] = steps.get(step, 0) + cell.bits
    pp = scheme.setup(2, rng.fork("probe"))
    _, signing_key = scheme.keygen(pp, rng.fork("probe-key"))
    base_bytes = scheme.sign(pp, 0, signing_key, b"probe").size_bytes()
    ceiling = pi_ba_per_party_budget(
        n, params, result.certificate_bytes, base_bytes
    )
    return result, by_party, ceiling


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--split-n", type=int, default=64)
    parser.add_argument("--sizes", default="16,32,64,128,256")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    sizes = sorted(int(size) for size in args.sizes.split(","))

    result, by_party, _ = run(args.split_n, args.seed)
    heaviest = max(by_party, key=lambda party: sum(by_party[party].values()))
    split = {
        step: by_party[heaviest].get(step, 0)
        for step in (STEP_5B, STEP_5D, AGGR_SIG, REST)
    }
    assert sum(split.values()) == result.metrics.max_bits_per_party

    scaling = []
    for n in sizes:
        result, _, ceiling = run(n, args.seed)
        row = {
            "n": n,
            "max_bits_per_party": result.metrics.max_bits_per_party,
            "ceiling_bits": ceiling,
            "measured_over_ceiling": round(
                result.metrics.max_bits_per_party / ceiling, 3
            ),
            "local_slope": None,
        }
        if scaling:
            previous = scaling[-1]
            row["local_slope"] = round(
                math.log(
                    row["max_bits_per_party"] / previous["max_bits_per_party"]
                ) / math.log(n / previous["n"]),
                3,
            )
        scaling.append(row)

    record = {
        "schema": "repro-aggr-input/1",
        "scheme": "snark-hash",
        "seed": args.seed,
        "heaviest_party_split": {
            "n": args.split_n,
            "party": heaviest,
            "bits_by_step": split,
            "share_by_step": {
                step: round(bits / sum(split.values()), 3)
                for step, bits in split.items()
            },
        },
        "scaling": scaling,
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
