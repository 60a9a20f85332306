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

The *before* column of B1 (commit 8b3624e: one Merkle path per base
signature in f_aggr-sig's input, where its successor sends one batch
opening per leaf) is what the copy of this script at 8b3624e wrote when
run against that commit's checkout (it read the step split through a
subclass of the protocol object; this copy reads the step functions'
exchanges)::

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
from repro.params import ProtocolParameters
from repro.protocols import balanced_ba
from repro.protocols.cost_model import pi_ba_per_party_budget
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

STEP_5B, STEP_5D, AGGR_SIG, REST = "step-5b", "step-5d", "f_aggr-sig", "rest"


def _sent_by(step, wrapped, by_party):
    """``wrapped`` (a step function of ``balanced_ba`` returning its
    exchanges last), crediting each exchange's bits to ``step`` for its
    senders and recipients, pair by pair, as the ledger charges them."""

    def call(*args):
        returned = wrapped(*args)
        for senders, recipients, bits, skip_self in returned[-1]:
            for sender in senders:
                for recipient in recipients:
                    if skip_self and recipient == sender:
                        continue
                    for party in (sender, recipient):
                        steps = by_party.setdefault(party, {})
                        steps[step] = steps.get(step, 0) + bits
        return returned

    return call


def run(n: int, seed: int):
    """One execution; returns (result, per-party bits by step).

    Steps 5d (``node_inbox``) and 5b (``aggregate_node``) are read from
    the exchanges the wrapped step functions return; f_aggr-sig is the
    rest of the aggregation phase.
    """
    params = ProtocolParameters()
    rng = Randomness(seed)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    metrics = CommunicationMetrics()
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    by_party = {}
    originals = {
        "node_inbox": balanced_ba.node_inbox,
        "aggregate_node": balanced_ba.aggregate_node,
    }
    for name, step in (("node_inbox", STEP_5D), ("aggregate_node", STEP_5B)):
        setattr(balanced_ba, name, _sent_by(step, originals[name], by_party))
    try:
        result = balanced_ba.run_balanced_ba(
            {party: party % 2 for party in range(n)}, plan, scheme, params,
            rng.fork("run"), metrics=metrics,
        )
    finally:
        for name, original in originals.items():
            setattr(balanced_ba, name, original)
    if not (result.agreement and result.validity):
        raise SystemExit(f"n={n} seed={seed}: run failed its own checks")
    for party in metrics.party_ids:
        phases = metrics.bits_by_phase(party)
        aggregation = phases.get("srds-aggregate", 0)
        steps = by_party.setdefault(party, {})
        steps[AGGR_SIG] = (
            aggregation - steps.get(STEP_5B, 0) - steps.get(STEP_5D, 0)
        )
        steps[REST] = sum(phases.values()) - aggregation
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
