"""The benchmark's normative names: workloads, metrics, units, bounds.

Pure data — importable without ``src/`` on the path — so ``compare`` and
``report`` can read result files anywhere.  ``BENCHMARK.json`` is
:func:`contract` serialised; a test keeps the two equal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from benchmarks.layers import RUN_SECONDS
from benchmarks.layers.trace import PHASES

#: Workload name → why it was chosen (one line, ≤ 200 characters).
WORKLOAD_WHY: Dict[str, str] = {
    "piba-snarkhash-n64": (
        "pi_ba at the n every pinned fingerprint uses, hash base sigs: all "
        "time is protocols+srds+serialization+merkle/snark; executors and "
        "serve idle, so their changes must read no change here"
    ),
    "piba-schnorr-n8": (
        "same protocol and SRDS code, real Schnorr base sigs: >95% of the "
        "op is crypto.ec/schnorr, the only place an EC or batch-verify "
        "gain shows; serialization/merkle work must read no change"
    ),
    "exec-sweep-n32": (
        "one recorded n=32 script replayed by simulator, runtime local+tcp "
        "and 2-worker mesh, plus MMR14 ABA: SRDS/crypto paid once in "
        "set-up, so the op is scheduling, framing, sockets, process spawn"
    ),
    "gateway-mix": (
        "2 lock-step clients (owf n=16, snark-hash n=32) on a live gateway, "
        "80% lease hits / 20% fresh seeds: median sits in the warm path, "
        "p90 in the cold keygen path, lost concurrency shows in ops_per_s"
    ),
}

#: (name, unit, better, bound) — ``bound`` is the share by which the
#: median may worsen before ``compare`` (and the driver) call it a
#: regression: three times the widest run-to-run spread seen for the
#: metric on any workload over ten-seed sets on the (noisy) bench host,
#: rounded up to the next 0.05 — see README, "Bounds".
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("max_bits_per_party", "bits", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: The eighth end-to-end quantity.  It is 0 on every healthy run, which
#: the driver's contract does not accept for a gated metric, so it
#: travels as ``failed``/``attempted`` on the result line and in the
#: results file, and ``compare`` holds it to bound 0.
FAILED_SHARE = "failed_share"


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in ledger order."""
    spec: List[Tuple[str, str, str]] = []

    def timed(*names: str) -> None:
        # A duration's unit is its name's suffix.
        for name in names:
            spec.append((name, name.rsplit("_", 1)[1], "lower"))

    timed(
        "crypto.hash_domain_us", "crypto.prg_block_us", "crypto.prf_us",
        "crypto.lamport_keygen_ms", "crypto.lamport_sign_us",
        "crypto.lamport_verify_us", "crypto.wots_keygen_ms",
        "crypto.wots_sign_us", "crypto.wots_verify_us",
        "crypto.merkle_build_ms", "crypto.merkle_prove_us",
        "crypto.merkle_verify_us", "crypto.snark_prove_ms",
        "crypto.snark_verify_us", "crypto.ec_scalar_mult_ms",
        "crypto.schnorr_keygen_ms", "crypto.schnorr_sign_ms",
        "crypto.schnorr_verify_ms",
        "utils.canonical_tuple_us", "utils.encode_sequence_us",
    )
    for scheme in ("snarkhash", "schnorr", "owf"):
        timed(*(
            f"srds.{scheme}.{op}"
            for op in (
                "setup_ms", "keygen_ms", "sign_ms", "aggregate1_ms",
                "aggregate2_ms", "verify_ms", "encode_us",
            )
        ))
        spec.append((f"srds.{scheme}.aggregate_bytes", "count", "lower"))
    timed("aetree.build_tree_ms", "aetree.kssv_elections_ms")
    timed(*(f"protocols.phase.{phase}_s" for phase in PHASES))
    spec.append(("protocols.phase.unattributed_share", "ratio", "lower"))
    timed(
        "protocols.compute_srds_setup_s", "protocols.run_coin_toss_s",
        "protocols.run_phase_king_s", "protocols.run_gradecast_s",
        "net.record_message_us", "net.simulator_replay_s",
    )
    spec.append(("runtime.record_overhead_share", "ratio", "lower"))
    timed(
        "runtime.build_parties_ms", "runtime.local_replay_s",
        "runtime.tcp_replay_s",
        "asynchrony.aba_s", "asynchrony.aba_adversarial_s",
    )
    spec.append(("asynchrony.deliveries", "count", "lower"))
    spec.append(("asynchrony.deliveries_per_s", "1/s", "higher"))
    timed(
        "cluster.mesh2w_job_s", "cluster.mesh1w_job_s",
        "cluster.worker_import_s",
    )
    spec.append(("cluster.restarts", "count", "lower"))
    timed(
        "serve.lease_hit_us", "serve.lease_miss_owf_ms",
        "serve.lease_miss_snarkhash_ms", "serve.run_decision_s",
        "serve.roundtrip_overhead_ms", "serve.ping_us",
    )
    spec.append(("serve.cache_hit_share", "ratio", "higher"))
    spec.append(("serve.busy_rejects", "count", "lower"))
    timed("serve.open_p50_s", "serve.open_tail_s", "serve.open_late_ms")
    spec.append(("serve.open_rejected_share", "ratio", "lower"))
    spec.append(("serve.open_achieved_per_s", "1/s", "higher"))
    spec.append(("obs.trace_overhead_share", "ratio", "lower"))
    spec.append(("obs.flow_overhead_share", "ratio", "lower"))
    spec.append(("obs.attributed_share", "ratio", "higher"))
    timed("host.calib_ms")
    spec.append(("host.calib_spread", "ratio", "lower"))
    spec.append(("host.nproc", "count", "higher"))
    return spec


def contract() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``, derived from the code."""
    return {
        "command": ["python3", "benchmarks/layers/run.py"],
        "paths": ["benchmarks/layers"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_spec()
        ],
    }
