"""The per-layer ledger: isolated cells timing one public call each.

A *cell* is the median of repeated calls to one public function of one
``src/repro`` layer, on inputs sized like the workload the layer matters
to, bracketed by the calibration kernel.  Cells run in the traced pass
only and are never gated; each names (in ``README.md``) the end-to-end
metric it is expected to move.

Cheap cells take 20 samples of a batch of calls; cells that cost tens of
milliseconds or more per call take fewer (the count is beside each
call) because the whole traced pass has to fit the driver's time cap.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.layers.calib import Host, median, percentile, tail_percentile
from benchmarks.layers.trace import NullTracer
from benchmarks.layers.workloads import (
    ExecSweep,
    GatewayMix,
    GatewayProcess,
    LoopResult,
    run_step,
    split_inputs,
    src_env,
)

from repro.aetree.kssv import build_tree_via_elections
from repro.aetree.tree import build_tree
from repro.crypto import ec, lamport, schnorr, winternitz
from repro.crypto.hashing import hash_domain
from repro.crypto.merkle import MerkleTree, verify_inclusion
from repro.crypto.prf import prf
from repro.crypto.prg import PRG
from repro.crypto.snark import SnarkSystem
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import compute_srds_setup, run_balanced_ba
from repro.protocols.coin_toss import run_coin_toss
from repro.protocols.gradecast import run_gradecast
from repro.protocols.phase_king import run_phase_king
from repro.runtime.replay import build_replay_parties
from repro.cluster.drivers import record_balanced_ba_script
from repro.serve.client import GatewayClient, run_session
from repro.serve.sessions import SessionSpec, run_decision
from repro.serve.setup_cache import SetupCache
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness
from repro.utils.serialization import canonical_tuple, encode_sequence

#: name → (value, unit)
Ledger = Dict[str, Tuple[float, str]]

#: SRDS schemes of the ledger: label → (factory, n of the workload that
#: uses it).  ``owf`` matches the gateway's ``scheme_for("owf")``.
SRDS_SCHEMES: Dict[str, Tuple[Callable[[], Any], int]] = {
    "snarkhash": (lambda: SnarkSRDS(HashRegistryBase()), 64),
    "schnorr": (lambda: SnarkSRDS(), 8),
    "owf": (lambda: OwfSRDS(message_bits=64), 16),
}

#: Open-loop probe: Poisson arrivals at this rate for this long.
OPEN_RATE_PER_S = 3.0
OPEN_SECONDS = 4.0

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def cell(
    host: Host, fn: Callable[[], Any], reps: int = 20, inner: int = 1
) -> float:
    """Median normalised seconds per call of ``fn`` (one bracket per cell)."""

    def body() -> List[float]:
        samples = []
        for _ in range(reps):
            started = time.perf_counter()
            for _ in range(inner):
                fn()
            samples.append((time.perf_counter() - started) / inner)
        return samples

    timed, samples = host.timed(body)
    return median(samples) * timed.factor


class _Cells:
    """Collects cell values under their normative names."""

    def __init__(self, host: Host, seed: int, workdir: Path, smoke: bool) -> None:
        self.host = host
        self.rng = Randomness(seed).fork("cells")
        self.workdir = workdir
        self.smoke = smoke
        self.params = ProtocolParameters()
        self.ledger: Ledger = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.ledger[name] = (value, unit)

    def time(
        self, name: str, fn: Callable[[], Any], reps: int = 20, inner: int = 1
    ) -> float:
        """Time ``fn`` and record it; the unit is the name's suffix."""
        unit = name.rsplit("_", 1)[1]
        seconds = cell(self.host, fn, reps, inner)
        self.put(name, seconds * _SCALE[unit], unit)
        return seconds

    def size(self, n: int) -> int:
        """Workload n, or the smallest n the protocol accepts under --smoke."""
        return 8 if self.smoke else n

    # -- crypto, utils ---------------------------------------------------------

    def crypto(self) -> None:
        a, b = self.rng.random_bytes(32), self.rng.random_bytes(32)
        self.time("crypto.hash_domain_us", lambda: hash_domain("cell", a, b), inner=200)
        prg = PRG(a)
        self.time("crypto.prg_block_us", lambda: prg.block(7), inner=200)
        self.time("crypto.prf_us", lambda: prf(a, "cell", b), inner=200)

        # One-time signatures at the gateway OWF scheme's message width.
        message = b"cell-message"
        self.time(
            "crypto.lamport_keygen_ms",
            lambda: lamport.keygen_from_seed(a, 64), inner=4,
        )
        vk, sk = lamport.keygen_from_seed(a, 64)
        self.time("crypto.lamport_sign_us", lambda: lamport.sign(sk, message), inner=20)
        signature = lamport.sign(sk, message)
        self.time(
            "crypto.lamport_verify_us",
            lambda: lamport.verify(vk, message, signature), inner=10,
        )
        self.time(
            "crypto.wots_keygen_ms",
            lambda: winternitz.keygen_from_seed(a, 64), inner=2,
        )
        wvk, wsk = winternitz.keygen_from_seed(a, 64)
        self.time("crypto.wots_sign_us", lambda: winternitz.sign(wsk, message), inner=4)
        wsig = winternitz.sign(wsk, message)
        self.time(
            "crypto.wots_verify_us",
            lambda: winternitz.verify(wvk, message, wsig), inner=4,
        )

        # Merkle tree over a verification-key vector as wide as pi_ba's
        # virtual-identity set at n=64.
        width = build_tree(self.size(64), self.params, self.rng).num_virtual
        leaves = [self.rng.random_bytes(32) for _ in range(width)]
        self.time("crypto.merkle_build_ms", lambda: MerkleTree(leaves), reps=10)
        tree = MerkleTree(leaves)
        self.time("crypto.merkle_prove_us", lambda: tree.prove(width // 3), inner=50)
        proof = tree.prove(width // 3)
        self.time(
            "crypto.merkle_verify_us",
            lambda: verify_inclusion(tree.root, leaves[width // 3], proof),
            inner=20,
        )

        system = SnarkSystem(a)
        system.register_relation("cell", lambda statement, witness: True)
        self.time("crypto.snark_prove_ms", lambda: system.prove("cell", a, b), inner=50)
        snark_proof = system.prove("cell", a, b)
        self.time(
            "crypto.snark_verify_us",
            lambda: system.verify("cell", a, snark_proof), inner=50,
        )

        scalar = int.from_bytes(a, "big") % ec.N
        self.time(
            "crypto.ec_scalar_mult_ms",
            lambda: ec.scalar_mult(scalar, ec.GENERATOR), reps=5,
        )
        self.time(
            "crypto.schnorr_keygen_ms",
            lambda: schnorr.keygen(self.rng.fork("schnorr")), reps=5,
        )
        keypair = schnorr.keygen(self.rng.fork("schnorr"))
        self.time("crypto.schnorr_sign_ms", lambda: schnorr.sign(keypair, message), reps=5)
        ssig = schnorr.sign(keypair, message)
        self.time(
            "crypto.schnorr_verify_ms",
            lambda: schnorr.verify(keypair.public, message, ssig), reps=5,
        )

    def utils(self) -> None:
        # The shape of CertifiedBaseSignature.encode(): a base signature,
        # a verification key and a 10-sibling Merkle path.
        fields = (
            self.rng.random_bytes(72),
            self.rng.random_bytes(32),
            self.rng.random_bytes(10 * 33 + 4),
        )
        self.time("utils.canonical_tuple_us", lambda: canonical_tuple(*fields), inner=200)
        items = list(fields)
        self.time("utils.encode_sequence_us", lambda: encode_sequence(items), inner=200)

    # -- srds --------------------------------------------------------------------

    def srds(self) -> None:
        for label, (factory, n) in SRDS_SCHEMES.items():
            slow = label == "schnorr"
            few = 3 if slow else 10
            rng = self.rng.fork(f"srds-{label}")
            tree = build_tree(self.size(n), self.params, rng)
            width = tree.num_virtual
            batch = max(2, width // len(tree.leaves))  # one leaf's signatures
            scheme = factory()
            prefix = f"srds.{label}"
            self.time(f"{prefix}.setup_ms", lambda: scheme.setup(width, rng.fork("pp")))
            pp = scheme.setup(width, rng.fork("pp"))
            self.time(
                f"{prefix}.keygen_ms",
                lambda: scheme.keygen(pp, rng.fork("kg")), reps=few,
            )
            keys = [scheme.keygen(pp, rng.fork(f"kg-{i}")) for i in range(width)]
            vks = {i: vk for i, (vk, _) in enumerate(keys)}
            message = b"cell-pair"
            # The OWF scheme's oblivious keys cannot sign; batch over the
            # identities that can.
            signers = [i for i, (_, sk) in enumerate(keys) if sk is not None]
            signers = [
                i for i in signers
                if scheme.sign(pp, i, keys[i][1], message) is not None
            ][:batch]
            first = signers[0]
            self.time(
                f"{prefix}.sign_ms",
                lambda: scheme.sign(pp, first, keys[first][1], message), reps=few,
            )
            signatures = [scheme.sign(pp, i, keys[i][1], message) for i in signers]
            self.time(
                f"{prefix}.aggregate1_ms",
                lambda: factory().aggregate1(pp, vks, message, signatures),
                reps=2 if slow else few,
            )
            filtered = scheme.aggregate1(pp, vks, message, signatures)
            self.time(
                f"{prefix}.aggregate2_ms",
                lambda: scheme.aggregate2(pp, message, filtered), reps=few,
            )
            aggregate = scheme.aggregate2(pp, message, filtered)
            self.time(
                f"{prefix}.verify_ms",
                lambda: scheme.verify(pp, vks, message, aggregate), reps=few,
            )
            self.time(f"{prefix}.encode_us", aggregate.encode, inner=20)
            self.put(f"{prefix}.aggregate_bytes", len(aggregate.encode()), "count")

    # -- aetree, protocols ---------------------------------------------------------

    def aetree_and_protocols(self) -> None:
        n = self.size(64)
        rng = self.rng.fork("tree")
        self.time("aetree.build_tree_ms", lambda: build_tree(n, self.params, rng))
        plan = random_corruption(n, self.params.max_corruptions(n), rng.fork("c"))
        self.time(
            "aetree.kssv_elections_ms",
            lambda: build_tree_via_elections(n, self.params, plan, rng),
        )
        width = build_tree(n, self.params, rng).num_virtual
        self.time(
            "protocols.compute_srds_setup_s",
            lambda: compute_srds_setup(
                SnarkSRDS(HashRegistryBase()), width, rng.fork("setup")
            ),
            reps=5,
        )
        # The coin toss costs seconds beyond a handful of members (VSS
        # over EC); four is the smallest committee it accepts.
        self.time(
            "protocols.run_coin_toss_s",
            lambda: run_coin_toss(range(4), rng.fork("ct")), reps=1,
        )
        committee = self.params.committee_size(n)
        inputs = split_inputs(committee)
        self.time("protocols.run_phase_king_s", lambda: run_phase_king(inputs), reps=5)
        self.time(
            "protocols.run_gradecast_s",
            lambda: run_gradecast(range(committee), 0, 1), reps=5,
        )

    # -- executors: net, runtime, asynchrony, cluster -------------------------------

    def executors(self, sweep: Optional[ExecSweep], legs: Dict[str, List[float]]) -> None:
        """Leg medians plus the executor cells that are not legs.

        ``sweep``/``legs`` come from the traced pass when the workload
        *is* the sweep; otherwise a private sweep runs one plain op.
        """
        own = sweep is None
        if own:
            sweep = ExecSweep(self.rng.seed, self.workdir, self.smoke)
            sweep.setup(self.host)
            sweep.choose_inputs()
            loop = LoopResult()
            run_step(
                sweep, 0, self.host, NullTracer(), loop, time.monotonic() + 60.0
            )
            if loop.failures:
                raise RuntimeError(f"sweep legs failed: {loop.failures[:2]}")
            legs = loop.legs
        assert sweep is not None
        for leg, name in (
            ("simulator", "net.simulator_replay_s"),
            ("runtime-local", "runtime.local_replay_s"),
            ("runtime-tcp", "runtime.tcp_replay_s"),
            ("cluster-mesh2w", "cluster.mesh2w_job_s"),
            ("aba", "asynchrony.aba_s"),
        ):
            self.put(name, median(legs[leg]), "s")

        ledger = CommunicationMetrics()
        self.time(
            "net.record_message_us",
            lambda: ledger.record_message(3, 5, 4096), inner=200,
        )
        self.time(
            "runtime.build_parties_ms",
            lambda: build_replay_parties(sweep.script, sweep.n), reps=5,
        )

        n = sweep.n
        rng = self.rng.fork("record")
        plan = random_corruption(n, self.params.max_corruptions(n), rng.fork("c"))
        inputs = split_inputs(n)

        def plain() -> Any:
            return run_balanced_ba(
                inputs, plan, SnarkSRDS(HashRegistryBase()), self.params,
                rng.fork("run"),
            )

        def recorded() -> Any:
            return record_balanced_ba_script(
                inputs, plan, SnarkSRDS(HashRegistryBase()), self.params,
                rng.fork("run"),
            )

        plain_s = cell(self.host, plain, reps=3)
        recorded_s = cell(self.host, recorded, reps=3)
        self.put("runtime.record_overhead_share", recorded_s / plain_s - 1.0, "ratio")

        self.time(
            "asynchrony.aba_adversarial_s",
            lambda: sweep.leg_aba(NullTracer(), policy="adversarial"), reps=3,
        )
        deliveries = sweep.leg_aba(NullTracer()).deliveries
        self.put("asynchrony.deliveries", deliveries, "count")
        self.put(
            "asynchrony.deliveries_per_s", deliveries / median(legs["aba"]), "1/s"
        )

        self.time(
            "cluster.mesh1w_job_s",
            lambda: sweep.leg_cluster(NullTracer(), workers=1), reps=2,
        )
        self.time("cluster.worker_import_s", _worker_import_s, reps=2)
        # leg_cluster raises on any restart, so reaching here means none.
        self.put("cluster.restarts", 0, "count")

    # -- serve ------------------------------------------------------------------------

    def serve(self) -> None:
        mix = GatewayMix(self.rng.seed, self.workdir, self.smoke)
        (owf, owf_n), (snark, snark_n) = mix.shapes
        seed = mix.warm_seed

        def miss(scheme: str, n: int) -> Callable[[], Any]:
            width = build_tree(n, self.params, self.rng).num_virtual
            rng = Randomness(seed).fork("session")

            def call() -> Any:
                lease = SetupCache().lease(scheme, n, seed)
                return lease.provider(lease.scheme, width, rng)

            return call

        self.time("serve.lease_miss_owf_ms", miss(owf, owf_n), reps=3)
        self.time("serve.lease_miss_snarkhash_ms", miss(snark, snark_n), reps=5)

        cache = SetupCache()
        spec = SessionSpec(n=snark_n, scheme=snark, seed=seed)
        run_decision(spec, cache.lease(snark, snark_n, seed))  # the one miss
        decision_s = self.time(
            "serve.run_decision_s",
            lambda: run_decision(spec, cache.lease(snark, snark_n, seed)), reps=3,
        )
        width = build_tree(snark_n, self.params, self.rng).num_virtual
        session_rng = Randomness(seed).fork("session")
        warm = cache.lease(snark, snark_n, seed)
        self.time(
            "serve.lease_hit_us",
            lambda: cache.lease(snark, snark_n, seed).provider(
                warm.scheme, width, session_rng
            ),
            inner=50,
        )
        if cache.stats()["misses"] != 1:
            raise RuntimeError("lease_hit cell missed the setup cache")

        gateway = GatewayProcess(self.workdir)
        try:
            wire_spec = {"n": snark_n, "scheme": snark, "seed": seed, "repeat": 1}

            def session() -> None:
                reply = run_session(
                    gateway.host, gateway.port,
                    await_timeout=mix.AWAIT_TIMEOUT_S, **wire_spec,
                )
                if not reply.get("ok"):
                    raise RuntimeError(f"idle gateway refused a session: {reply}")

            session()  # the lease miss; the samples below are hits
            session_s = cell(self.host, session, reps=3)
            self.put(
                "serve.roundtrip_overhead_ms", (session_s - decision_s) * 1e3, "ms"
            )
            with GatewayClient(gateway.host, gateway.port) as client:
                self.time("serve.ping_us", client.ping, inner=5)
            self._open_loop(gateway, mix)
            with GatewayClient(gateway.host, gateway.port) as client:
                counters = _prometheus_counters(client.metrics_text())
        finally:
            gateway.close()
        hits = counters.get("repro_gateway_setup_cache_hits_total", 0.0)
        misses = counters.get("repro_gateway_setup_cache_misses_total", 0.0)
        self.put("serve.cache_hit_share", hits / max(hits + misses, 1.0), "ratio")
        self.put(
            "serve.busy_rejects",
            counters.get('repro_gateway_sessions_rejected_total{code="busy"}', 0.0),
            "count",
        )

    def _open_loop(self, gateway: GatewayProcess, mix: GatewayMix) -> None:
        """Seeded Poisson arrivals on the gateway mix, latency from due time.

        Two sender threads (= the gateway's lanes) take arrivals in due
        order; an arrival whose due time passes while both are busy is
        sent late, and its latency still counts from when it was due.
        Ungated: queueing makes these numbers non-linear in host speed.
        """
        draw = random.Random(self.rng.fork("open-loop").seed)
        due, at = [], 0.0
        while True:
            at += draw.expovariate(OPEN_RATE_PER_S)
            if at >= OPEN_SECONDS:
                break
            due.append(at)
        specs = [mix.specs(k)[k % 2] for k in range(len(due))]
        lock = threading.Lock()
        cursor = [0]
        latencies: List[float] = []
        late: List[float] = []
        rejected = [0]
        origin = time.perf_counter() + 0.05

        def sender() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(due):
                    return
                wait = origin + due[index] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                ok = False
                try:
                    with GatewayClient(gateway.host, gateway.port) as client:
                        submitted = client.submit(**specs[index])
                        if submitted.get("ok"):
                            reply = client.await_result(
                                str(submitted["session"]), mix.AWAIT_TIMEOUT_S
                            )
                            ok = bool(reply.get("ok"))
                except Exception:  # noqa: BLE001 - counted as rejected below
                    ok = False
                done = time.perf_counter()
                with lock:
                    late.append(sent - (origin + due[index]))
                    if ok:
                        latencies.append(done - (origin + due[index]))
                    else:
                        rejected[0] += 1

        def probe() -> None:
            threads = [
                threading.Thread(target=sender, daemon=True)
                for _ in range(mix.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=OPEN_SECONDS + 60.0)

        timed, _ = self.host.timed(probe)
        if not latencies:
            raise RuntimeError("open-loop probe completed no request")
        pct = tail_percentile(len(latencies))
        self.put("serve.open_p50_s", percentile(latencies, 50) * timed.factor, "s")
        self.put("serve.open_tail_s", percentile(latencies, pct) * timed.factor, "s")
        self.put("serve.open_late_ms", median(late) * 1e3, "ms")
        self.put("serve.open_rejected_share", rejected[0] / len(due), "ratio")
        self.put("serve.open_achieved_per_s", len(latencies) / timed.raw_s, "1/s")

    # -- obs -----------------------------------------------------------------------------

    def obs(self) -> None:
        n = self.size(64)
        rng = self.rng.fork("flow")
        plan = random_corruption(n, self.params.max_corruptions(n), rng.fork("c"))
        inputs = split_inputs(n)

        def op(flow: bool) -> Callable[[], Any]:
            def call() -> Any:
                metrics = CommunicationMetrics()
                if flow:
                    metrics.attach_flow(FlowLedger())
                return run_balanced_ba(
                    inputs, plan, SnarkSRDS(HashRegistryBase()), self.params,
                    rng.fork("run"), metrics=metrics,
                )

            return call

        off_s = cell(self.host, op(False), reps=2)
        on_s = cell(self.host, op(True), reps=2)
        self.put("obs.flow_overhead_share", on_s / off_s - 1.0, "ratio")


def _worker_import_s() -> None:
    """Cold ``import repro.cluster.worker`` in a fresh interpreter — the
    tax every spawned worker pays before its first control message."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cluster.worker"],
        env=src_env(), check=True, timeout=60.0,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _prometheus_counters(text: str) -> Dict[str, float]:
    """``name{labels}`` → value for every sample line of an exposition."""
    counters: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            counters[name] = float(value)
        except ValueError:
            continue
    return counters


def run_cells(
    host: Host,
    seed: int,
    workdir: Path,
    smoke: bool,
    sweep: Optional[ExecSweep] = None,
    legs: Optional[Dict[str, List[float]]] = None,
) -> Ledger:
    """Every isolated cell of the per-layer ledger."""
    cells = _Cells(host, seed, workdir, smoke)
    cells.crypto()
    cells.utils()
    cells.srds()
    cells.aetree_and_protocols()
    cells.executors(sweep, legs or {})
    cells.serve()
    cells.obs()
    return cells.ledger
