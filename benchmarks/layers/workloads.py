"""The four workloads and the closed loop that drives them.

Every workload is a closed loop: a caller issues its next op only after
the previous one returned.  Op counts are fixed (scaled by ``--seconds``
only), so the tail percentile and ``max_bits_per_party`` are a function
of the seed alone.  An op's *inputs* derive from the seed through
``Randomness(seed).fork(...)``; ``src/`` code only ever sees the inputs.

Why these four (``spec.WORKLOAD_WHY`` has a line each): every workload
isolates a different set of layers, so that a change to one layer has
one workload that exercises it and at least one that must read "no
change".
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from benchmarks.layers import RUN_SECONDS
from benchmarks.layers.calib import Host, Timed
from benchmarks.layers.trace import HARNESS

from repro.asynchrony.driver import run_aba
from repro.campaign.invariants import check_aba_invariants, check_ba_invariants
from repro.cluster.drivers import record_balanced_ba_script
from repro.cluster.job import replay_job
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.net.adversary import random_corruption
from repro.obs.spans import SpanLog, recording
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import run_balanced_ba
from repro.protocols.cost_model import pi_ba_per_party_budget
from repro.runtime.replay import (
    apply_func_ops,
    build_replay_parties,
    replay_over_simulator,
    tallies_equal,
)
from repro.runtime.synchronizer import run_parties
from repro.serve.client import GatewayClient, run_session
from repro.serve.sessions import SessionSpec, one_shot_reference, run_decision
from repro.serve.setup_cache import SetupCache
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

#: Longest one step may take before it is counted failed.
OP_TIMEOUT_S = 30.0

#: A workload stops issuing ops this long after it started, so a sick
#: host fails ops instead of overrunning the driver's 180 s limit.
WORKLOAD_DEADLINE_S = 140.0


class OpTimeout(Exception):
    """A step overran :data:`OP_TIMEOUT_S` (or the workload deadline)."""


@contextmanager
def op_timeout(seconds: float) -> Iterator[None]:
    """Raise :class:`OpTimeout` in the main thread after ``seconds``."""

    def _expired(_signum: int, _frame: Any) -> None:
        raise OpTimeout(f"step exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Step:
    """What one loop iteration measured (one op; two for a gateway batch).

    ``latencies`` are the per-op normalised seconds, ``wall`` the timed
    regions whose sum is the step's wall and CPU.  ``failures`` holds one
    line per failed op; a failed op contributes no latency sample.
    """

    latencies: List[float]
    raw_latencies: List[float]
    wall: List[Timed]
    max_bits: int
    attempted: int
    failures: List[str] = field(default_factory=list)
    legs: Dict[str, float] = field(default_factory=dict)
    over_budget: int = 0


def split_inputs(n: int) -> Dict[int, int]:
    return {i: i % 2 for i in range(n)}


def src_env() -> Dict[str, str]:
    """The environment for a child interpreter that must import ``repro``."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _probe_base_signature_bytes(scheme: Any, n: int) -> int:
    """Wire size of one base signature (an input to the bit budget)."""
    rng = Randomness(0).fork("layers/base-sig-probe")
    pp = scheme.setup(n, rng.fork("setup"))
    _, signing_key = scheme.keygen(pp, rng.fork("keygen"))
    return scheme.sign(pp, 0, signing_key, b"layers-probe").size_bytes()


class Workload:
    """Interface of one workload (see the four subclasses)."""

    name = ""
    #: Concurrent callers of the closed loop.
    clients = 1
    #: Loop iterations at ``--seconds == RUN_SECONDS`` and at smoke size.
    base_steps = 0
    smoke_steps = 3
    #: Plain/traced step pairs of the traced pass.
    trace_pairs = 3
    ops_per_step = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.root = Randomness(seed).fork(self.name)
        #: (bracket factor, op raw seconds, SpanLog) of traced pi_ba runs.
        self.phase_samples: List[Any] = []

    def steps(self, seconds: float) -> int:
        if self.smoke:
            return self.smoke_steps
        return max(3, round(self.base_steps * seconds / RUN_SECONDS))

    def setup(self, host: Host) -> None:
        """Build everything the first op needs (PKI, scripts, servers)."""

    def choose_inputs(self) -> None:
        """Pick typical inputs by trying candidates drawn from the seed.

        Runs after :meth:`setup`; the time it takes is the benchmark
        generating inputs, not the program setting up, and is left out of
        ``setup_s``.
        """

    def step(self, k: int, host: Host, tracer: Any) -> Step:
        raise NotImplementedError

    def op_inputs(self, k: int) -> Any:
        """A printable description of step ``k``'s inputs (determinism tests)."""
        raise NotImplementedError

    def probe_phases(self, host: Host) -> List[Any]:
        """Fig. 3 phase intervals of the pi_ba execution this workload
        performs, as ``(factor, op raw seconds, SpanLog)`` samples."""
        return self.phase_samples

    def close(self, host: Host) -> None:
        """Release processes and files; safe to call twice."""


# -- pi_ba in the caller's process ---------------------------------------------


class PiBaWorkload(Workload):
    """``run_balanced_ba`` called back to back by one caller."""

    n = 0
    smoke_n = 8
    #: Whether an op over ``pi_ba_per_party_budget`` is a failed op.  At
    #: the seed commit hash-base SnarkSRDS already exceeds that ceiling
    #: from n=32 up (measured ÷ ceiling: 0.74 at n=16, 1.41 at n=32,
    #: 1.97 at n=64), so there the excess is counted and reported
    #: (``over_budget_ops``) instead of failing every op; the gated
    #: ``max_bits_per_party`` still catches any growth.
    enforce_budget = True

    def scheme(self) -> Any:
        raise NotImplementedError

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        if smoke:
            self.n = self.smoke_n
        self.params = ProtocolParameters()
        self.inputs = split_inputs(self.n)
        self.base_signature_bytes = 0

    def setup(self, host: Host) -> None:
        self.base_signature_bytes = _probe_base_signature_bytes(
            self.scheme(), self.n
        )

    def _rngs(self, k: int) -> Randomness:
        return self.root.fork(f"op-{k}")

    def op_inputs(self, k: int) -> Any:
        rng = self._rngs(k)
        plan = random_corruption(
            self.n, self.params.max_corruptions(self.n), rng.fork("corruption")
        )
        return (sorted(plan.corrupted), rng.fork("run").seed)

    def step(self, k: int, host: Host, tracer: Any) -> Step:
        rng = self._rngs(k)
        log = SpanLog(clock=time.perf_counter) if tracer.enabled else None

        def op() -> Any:
            with tracer.span("op", HARNESS, op=f"{self.name}/{k}"):
                with tracer.span("random_corruption", "net"):
                    plan = random_corruption(
                        self.n,
                        self.params.max_corruptions(self.n),
                        rng.fork("corruption"),
                    )
                with tracer.span("scheme", "srds"):
                    scheme = self.scheme()
                with tracer.span("run_balanced_ba", "protocols") as call:
                    if log is None:
                        result = run_balanced_ba(
                            self.inputs, plan, scheme, self.params,
                            rng.fork("run"),
                        )
                    else:
                        with recording(log):
                            result = run_balanced_ba(
                                self.inputs, plan, scheme, self.params,
                                rng.fork("run"),
                            )
                if log is not None:
                    tracer.adopt_phases(log, call)
            return plan, result

        timed, (plan, result) = host.timed(op)
        if log is not None:
            self.phase_samples.append((timed.factor, timed.raw_s, log))
        measured = result.metrics.max_bits_per_party
        violations = check_ba_invariants(
            self.inputs,
            result.outputs,
            plan.honest,
            measured_bits=measured,
            budget_bits=pi_ba_per_party_budget(
                self.n, self.params,
                max(result.certificate_bytes, 1),
                self.base_signature_bytes,
            ),
        )
        over_budget = [v for v in violations if v.name == "bits-budget"]
        if not self.enforce_budget:
            violations = [v for v in violations if v not in over_budget]
        return Step(
            latencies=[] if violations else [timed.s],
            raw_latencies=[] if violations else [timed.raw_s],
            wall=[timed],
            max_bits=measured,
            attempted=1,
            failures=(
                [f"op {k}: " + "; ".join(map(str, violations))]
                if violations else []
            ),
            over_budget=len(over_budget),
        )


class PiBaSnarkHash(PiBaWorkload):
    name = "piba-snarkhash-n64"
    n = 64
    base_steps = 40
    trace_pairs = 6
    enforce_budget = False

    def scheme(self) -> Any:
        return SnarkSRDS(HashRegistryBase())


class PiBaSchnorr(PiBaWorkload):
    name = "piba-schnorr-n8"
    n = 8
    base_steps = 20

    def scheme(self) -> Any:
        return SnarkSRDS()


# -- one recorded script over every executor -------------------------------------


class ExecSweep(Workload):
    """Five legs per op: four executors replaying one script, plus ABA.

    Both inputs are *typical* draws from the seed (:meth:`choose_inputs`),
    so that one ``--seed`` measures the same amount of work as the next: a
    script's ``max_bits_per_party`` varies by ±10 % with the tree
    assignment, and MMR14 decides after a coin-dependent number of rounds
    (one for half the seeds, five for a few).
    """

    name = "exec-sweep-n32"
    base_steps = 20
    LEGS = ("simulator", "runtime-local", "runtime-tcp", "cluster-mesh2w", "aba")
    #: Scripts recorded from the seed (set-up records the first); the one
    #: with the median ``max_bits_per_party`` is replayed.
    SCRIPT_CANDIDATES = 3
    #: The ABA instance is the seed's first fork that decides in this many
    #: rounds — the expectation under a fair common coin.
    ABA_ROUNDS = 2

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.n = 16 if smoke else 32
        self.params = ProtocolParameters()
        self.script: Any = None
        self.reference: Any = None
        self.aba_seed = 0

    def op_inputs(self, k: int) -> Any:
        """Every op replays the same script and ABA instance; what the
        seed decides is the pool both are picked from."""
        return (
            [self.root.fork(f"record-{i}").seed for i in range(self.SCRIPT_CANDIDATES)],
            self.root.fork("aba-0").seed,
        )

    def record(self, candidate: int = 0) -> Any:
        """Run pi_ba against a recording ledger: ``(reference, script)``."""
        rng = self.root.fork(f"record-{candidate}")
        plan = random_corruption(
            self.n, self.params.max_corruptions(self.n), rng.fork("corruption")
        )
        return record_balanced_ba_script(
            split_inputs(self.n), plan, SnarkSRDS(HashRegistryBase()),
            self.params, rng.fork("run"),
        )

    def setup(self, host: Host) -> None:
        self.reference, self.script = self.record(0)

    def choose_inputs(self) -> None:
        recorded = [(self.reference, self.script)] + [
            self.record(i) for i in range(1, self.SCRIPT_CANDIDATES)
        ]
        recorded.sort(key=lambda pair: pair[0].metrics.max_bits_per_party)
        self.reference, self.script = recorded[len(recorded) // 2]
        for i in range(64):
            self.aba_seed = self.root.fork(f"aba-{i}").seed
            if run_aba(self.n, seed=self.aba_seed).rounds == self.ABA_ROUNDS:
                return
        raise RuntimeError(f"no fork of the seed decides in {self.ABA_ROUNDS} rounds")

    def probe_phases(self, host: Host) -> List[Any]:
        """One set-up recording again, bracketed and under a SpanLog."""
        log = SpanLog(clock=time.perf_counter)

        def probe() -> None:
            with recording(log):
                self.record()

        timed, _ = host.timed(probe)
        return [(timed.factor, timed.raw_s, log)]

    # Each leg returns (ledger, outputs-or-None); the ledger has the
    # script's hybrid charges applied so it is comparable with the others.

    def leg_simulator(self, tracer: Any) -> Any:
        with tracer.span("replay_over_simulator", "net"):
            return replay_over_simulator(self.script, self.n), None

    def _leg_runtime(self, tracer: Any, transport: str) -> Any:
        with tracer.span("build_replay_parties", "runtime"):
            parties = build_replay_parties(self.script, self.n)
        with tracer.span(f"run_parties[{transport}]", "runtime"):
            result = run_parties(parties, transport=transport)
        with tracer.span("apply_func_ops", "runtime"):
            apply_func_ops(self.script, result.metrics)
        return result.metrics, result.outputs

    def leg_runtime_local(self, tracer: Any) -> Any:
        return self._leg_runtime(tracer, "local")

    def leg_runtime_tcp(self, tracer: Any) -> Any:
        return self._leg_runtime(tracer, "tcp")

    def leg_cluster(self, tracer: Any, workers: int = 2) -> Any:
        run_dir = self.workdir / f"cluster-{workers}w"
        try:
            with tracer.span("replay_job", "cluster"):
                job = replay_job(self.script, self.n)
            with tracer.span(f"ClusterSupervisor.run[{workers}w]", "cluster"):
                # run() reaps its workers in its own `finally`.
                result = ClusterSupervisor(
                    job, ClusterConfig(num_workers=workers), run_dir=run_dir
                ).run()
            with tracer.span("apply_func_ops", "runtime"):
                apply_func_ops(self.script, result.metrics)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if result.restarts:
            raise RuntimeError(f"cluster restarted {result.restarts} workers")
        return result.metrics, result.outputs

    def leg_aba(self, tracer: Any, policy: str = "latency") -> Any:
        with tracer.span(f"run_aba[{policy}]", "asynchrony"):
            return run_aba(self.n, seed=self.aba_seed, policy=policy)

    def step(self, k: int, host: Host, tracer: Any) -> Step:
        timings: Dict[str, Timed] = {}
        results: Dict[str, Any] = {}
        legs: Dict[str, Callable[[Any], Any]] = {
            "simulator": self.leg_simulator,
            "runtime-local": self.leg_runtime_local,
            "runtime-tcp": self.leg_runtime_tcp,
            "cluster-mesh2w": self.leg_cluster,
            "aba": self.leg_aba,
        }
        for leg, call in legs.items():

            def traced(leg: str = leg, call: Callable[[Any], Any] = call) -> Any:
                with tracer.span(f"leg:{leg}", HARNESS, op=f"{self.name}/{k}"):
                    return call(tracer)

            timings[leg], results[leg] = host.timed(traced)

        problems: List[str] = []
        party_ids = range(self.n)
        base_ledger, _ = results["simulator"]
        outputs = [results[leg][1] for leg in self.LEGS[1:4]]
        for leg in self.LEGS[1:4]:
            if not tallies_equal(base_ledger, results[leg][0], party_ids):
                problems.append(f"{leg} tallies differ from simulator")
        if any(out != outputs[0] for out in outputs[1:]):
            problems.append("replay outputs differ between executors")
        replay_bits = base_ledger.max_bits_per_party
        if replay_bits != self.reference.metrics.max_bits_per_party:
            problems.append("replay max_bits_per_party differs from recording")
        aba = results["aba"]
        corrupted = set(aba.corrupted)
        honest = [p for p in party_ids if p not in corrupted]
        problems.extend(
            str(v) for v in check_aba_invariants(aba.inputs, aba.outputs, honest)
        )
        return Step(
            latencies=[] if problems else [sum(t.s for t in timings.values())],
            raw_latencies=(
                [] if problems else [sum(t.raw_s for t in timings.values())]
            ),
            wall=list(timings.values()),
            # pi_ba's ledger — the paper's quantity, not the ABA leg's.
            max_bits=replay_bits,
            attempted=1,
            failures=[f"op {k}: " + "; ".join(problems)] if problems else [],
            legs={leg: t.s for leg, t in timings.items()},
        )


# -- the gateway under a two-client mix -------------------------------------------


class GatewayProcess:
    """A real ``python -m repro serve run`` subprocess, always reaped."""

    def __init__(self, workdir: Path, max_sessions: int = 2) -> None:
        self.port_file = workdir / "gateway.port"
        self.port_file.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "run",
                "--port-file", str(self.port_file),
                "--max-sessions", str(max_sessions),
            ],
            env=src_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.host = "127.0.0.1"
        self.port = 0
        try:
            self.port = self._await_port(timeout=30.0)
        except BaseException:
            self.close()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"gateway exited with {self.process.returncode} at boot"
                )
            try:
                text = self.port_file.read_text().strip()
            except OSError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.005)
        raise RuntimeError("gateway did not publish its port in time")

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        """Ask for a drain, then make sure the process is gone."""
        if self.process.poll() is None and self.port:
            try:
                with GatewayClient(self.host, self.port, timeout=5.0) as client:
                    client.shutdown()
                self.process.wait(timeout=10.0)
            except Exception:  # noqa: BLE001 - any failure falls through to kill
                pass
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.port_file.unlink(missing_ok=True)


class GatewayMix(Workload):
    """Two clients in lock-step batches against a live gateway."""

    name = "gateway-mix"
    clients = 2
    base_steps = 50
    trace_pairs = 10
    ops_per_step = 2
    #: Which batches of every five submit a never-seen seed (lease miss →
    #: keygen).  Only the OWF request of a cold batch is slow (snark-hash
    #: keygen costs 5 ms), so two cold batches in five put a fifth of the
    #: samples in the cold mode and p90 at its middle; one in five would
    #: leave p90 on the boundary between the modes.
    COLD_OF_FIVE = (2, 4)
    AWAIT_TIMEOUT_S = 20.0

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        super().__init__(seed, workdir, smoke)
        self.shapes = (
            [("owf", 8), ("snark-hash", 16)] if smoke
            else [("owf", 16), ("snark-hash", 32)]
        )
        self.warm_seed = self.root.fork("warm").seed % 2**31
        self.gateway: Optional[GatewayProcess] = None
        self.references: List[Dict[str, Any]] = []

    def batch_seed(self, k: int) -> int:
        if k % 5 in self.COLD_OF_FIVE:
            return self.root.fork(f"cold-{k}").seed % 2**31
        return self.warm_seed

    def specs(self, k: int) -> List[Dict[str, Any]]:
        seed = self.batch_seed(k)
        return [
            {"n": n, "scheme": scheme, "seed": seed, "repeat": 1}
            for scheme, n in self.shapes
        ]

    def op_inputs(self, k: int) -> Any:
        return self.specs(k)

    def setup(self, host: Host) -> None:
        self.gateway = GatewayProcess(self.workdir)
        # os.times() credits a child's CPU only once it is reaped.
        host.watch_pid(self.gateway.pid)
        self.references = [
            one_shot_reference(SessionSpec(**spec)) for spec in self.specs(0)
        ]

    def session(self, spec: Dict[str, Any], tracer: Any, op: str) -> Dict[str, Any]:
        """One request as the client sees it: submit, then await."""
        assert self.gateway is not None
        host, port = self.gateway.host, self.gateway.port
        if not tracer.enabled:
            return run_session(
                host, port, await_timeout=self.AWAIT_TIMEOUT_S, **spec
            )
        # The traced pass spells run_session out so submit and await get
        # their own spans; the calls are the same.
        with tracer.span("op", HARNESS, op=op):
            with tracer.span("GatewayClient", "serve"):
                client = GatewayClient(host, port)
            with client:
                with tracer.span("submit", "serve"):
                    submitted = client.submit_with_retry(**spec)
                if not submitted.get("ok"):
                    return submitted
                with tracer.span("await", "serve"):
                    return client.await_result(
                        str(submitted["session"]), self.AWAIT_TIMEOUT_S
                    )

    def probe_phases(self, host: Host) -> List[Any]:
        """One warm in-process ``run_decision`` of the snark-hash spec —
        the server's phases cannot be seen from the client side."""
        spec = SessionSpec(**self.specs(0)[1])
        cache = SetupCache()

        def lease() -> Any:
            return cache.lease(spec.scheme, spec.n, spec.seed)

        run_decision(spec, lease())
        log = SpanLog(clock=time.perf_counter)
        timed, _ = host.timed(run_decision, spec, lease(), span_log=log)
        return [(timed.factor, timed.raw_s, log)]

    def check_reply(self, k: int, index: int, reply: Any) -> Optional[str]:
        """The first output-check failure of one reply, or ``None``."""
        if isinstance(reply, BaseException):
            return f"{type(reply).__name__}: {reply}"
        if not reply.get("ok") or reply.get("state") != "done":
            return f"non-ok reply: {reply.get('code') or reply.get('state')}"
        result = reply["result"]
        scheme = self.shapes[index][0]
        if not (result["agreement"] and result["validity"]):
            return "agreement/validity violated"
        # See PiBaWorkload.enforce_budget: the ceiling only holds for the
        # OWF client at these sizes.
        if scheme == "owf" and not result["within_budget"]:
            return "max_bits_per_party over the analytic budget"
        if self.batch_seed(k) == self.warm_seed:
            reference = self.references[index]
            if result["value"] != reference["value"]:
                return "value differs from one_shot_reference"
            if result["per_party_bits"] != reference["per_party_bits"]:
                return "per_party_bits differ from one_shot_reference"
        return None

    def step(self, k: int, host: Host, tracer: Any) -> Step:
        specs = self.specs(k)
        replies: List[Any] = [None] * len(specs)
        raws = [0.0] * len(specs)

        def client(index: int) -> None:
            started = time.perf_counter()
            try:
                replies[index] = self.session(
                    specs[index], tracer, f"{self.name}/{k}.{index}"
                )
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                replies[index] = exc
            raws[index] = time.perf_counter() - started

        def batch() -> None:
            threads = [
                threading.Thread(target=client, args=(index,), daemon=True)
                for index in range(len(specs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        timed, _ = host.timed(batch)
        latencies, raw_latencies, failures = [], [], []
        max_bits = over_budget = 0
        for index, reply in enumerate(replies):
            problem = self.check_reply(k, index, reply)
            if problem is not None:
                failures.append(f"op {k}.{index}: {problem}")
                continue
            latencies.append(raws[index] * timed.factor)
            raw_latencies.append(raws[index])
            max_bits = max(max_bits, reply["result"]["max_bits_per_party"])
            over_budget += not reply["result"]["within_budget"]
        return Step(
            latencies=latencies,
            raw_latencies=raw_latencies,
            wall=[timed],
            max_bits=max_bits,
            attempted=len(specs),
            failures=failures,
            over_budget=over_budget,
        )

    def close(self, host: Host) -> None:
        if self.gateway is not None:
            host.unwatch_pid(self.gateway.pid)
            self.gateway.close()
            self.gateway = None


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (PiBaSnarkHash, PiBaSchnorr, ExecSweep, GatewayMix)
}


# -- the closed loop ----------------------------------------------------------------


@dataclass
class LoopResult:
    """Everything one pass over a workload's steps measured."""

    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    max_bits: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    legs: Dict[str, List[float]] = field(default_factory=dict)
    over_budget: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, step: Step) -> None:
        self.latencies.extend(step.latencies)
        self.raw_latencies.extend(step.raw_latencies)
        self.wall_s += sum(t.s for t in step.wall)
        self.raw_wall_s += sum(t.raw_s for t in step.wall)
        self.cpu_s += sum(t.cpu_s for t in step.wall)
        self.max_bits = max(self.max_bits, step.max_bits)
        self.attempted += step.attempted
        self.failures.extend(step.failures)
        self.over_budget += step.over_budget
        for leg, value in step.legs.items():
            self.legs.setdefault(leg, []).append(value)

    def fail(self, workload: Workload, k: int, reason: str) -> None:
        self.attempted += workload.ops_per_step
        self.failures.extend(
            f"op {k}: {reason}" for _ in range(workload.ops_per_step)
        )


def run_step(
    workload: Workload,
    k: int,
    host: Host,
    tracer: Any,
    into: LoopResult,
    deadline: float,
) -> None:
    """One loop iteration; every way an op can fail lands in ``into``."""
    budget = min(OP_TIMEOUT_S, deadline - time.monotonic())
    if budget <= 0:
        into.fail(workload, k, "workload deadline exhausted")
        return
    try:
        with op_timeout(budget):
            step = workload.step(k, host, tracer)
    except OpTimeout as exc:
        into.fail(workload, k, str(exc))
    except Exception:  # noqa: BLE001 - the loop must outlive any failing op
        into.fail(workload, k, traceback.format_exc(limit=3).strip())
    else:
        into.add(step)
