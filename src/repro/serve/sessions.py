"""Gateway sessions: specs, admission control, pipelined repeated BA.

A *session* is one client-submitted unit of agreement work: ``repeat``
back-to-back pi_ba decisions for a fixed ``(n, scheme, seed)``.  The
:class:`SessionManager` admits sessions against a bounded set of lanes
(explicit backpressure — an over-capacity submit gets a structured
reject with a retry-after hint, never a hidden queue), runs the
CPU-bound protocol executions in forked lane processes
(:mod:`repro.serve.lanes`) so concurrent sessions decide on separate
cores while the asyncio gateway stays responsive, and pipelines a
session's repeated decisions through one
:class:`~repro.serve.setup_cache.SetupLease` so only the first decision
on a key in a lane pays SRDS keygen (Corollary 1.2's amortization).

Every completed session returns the agreed value **together with its
per-party bit tallies** — the certificate that the polylog budget held:
the tallies are checked against the analytic ceiling of
:func:`repro.protocols.cost_model.pi_ba_per_party_budget`, and (because
all randomness is seed-derived) they are identical to a one-shot
:func:`~repro.protocols.balanced_ba.run_balanced_ba` of the same
``(workload, scheme, seed)`` — :func:`one_shot_reference` reproduces
that reference and the conformance tests pin the equality.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import GatewayError
from repro.net.adversary import random_corruption
from repro.net.fork import EXIT_GRACE, exit_status
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanLog, flow_tags, recording
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import run_balanced_ba
from repro.protocols.cost_model import pi_ba_per_party_budget
from repro.serve import wire
from repro.serve.lanes import CANCEL, DECISION, RUN, Lane, LaneWork, fork_lane
from repro.serve.setup_cache import (
    SCHEME_LABELS,
    SetupCache,
    SetupLease,
    scheme_for,
)
from repro.utils.randomness import Randomness

#: Supported workloads (the certified-output service of Fig. 3).
WORKLOADS = ("pi-ba",)

#: Input patterns a spec may request.
INPUT_PATTERNS = ("split", "zero", "one")

#: Guard rails on spec fields (loopback service, but garbage in a JSON
#: line must not allocate unbounded work).
MAX_N = 4096
MAX_REPEAT = 10_000


@dataclass(frozen=True)
class SessionSpec:
    """What one client asked the gateway to decide."""

    workload: str = "pi-ba"
    n: int = 16
    scheme: str = "owf"
    seed: int = 2021
    repeat: int = 1
    inputs: str = "split"

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise GatewayError(
                f"unknown workload {self.workload!r} "
                f"(expected one of {WORKLOADS})"
            )
        if self.scheme not in SCHEME_LABELS:
            raise GatewayError(
                f"unknown scheme {self.scheme!r} "
                f"(expected one of {SCHEME_LABELS})"
            )
        if not isinstance(self.n, int) or not 4 <= self.n <= MAX_N:
            raise GatewayError(f"n must be an int in [4, {MAX_N}]")
        if not isinstance(self.seed, int):
            raise GatewayError("seed must be an int")
        if (
            not isinstance(self.repeat, int)
            or not 1 <= self.repeat <= MAX_REPEAT
        ):
            raise GatewayError(f"repeat must be an int in [1, {MAX_REPEAT}]")
        if self.inputs not in INPUT_PATTERNS:
            raise GatewayError(
                f"unknown inputs pattern {self.inputs!r} "
                f"(expected one of {INPUT_PATTERNS})"
            )

    @staticmethod
    def from_wire(payload: Dict[str, Any]) -> "SessionSpec":
        """Build a spec from a ``submit`` request, validating types."""
        fields_in = {}
        for name, kind in (
            ("workload", str), ("n", int), ("scheme", str),
            ("seed", int), ("repeat", int), ("inputs", str),
        ):
            if name in payload and payload[name] is not None:
                value = payload[name]
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise GatewayError(
                        f"field {name!r} must be {kind.__name__}"
                    )
                fields_in[name] = value
        return SessionSpec(**fields_in)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "n": self.n, "scheme": self.scheme,
            "seed": self.seed, "repeat": self.repeat, "inputs": self.inputs,
        }

    def setup_key(self) -> Dict[str, Any]:
        """The (scheme, n, seed-domain) triple the setup cache keys on."""
        return {"scheme": self.scheme, "n": self.n, "seed": self.seed}


def make_inputs(spec: SessionSpec) -> Dict[int, int]:
    """The per-party input vector a spec's pattern denotes."""
    if spec.inputs == "split":
        return {i: i % 2 for i in range(spec.n)}
    value = 0 if spec.inputs == "zero" else 1
    return {i: value for i in range(spec.n)}


def _probe_base_signature_bytes(spec: SessionSpec, material: Any) -> int:
    """Wire size of one base signature under the session's key material."""
    pp = material.public_parameters
    scheme = scheme_for(spec.scheme)
    for virtual_id, signing_key in material.signing_keys.items():
        if signing_key is None:
            continue
        signature = scheme.sign(pp, virtual_id, signing_key, b"gateway-probe")
        if signature is not None:
            return signature.size_bytes()
    return 0


def run_decision(
    spec: SessionSpec,
    lease: SetupLease,
    flow: Optional[FlowLedger] = None,
    span_log: Optional[SpanLog] = None,
) -> Dict[str, Any]:
    """Execute one pi_ba decision for a spec over a setup lease.

    Seed derivation mirrors the one-shot drivers exactly: everything
    descends from ``Randomness(spec.seed)`` via stateless forks, so the
    decision — outputs *and* per-party bit tallies — is a pure function
    of the spec regardless of cache state.

    ``flow``, when given, receives every charge of the decision as
    traffic-matrix cells under ``kind="session"`` (the gateway's wire in
    the flow ledger); ``span_log`` collects the protocol's phase spans
    for the sessions track of a merged timeline.  Neither changes the
    decision or its tallies.
    """
    params = ProtocolParameters()
    rng = Randomness(spec.seed)
    plan = random_corruption(
        spec.n, params.max_corruptions(spec.n), rng.fork("c")
    )
    metrics = CommunicationMetrics()
    if flow is not None:
        metrics.attach_flow(flow)
    with ExitStack() as stack:
        if span_log is not None:
            stack.enter_context(recording(span_log))
        if flow is not None:
            stack.enter_context(flow_tags("session"))
        result = run_balanced_ba(
            make_inputs(spec), plan, lease.scheme, params,
            rng.fork("session"),
            metrics=metrics,
            setup_provider=lease.provider,
        )
    per_party_bits = {
        str(party): metrics.tally_of(party).bits_total
        for party in sorted(metrics.party_ids)
    }
    budget_bits = pi_ba_per_party_budget(
        spec.n, params, result.certificate_bytes,
        _probe_base_signature_bytes(spec, lease.material),
    )
    return {
        "value": result.agreed_value,
        "agreement": result.agreement,
        "validity": result.validity,
        "certificate_bytes": result.certificate_bytes,
        "per_party_bits": per_party_bits,
        "max_bits_per_party": result.metrics.max_bits_per_party,
        "total_bits": result.metrics.total_bits,
        "budget_bits": budget_bits,
        "within_budget": result.metrics.max_bits_per_party <= budget_bits,
        "num_virtual": result.num_virtual,
    }


def one_shot_reference(spec: SessionSpec) -> Dict[str, Any]:
    """The uncached single-invocation reference for a spec.

    Runs the identical derivation on a fresh scheme and a cold one-entry
    cache; gateway sessions must match its value and per-party tallies
    bit for bit (the bench and conformance tests enforce this).
    """
    cache = SetupCache(max_entries=1)
    lease = cache.lease(spec.scheme, spec.n, spec.seed)
    return run_decision(spec, lease)


#: Pluggable per-decision runner (tests inject slow/stub workloads).
DecisionRunner = Callable[[SessionSpec, SetupLease], Dict[str, Any]]


@dataclass
class SessionRecord:
    """One admitted session's lifecycle state."""

    session_id: str
    spec: SessionSpec
    #: Client-supplied (or gateway-minted) trace id — echoed on every
    #: response about this session, correlating client, gateway, and
    #: timeline artifacts.
    trace_id: str = ""
    state: str = "running"  # running | done | failed | cancelled
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    decisions_completed: int = 0
    wall_seconds: Optional[float] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: The lane running the session, and whether it was told to cancel.
    lane: Optional[Lane] = None
    cancel_requested: bool = False

    def summary(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "session": self.session_id,
            "state": self.state,
            "spec": self.spec.to_wire(),
            "decisions_completed": self.decisions_completed,
        }
        if self.trace_id:
            payload["trace"] = self.trace_id
        if self.error is not None:
            payload["error"] = self.error
        return payload


class SessionManager:
    """Admission control + execution for multiplexed BA sessions.

    ``max_sessions`` lanes (:mod:`repro.serve.lanes`) are forked when
    the manager is built, so it must be built on the event loop that
    serves it (docs/gateway.md has the fork rule).  A session runs at once
    on a free lane or not at all: a submit while every lane is busy is
    rejected with ``code="busy"`` and a ``retry_after`` hint sized from
    recent session wall times, so a well-behaved client backs off
    exactly as long as a lane needs to drain.  A session goes to a free
    lane whose cache already holds its ``(scheme, n, seed)`` key, else
    to the least recently used free lane, which pays that key's keygen.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 2,
        retry_after: float = 0.5,
        cache: Optional[SetupCache] = None,
        registry: Optional[MetricsRegistry] = None,
        decision_runner: Optional[DecisionRunner] = None,
        flow: Optional[FlowLedger] = None,
    ) -> None:
        if max_sessions < 1:
            raise GatewayError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self._base_retry_after = retry_after
        self.registry = registry
        # Flow observability: when a ledger is given (and no custom
        # runner overrides it), every decision's charges land in it
        # under kind="session".
        self.flow = flow
        # Never leased here: each lane forks its own copy, and this one
        # counts the hits and misses the lanes report.
        self._cache = cache if cache is not None else SetupCache(
            registry=registry
        )
        if decision_runner is None:
            self._work = LaneWork(self._cache, run_decision, flow is not None)
        else:
            runner = decision_runner

            def decide(spec: SessionSpec, lease: SetupLease,
                       **_observers: Any) -> Dict[str, Any]:
                return runner(spec, lease)

            self._work = LaneWork(self._cache, decide, False)
        self._loop = asyncio.get_running_loop()
        self._records: Dict[str, SessionRecord] = {}
        self._admitting = True
        self._closed = False
        self._next_id = 0
        self._recent_walls: List[float] = []
        self._admitted_counter = None
        self._rejected_counter = None
        self._decisions_counter = None
        self._latency_histogram = None
        self._active_gauge = None
        self._lane_cpu_counter = None
        self._lane_restarts_counter = None
        if registry is not None:
            self._admitted_counter = registry.counter(
                "repro_gateway_sessions_admitted_total",
                "Sessions accepted past admission control",
            )
            self._rejected_counter = registry.counter(
                "repro_gateway_sessions_rejected_total",
                "Sessions rejected with backpressure", ("code",),
            )
            self._decisions_counter = registry.counter(
                "repro_gateway_decisions_total",
                "Completed BA decisions across all sessions",
            )
            self._latency_histogram = registry.histogram(
                "repro_gateway_session_seconds",
                "Wall-clock duration of one completed session",
            )
            self._active_gauge = registry.gauge(
                "repro_gateway_sessions_active",
                "Sessions currently holding a concurrency lane",
            )
            self._lane_cpu_counter = registry.counter(
                "repro_gateway_lane_cpu_seconds_total",
                "CPU seconds lane processes spent running sessions",
            )
            self._lane_restarts_counter = registry.counter(
                "repro_gateway_lane_restarts_total",
                "Lane processes re-forked after one died",
            )
        self._lanes: List[Lane] = [
            self._start_lane(lane_id) for lane_id in range(max_sessions)
        ]

    # -- lanes --------------------------------------------------------------

    def _start_lane(self, lane_id: int) -> Lane:
        lane = fork_lane(lane_id, self._work)
        self._loop.add_reader(lane.conn.fileno(), self._on_lane, lane)
        return lane

    def _on_lane(self, lane: Lane) -> None:
        """Reader callback: one message from a lane, or its death."""
        try:
            message = lane.conn.recv()
        except (EOFError, OSError):
            self._lane_lost(lane)
            return
        record = lane.session
        assert record is not None, "a lane spoke between sessions"
        if message[0] == DECISION:
            _, charges = message
            record.decisions_completed += 1
            if charges is not None and self.flow is not None:
                for charge in charges:
                    self.flow.charge(*charge)
            return
        report = message[1]
        lane.session = None
        lane.keys = frozenset(report["keys"])
        self._cache.count(hits=report["hits"], misses=report["misses"])
        if self._lane_cpu_counter is not None:
            self._lane_cpu_counter.inc(report["cpu_s"])
        if report["error"] is not None:
            record.state, record.error = "failed", report["error"]
        else:
            record.state = "cancelled" if report["cancelled"] else "done"
            record.result = report["result"]
        record.wall_seconds = report["session_s"]
        self._finish(record)

    def _lane_lost(self, lane: Lane) -> None:
        """A lane died: fail its session, reap it, fork its successor."""
        self._loop.remove_reader(lane.conn.fileno())
        lane.conn.close()
        status = exit_status(lane.process)
        lane.process.kill()
        lane.process.join()
        if lane.session is not None:
            record, lane.session = lane.session, None
            record.state = "failed"
            record.error = f"lane {lane.lane_id} {status}"
            self._finish(record)
        if self._closed:
            return
        if self._lane_restarts_counter is not None:
            self._lane_restarts_counter.inc()
        self._lanes[lane.lane_id] = self._start_lane(lane.lane_id)

    def _finish(self, record: SessionRecord) -> None:
        if self._active_gauge is not None:
            self._active_gauge.set(self.active)
        if record.wall_seconds is not None:
            self._recent_walls.append(record.wall_seconds)
            del self._recent_walls[:-8]
            if self._latency_histogram is not None:
                self._latency_histogram.observe(record.wall_seconds)
        if self._decisions_counter is not None:
            self._decisions_counter.inc(record.decisions_completed)
        record.done_event.set()

    # -- admission ----------------------------------------------------------

    @property
    def active(self) -> int:
        """Sessions currently holding a lane."""
        return sum(lane.session is not None for lane in self._lanes)

    def stop_admitting(self) -> None:
        """Graceful-shutdown step 1: every further submit is rejected."""
        self._admitting = False

    def retry_after_hint(self) -> float:
        """Backpressure hint: ~half a recent session, floored at base."""
        if self._recent_walls:
            recent = sum(self._recent_walls) / len(self._recent_walls)
            return max(self._base_retry_after, round(recent / 2, 3))
        return self._base_retry_after

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Admit (or reject) one session; returns the wire response."""
        if not self._admitting:
            if self._rejected_counter is not None:
                self._rejected_counter.inc(code="shutting-down")
            return wire.reject(
                "shutting-down", "gateway is draining; not admitting"
            )
        try:
            spec = SessionSpec.from_wire(payload)
        except GatewayError as exc:
            return wire.reject("bad-request", str(exc))
        free = [lane for lane in self._lanes if lane.session is None]
        if not free:
            if self._rejected_counter is not None:
                self._rejected_counter.inc(code="busy")
            return wire.reject(
                "busy",
                f"all {self.max_sessions} session lanes are busy",
                retry_after=self.retry_after_hint(),
            )
        self._next_id += 1
        # Cross-process trace propagation: a client may stamp its own
        # trace id on the submit; otherwise the gateway mints a
        # deterministic one from the session counter and spec.
        trace = payload.get("trace")
        trace_id = (
            str(trace)
            if isinstance(trace, str) and trace
            else f"gateway-s{self._next_id}-{spec.workload}-n{spec.n}"
        )
        key = (spec.scheme, spec.n, spec.seed)
        lane = min(
            free, key=lambda lane: (key not in lane.keys, lane.last_used)
        )
        record = SessionRecord(
            session_id=f"s-{self._next_id}", spec=spec, trace_id=trace_id,
            lane=lane,
        )
        self._records[record.session_id] = record
        lane.session, lane.last_used = record, self._next_id
        if self._admitted_counter is not None:
            self._admitted_counter.inc()
        if self._active_gauge is not None:
            self._active_gauge.set(self.active)
        admitted = time.monotonic()
        self._tell(lane, (RUN, record.session_id, spec, admitted))
        return wire.ok(
            session=record.session_id,
            state=record.state,
            setup_key=spec.setup_key(),
            trace=record.trace_id,
        )

    @staticmethod
    def _tell(lane: Lane, order: Any) -> None:
        try:
            lane.conn.send(order)
        except OSError:
            pass  # the lane is dead; its EOF fails the session

    # -- client-facing queries ----------------------------------------------

    def _record_or_none(self, session_id: str) -> Optional[SessionRecord]:
        return self._records.get(session_id)

    async def await_result(
        self, session_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        record = self._record_or_none(session_id)
        if record is None:
            return wire.reject(
                "unknown-session", f"no session {session_id!r}"
            )
        if timeout is not None:
            try:
                await asyncio.wait_for(record.done_event.wait(), timeout)
            except asyncio.TimeoutError:
                return wire.reject(
                    "timeout",
                    f"session {session_id} still {record.state} "
                    f"after {timeout}s",
                    retry_after=self.retry_after_hint(),
                )
        else:
            await record.done_event.wait()
        return self.result_response(record)

    def result_response(self, record: SessionRecord) -> Dict[str, Any]:
        if record.state == "failed":
            return wire.reject(
                "failed", record.error or "session failed"
            )
        return wire.ok(**record.summary(), result=record.result)

    def cache_stats(self) -> Dict[str, int]:
        """Lease hits and misses over every lane, and the setup domains
        the lanes hold between them (each lane caches its own)."""
        stats = self._cache.stats()
        stats["entries"] = sum(len(lane.keys) for lane in self._lanes)
        stats["max_entries"] *= len(self._lanes)
        return stats

    def status(
        self, session_id: Optional[str] = None
    ) -> Dict[str, Any]:
        if session_id is not None:
            record = self._record_or_none(session_id)
            if record is None:
                return wire.reject(
                    "unknown-session", f"no session {session_id!r}"
                )
            return wire.ok(**record.summary())
        by_state: Dict[str, int] = {}
        for record in self._records.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        payload = wire.ok(
            admitting=self._admitting,
            active=self.active,
            max_sessions=self.max_sessions,
            sessions=by_state,
            lanes=[
                {
                    "lane": lane.lane_id,
                    "pid": lane.process.pid,
                    "session": (
                        lane.session.session_id
                        if lane.session is not None else None
                    ),
                    "keys": len(lane.keys),
                }
                for lane in self._lanes
            ],
            setup_cache=self.cache_stats(),
            retry_after=self.retry_after_hint(),
        )
        if self.flow is not None:
            payload["flow"] = self.flow.summary()
        return payload

    def cancel(self, session_id: str) -> Dict[str, Any]:
        record = self._record_or_none(session_id)
        if record is None:
            return wire.reject(
                "unknown-session", f"no session {session_id!r}"
            )
        self._request_cancel(record)
        return wire.ok(session=session_id, state=record.state)

    def _request_cancel(self, record: SessionRecord) -> None:
        """Ask the session's lane to stop before its next decision."""
        lane = record.lane
        if record.cancel_requested or lane is None or lane.session is not record:
            return
        record.cancel_requested = True
        self._tell(lane, (CANCEL, record.session_id))

    # -- shutdown -----------------------------------------------------------

    async def drain(self, deadline: float) -> bool:
        """Wait for in-flight sessions; escalate to cooperative cancel.

        Phase 1 waits up to ``deadline`` seconds for every session to
        finish on its own.  Phase 2 sends the stragglers' lanes a
        cancel (honored between pipelined decisions) and waits one more
        deadline.  Returns ``True`` when nothing is left in flight.
        """
        for escalate in (False, True):
            running = [
                record for record in self._records.values()
                if not record.done_event.is_set()
            ]
            if not running:
                return True
            if escalate:
                for record in running:
                    self._request_cancel(record)
            waiters = [
                asyncio.ensure_future(record.done_event.wait())
                for record in running
            ]
            await asyncio.wait(waiters, timeout=deadline)
            for waiter in waiters:
                waiter.cancel()
        return all(
            record.done_event.is_set() for record in self._records.values()
        )

    def close(self) -> None:
        """Stop every lane (after :meth:`drain`).

        Closing a lane's socket is its EOF: an idle lane exits at once,
        and one still deciding is killed after :data:`EXIT_GRACE`; a
        session it held fails.
        """
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            self._loop.remove_reader(lane.conn.fileno())
            lane.conn.close()
        for lane in self._lanes:
            lane.process.join(EXIT_GRACE)
            lane.process.kill()
            lane.process.join()
            if lane.session is not None:
                record, lane.session = lane.session, None
                record.state, record.error = "failed", "gateway closed"
                self._finish(record)
