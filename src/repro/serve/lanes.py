"""Gateway session lanes: one forked process per concurrent session.

A *lane* is a child process the :class:`~repro.serve.sessions.SessionManager`
forks once, through :func:`repro.net.fork.fork_child`, when it is built.
The lane inherits its own copy of the manager's
:class:`~repro.serve.setup_cache.SetupCache` and decision function, and
then serves one session at a time for as long as the gateway lives, so
``max_sessions`` sessions decide on as many cores instead of taking
turns on one interpreter lock.

The gateway and a lane talk over a socketpair (a
``multiprocessing.Pipe``) that the gateway's event loop watches::

    gateway → lane   (RUN, session id, spec, admitted)   start a session
                     (CANCEL, session id)                stop it between
                                                         decisions
    lane → gateway   (DECISION, charges)                 one per decision
                     (END, report)                       result, timings,
                                                         lease hits/misses

``charges`` is ``None`` unless the gateway keeps a flow ledger; then it
is the decision's flow charges, call for call, which the gateway
replays into its own ledger.  A lane ends when its socket does: the
gateway hanging up (or dying) is EOF, and the lane exits 0.

Nothing protocol-visible reads a clock here; the timings a lane reports
(``queue_s``, ``compute_s``, ``cpu_s``, per-decision walls) are
observability only.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.net.fork import fork_child
from repro.obs.flow import FlowLedger
from repro.serve.setup_cache import SetupCache, SetupKey

#: Gateway → lane orders and lane → gateway replies.
RUN, CANCEL = "run", "cancel"
DECISION, END = "decision", "end"

#: One flow charge, as :meth:`FlowLedger.charge` takes its arguments.
Charge = Tuple[int, str, int, int, int, str, int]


class ChargeLog(FlowLedger):
    """A lane's flow ledger: it keeps every charge verbatim, so replaying
    them into the gateway's ledger makes exactly the calls an in-process
    decision would have made — cells, evictions and histograms alike."""

    def __init__(self) -> None:
        super().__init__()
        self.charges: List[Charge] = []

    def charge(self, round_index: int, phase: str, src: int, dst: int,
               bits: int, kind: str = "wire", frames: int = 1) -> None:
        self.charges.append((round_index, phase, src, dst, bits, kind, frames))


@dataclass(frozen=True)
class LaneWork:
    """What every lane inherits from the manager that forks it."""

    cache: SetupCache
    #: ``decide(spec, lease, flow=...)`` — one decision.
    decide: Callable[..., Dict[str, Any]]
    #: Ship each decision's flow charges home.
    flow: bool


@dataclass
class Lane:
    """The gateway's handle on one lane process."""

    lane_id: int
    process: BaseProcess
    conn: Connection
    #: The setup domains the lane's cache held when its last session ended.
    keys: FrozenSet[SetupKey] = frozenset()
    #: The session record it is running, if any.
    session: Optional[Any] = None
    #: Admission count at its last session (least recently used goes first).
    last_used: int = 0


def fork_lane(lane_id: int, work: LaneWork) -> Lane:
    """Fork one lane; its end of the socketpair stays in the child only
    (``fork_child`` drops the gateway's other sockets there)."""
    conn, child_end = multiprocessing.Pipe()
    process = fork_child(
        f"gateway-lane-{lane_id}", None, lambda: None,
        lane_main, child_end, lane_id, work, keep=(child_end.fileno(),),
    )
    child_end.close()
    return Lane(lane_id=lane_id, process=process, conn=conn)


def lane_main(conn: Connection, lane_id: int, work: LaneWork) -> int:
    """A lane's whole life: serve RUN orders until the gateway hangs up."""
    # SIGINT/SIGTERM make the gateway drain, which needs its lanes; a
    # lane leaves when its socket closes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        while True:
            order = conn.recv()
            # A CANCEL that crossed its session's END is stale: dropped.
            if order[0] == RUN:
                _serve(conn, lane_id, work, *order[1:])
    except (EOFError, OSError):
        return 0


def _cancelled(conn: Connection, session_id: str) -> bool:
    """Whether a CANCEL for this session is waiting (EOF raises)."""
    cancelled = False
    while conn.poll():
        order = conn.recv()
        cancelled = cancelled or order == (CANCEL, session_id)
    return cancelled


def _serve(
    conn: Connection, lane_id: int, work: LaneWork,
    session_id: str, spec: Any, admitted: float,
) -> None:
    """One session: ``spec.repeat`` decisions over one setup lease."""
    started, cpu_started = time.monotonic(), time.process_time()
    compute_started = time.perf_counter()
    lease = work.cache.lease(spec.scheme, spec.n, spec.seed)
    walls: List[float] = []
    last: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cancelled = False
    for _ in range(spec.repeat):
        if _cancelled(conn, session_id):
            cancelled = True
            break
        flow = ChargeLog() if work.flow else None
        turn = time.perf_counter()
        try:
            last = work.decide(spec, lease, flow=flow)
        except Exception as exc:
            # Session isolation: the error is reported to the gateway,
            # which fails this session and keeps the lane.
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
            break
        walls.append(time.perf_counter() - turn)
        conn.send((DECISION, flow.charges if flow is not None else None))
    compute_s = time.perf_counter() - compute_started
    cpu_s = time.process_time() - cpu_started
    queue_s = max(0.0, started - admitted)
    result = None
    if last is not None and error is None:
        steady = walls[1:]
        result = dict(last)
        result.update(
            spec=spec.to_wire(),
            decisions=len(walls),
            setup_cache={"hits": lease.hits, "misses": lease.misses},
            wall={
                "lane": lane_id,
                "queue_s": round(queue_s, 6),
                "compute_s": round(compute_s, 6),
                "cpu_s": round(cpu_s, 6),
                "session_s": round(queue_s + compute_s, 6),
                "first_decision_s": round(walls[0], 6),
                "steady_mean_s": (
                    round(sum(steady) / len(steady), 6) if steady else None
                ),
            },
        )
    conn.send((END, {
        "error": error,
        "cancelled": cancelled,
        "result": result,
        "session_s": queue_s + compute_s,
        "cpu_s": cpu_s,
        "hits": lease.hits,
        "misses": lease.misses,
        "keys": work.cache.keys(),
    }))
