"""Shared EADDRINUSE-tolerant listener binding.

Three layers of the repo open loopback listeners — the runtime's
:class:`~repro.runtime.transport.TcpTransport` router, the cluster
supervisor's control channel, and the :mod:`repro.serve` gateway — and
all want the same policy for a *preferred* port:

1. try the preferred port;
2. if it is busy (``EADDRINUSE``), retry a bounded number of times
   (racing processes usually free the port within a beat);
3. if every retry loses the race, fall back to an OS-assigned ephemeral
   port rather than failing the run.

``port=0``/``None`` skips straight to OS-assigned.  Any error other
than ``EADDRINUSE`` on a preferred port is re-raised immediately — a
bad host or a permissions problem is a configuration bug, not a race.

Two entry points cover the two socket styles in the tree:
:func:`open_listener` (blocking sockets, used by the cluster control
plane) and :func:`start_asyncio_server` (asyncio servers, used by the
TCP transport router and the gateway).
"""

from __future__ import annotations

import errno
import socket
import time
from typing import (
    TYPE_CHECKING,
    Awaitable,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import NetworkError

if TYPE_CHECKING:
    # asyncio costs ~55 ms to import; the blocking-socket callers
    # (cluster workers, the control listener) never run a loop.
    import asyncio

    ConnectedCallback = Callable[
        [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
    ]


def bind_attempt_plan(port: Optional[int], retries: int) -> List[int]:
    """The port sequence one bind policy walks through.

    A preferred port appears ``1 + retries`` times, followed by the
    terminal ``0`` (OS-assigned) fallback; no preference means just
    ``[0]``.
    """
    if not port:
        return [0]
    return [port] * (1 + max(0, retries)) + [0]


def open_listener(
    host: str = "127.0.0.1",
    port: int = 0,
    retries: int = 3,
    retry_delay: float = 0.05,
) -> Tuple[socket.socket, int]:
    """Open a blocking TCP listener under the shared bind policy.

    Returns ``(listening socket, bound port)``.  Raises
    :class:`~repro.errors.NetworkError` on any non-``EADDRINUSE``
    failure (wrapped, with the original as ``__cause__``).
    """
    attempts = bind_attempt_plan(port, retries)
    for index, candidate in enumerate(attempts):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, candidate))
            listener.listen()
            return listener, listener.getsockname()[1]
        except OSError as exc:
            listener.close()
            if candidate and exc.errno == errno.EADDRINUSE:
                if attempts[index + 1]:
                    time.sleep(retry_delay)
                continue
            raise NetworkError(f"cannot bind listener: {exc}") from exc
    raise NetworkError(  # pragma: no cover - plan always ends in port 0
        "cannot bind listener: attempt plan exhausted"
    )


async def start_asyncio_server(
    client_connected_cb: ConnectedCallback,
    host: str,
    port: Optional[int],
    retry_delays: Sequence[float] = (),
) -> Tuple["asyncio.base_events.Server", int]:
    """Start an asyncio server under the shared bind policy.

    ``retry_delays`` is the pause before each *retry* of a busy
    preferred port (callers with a seeded
    :func:`~repro.runtime.transport.backoff_schedule` pass it here, so
    retry storms replay deterministically).  Returns
    ``(server, busy_retries)`` where ``busy_retries`` counts the
    ``EADDRINUSE`` hits on the preferred port.
    """
    import asyncio

    busy_retries = 0
    if port:
        for delay in [0.0, *retry_delays]:
            if delay:
                await asyncio.sleep(delay)
            try:
                server = await asyncio.start_server(
                    client_connected_cb, host=host, port=port
                )
                return server, busy_retries
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE:
                    raise
                busy_retries += 1
        # Preferred port never freed up: OS-assigned fallback.
    server = await asyncio.start_server(
        client_connected_cb, host=host, port=0
    )
    return server, busy_retries


def bound_port(server: "asyncio.base_events.Server") -> int:
    """The port an asyncio server actually bound (first socket)."""
    sockets = server.sockets
    if not sockets:
        raise NetworkError("server has no bound sockets")
    return int(sockets[0].getsockname()[1])
