"""The gateway's EADDRINUSE-tolerant listener binding.

``python -m repro serve run --port P`` asks for a *preferred* port, and
the gateway (:mod:`repro.serve.server`) binds it under this policy:

1. try the preferred port;
2. if it is busy (``EADDRINUSE``), retry a bounded number of times
   (racing processes usually free the port within a beat);
3. if every retry loses the race, fall back to an OS-assigned ephemeral
   port rather than failing the run.

``port=0``/``None`` skips straight to OS-assigned.  Any error other
than ``EADDRINUSE`` on a preferred port is re-raised immediately — a
bad host or a permissions problem is a configuration bug, not a race.
Every other listener in the tree binds an OS-assigned port, and the
cluster opens none.
"""

from __future__ import annotations

import errno
from typing import TYPE_CHECKING, Awaitable, Callable, Optional, Sequence, Tuple

from repro.errors import NetworkError

if TYPE_CHECKING:
    # asyncio costs ~55 ms to import, paid by any entry that imports
    # this module without serving.
    import asyncio

    ConnectedCallback = Callable[
        [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
    ]


async def start_asyncio_server(
    client_connected_cb: ConnectedCallback,
    host: str,
    port: Optional[int],
    retry_delays: Sequence[float] = (),
) -> Tuple["asyncio.base_events.Server", int]:
    """Start an asyncio server under the bind policy.

    ``retry_delays`` is the pause before each *retry* of a busy
    preferred port.  Returns ``(server, busy_retries)`` where
    ``busy_retries`` counts the ``EADDRINUSE`` hits on the preferred
    port.
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
