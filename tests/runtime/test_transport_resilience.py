"""TcpTransport failures: a torn connection is loud, a failed start is clean."""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.errors import NetworkError
from repro.net.party import SilentParty
from repro.runtime.synchronizer import run_parties_async
from repro.runtime.transport import Frame, TcpTransport


def _run(coro):
    return asyncio.run(coro)


class TestTornConnection:
    def test_torn_endpoint_write_raises_naming_the_party(self):
        async def scenario():
            transport = TcpTransport([0, 1])
            await transport.start()
            try:
                await transport.send(0, Frame(0, 1, b"before"))
                await transport.flush()
                assert [f.payload for f in transport.collect(1)] == [b"before"]

                # Tear party 0's router connection out from under it.
                endpoint = transport._endpoints[0]
                endpoint.writer.close()
                try:
                    await endpoint.writer.wait_closed()
                except OSError:
                    pass

                with pytest.raises(NetworkError, match="party 0"):
                    await transport.send(0, Frame(0, 1, b"after"))
            finally:
                await transport.stop()

        _run(scenario())

    def test_dead_router_fails_the_round_loudly(self):
        async def scenario():
            transport = TcpTransport([0, 1])
            await transport.start()
            # Kill the router outright: nothing can reach party 1.
            server = transport._server
            assert server is not None
            server.close()
            await server.wait_closed()
            for endpoint in transport._endpoints.values():
                endpoint.writer.close()
            with pytest.raises(NetworkError, match="party 0"):
                for _ in range(8):  # first writes may land in OS buffers
                    await transport.send(0, Frame(0, 1, b"x"))
                    await asyncio.sleep(0.02)
            transport._server = None
            await transport.stop()

        _run(scenario())


class TestFailedStart:
    def test_failed_start_closes_listener_and_propagates(self):
        # An endpoint dial that fails after the router is listening
        # (EMFILE at n≈500 under `ulimit -n 1024`) must not leak the
        # server or the pumps already started: run_parties_async stops
        # the half-started transport and re-raises the original error.
        async def scenario():
            transport = TcpTransport([0, 1, 2])
            dial = transport._connect_endpoint

            async def flaky(party_id):
                if party_id == 1:
                    raise OSError(errno.EMFILE, "Too many open files")
                return await dial(party_id)

            transport._connect_endpoint = flaky
            with pytest.raises(OSError, match="Too many open files"):
                await run_parties_async(
                    [SilentParty(p) for p in range(3)],
                    transport=transport,
                    max_rounds=1,
                )
            assert transport.port is not None
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", transport.port)
            return transport

        transport = _run(scenario())
        assert transport._server is None
        assert transport._endpoints == {}
