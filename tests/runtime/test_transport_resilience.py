"""TcpTransport resilience: seeded reconnect backoff, clean failed starts."""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.errors import NetworkError
from repro.net.party import SilentParty
from repro.obs.registry import MetricsRegistry
from repro.runtime.synchronizer import run_parties_async
from repro.runtime.transport import (
    Frame,
    TcpTransport,
    backoff_schedule,
)
from repro.utils.randomness import Randomness


def _run(coro):
    return asyncio.run(coro)


class TestBackoffSchedule:
    def test_deterministic_under_seed(self):
        a = backoff_schedule(6, 0.05, 0.8, Randomness(7))
        b = backoff_schedule(6, 0.05, 0.8, Randomness(7))
        assert a == b
        assert backoff_schedule(6, 0.05, 0.8, Randomness(8)) != a

    def test_bounded_exponential_with_jitter(self):
        delays = backoff_schedule(8, 0.05, 0.4, Randomness(3))
        assert len(delays) == 8
        for attempt, delay in enumerate(delays):
            nominal = min(0.4, 0.05 * (2 ** attempt))
            assert 0.5 * nominal <= delay < 1.5 * nominal + 1e-9
        # The cap bites: late delays never exceed 1.5 * cap.
        assert all(d < 1.5 * 0.4 + 1e-9 for d in delays[4:])

    def test_empty_and_invalid(self):
        assert backoff_schedule(0, 0.1, 1.0, Randomness(0)) == []
        with pytest.raises(NetworkError):
            backoff_schedule(3, -0.1, 1.0, Randomness(0))


class TestReconnect:
    def test_send_survives_torn_endpoint_connection(self):
        async def scenario():
            transport = TcpTransport(
                [0, 1], reconnect_base=0.01, reconnect_cap=0.05
            )
            registry = MetricsRegistry()
            transport.bind_registry(registry)
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

                await transport.send(0, Frame(0, 1, b"after"))
                await transport.flush()
                assert [f.payload for f in transport.collect(1)] == [b"after"]
                assert transport.reconnects == 1
                assert (
                    "repro_transport_reconnects_total 1" in registry.render()
                )
            finally:
                await transport.stop()

        _run(scenario())

    def test_dead_router_exhausts_schedule_loudly(self):
        async def scenario():
            transport = TcpTransport(
                [0, 1],
                reconnect_attempts=2,
                reconnect_base=0.01,
                reconnect_cap=0.02,
            )
            await transport.start()
            # Kill the router outright: reconnects cannot succeed.
            server = transport._server
            assert server is not None
            server.close()
            await server.wait_closed()
            for endpoint in transport._endpoints.values():
                endpoint.writer.close()
            with pytest.raises(NetworkError, match="reconnect attempts"):
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
