"""Sessions: spec validation, admission/backpressure, cache observability.

Everything here is tier-1: the manager tests drive admission control
with a stubbed decision runner (gated by ``multiprocessing`` events,
which the forked lanes share with the test; no protocol work), and the
real-protocol tests use CI-sized n with the simulated base-signature
scheme so they run in tens of milliseconds.
"""

import asyncio
import multiprocessing

import pytest

from repro.errors import GatewayError
from repro.serve.exposition import metrics_text
from repro.serve.sessions import (
    SessionManager,
    SessionSpec,
    make_inputs,
    one_shot_reference,
    run_decision,
)
from repro.serve.setup_cache import SetupCache


class TestSessionSpec:
    def test_defaults_round_trip(self):
        spec = SessionSpec()
        assert SessionSpec.from_wire(spec.to_wire()) == spec

    def test_from_wire_ignores_request_plumbing_fields(self):
        spec = SessionSpec.from_wire(
            {"op": "submit", "n": 8, "scheme": "owf", "seed": 3}
        )
        assert (spec.n, spec.scheme, spec.seed) == (8, "owf", 3)

    @pytest.mark.parametrize("bad", [
        {"workload": "phase-king"},
        {"scheme": "rsa"},
        {"n": 2},
        {"n": 2 ** 20},
        {"repeat": 0},
        {"inputs": "random"},
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(GatewayError):
            SessionSpec(**bad)

    @pytest.mark.parametrize("field,value", [
        ("n", "16"), ("n", True), ("seed", 1.5), ("repeat", "4"),
    ])
    def test_from_wire_type_checks(self, field, value):
        with pytest.raises(GatewayError, match=field):
            SessionSpec.from_wire({field: value})

    def test_input_patterns(self):
        assert make_inputs(SessionSpec(n=4, inputs="split")) == {
            0: 0, 1: 1, 2: 0, 3: 1,
        }
        assert set(make_inputs(SessionSpec(n=4, inputs="zero")).values()) \
            == {0}
        assert set(make_inputs(SessionSpec(n=4, inputs="one")).values()) \
            == {1}


SMALL = dict(n=6, scheme="snark-hash", seed=11)


class TestDecisions:
    def test_cached_decision_matches_one_shot_reference(self):
        # The acceptance-critical parity: per-party tallies through the
        # gateway's cached path equal the uncached single invocation.
        spec = SessionSpec(**SMALL)
        reference = one_shot_reference(spec)
        cache = SetupCache()
        lease = cache.lease(spec.scheme, spec.n, spec.seed)
        first = run_decision(spec, lease)
        second = run_decision(spec, lease)  # pure cache hit
        for decision in (first, second):
            assert decision["value"] == reference["value"]
            assert decision["per_party_bits"] == reference["per_party_bits"]
            assert decision["agreement"] and decision["validity"]
            assert decision["within_budget"]
        assert lease.misses == 1 and lease.hits == 1

    def test_budget_fields_populated(self):
        result = one_shot_reference(SessionSpec(**SMALL))
        assert result["budget_bits"] >= result["max_bits_per_party"] > 0
        assert result["certificate_bytes"] > 0

    @pytest.mark.parametrize("seed", [2021, 7, 1_234_567])
    def test_standard_snark_hash_client_is_within_budget(self, seed):
        # The shape of the gateway's standard snark-hash client (n=32,
        # benchmarks/layers gateway-mix): over budget until f_aggr-sig's
        # input carried one key opening per leaf.
        result = one_shot_reference(
            SessionSpec(n=32, scheme="snark-hash", seed=seed)
        )
        assert result["agreement"] and result["validity"]
        assert result["within_budget"] is True
        assert result["max_bits_per_party"] < result["budget_bits"]


def _events():
    """``(release, started)``, shared with every lane forked after."""
    return multiprocessing.Event(), multiprocessing.Event()


def _stub_runner(release, started):
    """A decision runner the test controls: blocks until released."""

    def run(spec, lease):
        started.set()
        assert release.wait(timeout=10), "test never released the stub"
        return {
            "value": 0, "agreement": True, "validity": True,
            "certificate_bytes": 1, "per_party_bits": {"0": 1},
            "max_bits_per_party": 1, "total_bits": 1, "budget_bits": 2,
            "within_budget": True, "num_virtual": 1,
        }

    return run


def _manager(release, started, **kwargs):
    kwargs.setdefault("max_sessions", 1)
    kwargs.setdefault("retry_after", 0.05)
    kwargs.setdefault("cache", SetupCache(scheme_factory=lambda label: None))
    return SessionManager(
        decision_runner=_stub_runner(release, started), **kwargs
    )


class TestAdmissionControl:
    def test_over_capacity_submit_rejected_with_retry_after(self):
        async def scenario():
            release, started = _events()
            manager = _manager(release, started)
            first = manager.submit({"n": 8})
            assert first["ok"]
            await asyncio.to_thread(started.wait, 5)
            rejected = manager.submit({"n": 8})
            assert not rejected["ok"]
            assert rejected["code"] == "busy"
            assert rejected["retry_after"] > 0
            release.set()
            done = await manager.await_result(first["session"])
            assert done["ok"] and done["state"] == "done"
            # The lane drained: the retry the backpressure promised works.
            retried = manager.submit({"n": 8})
            assert retried["ok"]
            await manager.await_result(retried["session"])
            manager.close()

        asyncio.run(scenario())

    def test_bad_spec_rejected_without_burning_a_lane(self):
        async def scenario():
            release, started = _events()
            manager = _manager(release, started)
            response = manager.submit({"n": 2})
            assert response["code"] == "bad-request"
            assert manager.active == 0
            manager.close()

        asyncio.run(scenario())

    def test_stop_admitting_rejects_as_shutting_down(self):
        async def scenario():
            release, started = _events()
            manager = _manager(release, started)
            manager.stop_admitting()
            response = manager.submit({"n": 8})
            assert response["code"] == "shutting-down"
            assert "retry_after" not in response
            manager.close()

        asyncio.run(scenario())

    def test_rejections_and_admissions_counted(self):
        async def scenario():
            release, started = _events()
            manager = _manager(release, started)
            first = manager.submit({"n": 8})
            await asyncio.to_thread(started.wait, 5)
            manager.submit({"n": 8})  # busy
            release.set()
            await manager.await_result(first["session"])
            manager.close()
            text = metrics_text(manager.status())
            assert "repro_gateway_sessions_admitted_total 1" in text
            assert ('repro_gateway_sessions_rejected_total'
                    '{code="busy"} 1') in text
            assert "repro_gateway_decisions_total 1" in text

        asyncio.run(scenario())


class TestLifecycle:
    def test_await_unknown_session(self):
        async def scenario():
            release, started = _events()
            manager = _manager(release, started)
            response = await manager.await_result("s-404")
            assert response["code"] == "unknown-session"
            manager.close()

        asyncio.run(scenario())

    def test_await_timeout_is_a_backpressure_reject(self):
        async def scenario():
            release, started = _events()
            manager = _manager(release, started)
            submitted = manager.submit({"n": 8})
            response = await manager.await_result(
                submitted["session"], timeout=0.05
            )
            assert response["code"] == "timeout"
            assert response["retry_after"] > 0
            release.set()
            final = await manager.await_result(submitted["session"])
            assert final["ok"]
            manager.close()

        asyncio.run(scenario())

    def test_cancel_stops_between_decisions(self):
        async def scenario():
            release, started = _events()
            release.set()  # decisions complete instantly
            manager = _manager(release, started)
            submitted = manager.submit({"n": 8, "repeat": 10_000})
            # The lane is mid-session when the cancel crosses to it.
            await asyncio.to_thread(started.wait, 5)
            cancelled = manager.cancel(submitted["session"])
            assert cancelled["ok"]
            done = await manager.await_result(submitted["session"])
            assert done["state"] == "cancelled"
            assert done["decisions_completed"] < 10_000
            manager.close()

        asyncio.run(scenario())

    def test_failed_session_reported_not_fatal(self):
        async def scenario():
            def boom(spec, lease):
                raise RuntimeError("keygen exploded")

            manager = SessionManager(
                max_sessions=1, decision_runner=boom,
                cache=SetupCache(scheme_factory=lambda label: None),
            )
            submitted = manager.submit({"n": 8})
            response = await manager.await_result(submitted["session"])
            assert response["code"] == "failed"
            assert "keygen exploded" in response["error"]
            # The lane was released: the manager still admits.
            assert manager.active == 0
            manager.close()

        asyncio.run(scenario())

    def test_drain_waits_then_escalates_to_cancel(self):
        async def scenario():
            release, started = _events()
            release.set()
            manager = _manager(release, started)
            submitted = manager.submit({"n": 8, "repeat": 10_000})
            manager.stop_admitting()
            drained = await manager.drain(deadline=0.2)
            assert drained  # escalation flagged the cancel event
            record_state = manager.status(submitted["session"])
            assert record_state["state"] in ("cancelled", "done")
            manager.close()

        asyncio.run(scenario())

    def test_status_summary_shape(self):
        async def scenario():
            release, started = _events()
            release.set()
            manager = _manager(release, started)
            submitted = manager.submit({"n": 8})
            await manager.await_result(submitted["session"])
            status = manager.status()
            assert status["ok"]
            assert status["max_sessions"] == 1
            assert status["sessions"] == {"done": 1}
            assert "setup_cache" in status
            manager.close()

        asyncio.run(scenario())


class TestRealProtocolThroughManager:
    def test_second_session_on_same_key_skips_keygen(self):
        # The amortization observable end to end: session 2's lease
        # records only hits, and both match the one-shot reference.
        async def scenario():
            manager = SessionManager(max_sessions=2)
            results = []
            for _ in range(2):
                submitted = manager.submit({**SMALL, "repeat": 2})
                assert submitted["ok"], submitted
                response = await manager.await_result(submitted["session"])
                assert response["ok"], response
                results.append(response["result"])
            manager.close()
            return results

        first, second = asyncio.run(scenario())
        assert first["setup_cache"] == {"hits": 1, "misses": 1}
        assert second["setup_cache"] == {"hits": 2, "misses": 0}
        reference = one_shot_reference(SessionSpec(**SMALL))
        for result in (first, second):
            assert result["value"] == reference["value"]
            assert result["per_party_bits"] == reference["per_party_bits"]
            assert result["decisions"] == 2
            assert result["within_budget"]
