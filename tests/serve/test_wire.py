"""The NDJSON wire protocol: framing, validation, response shapes."""

import asyncio
import json

import pytest

from repro.errors import GatewayError
from repro.serve import wire
from repro.serve.server import GatewayConfig, GatewayServer


class TestFraming:
    def test_encode_line_is_sorted_compact_json_with_newline(self):
        line = wire.encode_line({"b": 1, "a": {"z": 0, "y": 1}})
        assert line.endswith(b"\n")
        assert line == b'{"a": {"y": 1, "z": 0}, "b": 1}\n'

    def test_round_trip(self):
        payload = {"op": "submit", "n": 16, "scheme": "owf", "seed": 7}
        assert wire.decode_line(wire.encode_line(payload).rstrip()) == payload

    def test_oversized_line_rejected(self):
        blob = b'{"op": "ping", "pad": "' + b"x" * wire.MAX_LINE_BYTES + b'"}'
        with pytest.raises(GatewayError, match="exceeds"):
            wire.decode_line(blob)

    def test_malformed_json_rejected(self):
        with pytest.raises(GatewayError, match="malformed"):
            wire.decode_line(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(GatewayError, match="JSON object"):
            wire.decode_line(b"[1, 2, 3]")


class TestRequestValidation:
    def test_all_declared_ops_accepted(self):
        for op in wire.OPS:
            payload = {"op": op}
            if op in ("await", "cancel"):
                payload["session"] = "s-1"
            assert wire.decode_request(wire.encode_line(payload).rstrip())

    def test_unknown_op_rejected(self):
        with pytest.raises(GatewayError, match="unknown op"):
            wire.decode_request(b'{"op": "steal-keys"}')

    def test_missing_op_rejected(self):
        with pytest.raises(GatewayError, match="unknown op"):
            wire.decode_request(b'{"n": 16}')

    @pytest.mark.parametrize("op", ["await", "cancel"])
    def test_session_required(self, op):
        with pytest.raises(GatewayError, match="requires a 'session'"):
            wire.decode_request(json.dumps({"op": op}).encode())

    def test_non_string_session_rejected(self):
        with pytest.raises(GatewayError, match="'session'"):
            wire.decode_request(b'{"op": "await", "session": 7}')

    @pytest.mark.parametrize("timeout", [-1, "soon", True])
    def test_bad_timeout_rejected(self, timeout):
        line = json.dumps(
            {"op": "await", "session": "s-1", "timeout": timeout}
        ).encode()
        with pytest.raises(GatewayError, match="'timeout'"):
            wire.decode_request(line)


class TestNonStandardConstants:
    """``json.loads`` takes ``NaN`` and ``±Infinity``, and reads an
    exponent past the largest float as infinity; the gateway refuses
    them before any field check compares a number (a ``NaN`` timeout
    passes ``timeout < 0`` and then never expires)."""

    LINES = {
        "timeout": '{{"op": "await", "session": "s-1", "timeout": {}}}',
        "submit": '{{"op": "submit", "n": 8, "seed": {}}}',
    }

    @pytest.mark.parametrize("field", sorted(LINES))
    def test_nan_rejected(self, field):
        line = self.LINES[field].format("NaN").encode()
        with pytest.raises(GatewayError, match="NaN"):
            wire.decode_request(line)

    @pytest.mark.parametrize(
        "token", ["Infinity", "-Infinity", "1e400", "-1e400"]
    )
    @pytest.mark.parametrize("field", sorted(LINES))
    def test_infinity_rejected(self, field, token):
        line = self.LINES[field].format(token).encode()
        with pytest.raises(GatewayError, match=token):
            wire.decode_request(line)


class TestResponses:
    def test_ok_shape(self):
        assert wire.ok(session="s-1") == {"ok": True, "session": "s-1"}

    def test_reject_shape_and_retry_after_rounding(self):
        response = wire.reject("busy", "lanes full", retry_after=0.123456)
        assert response == {
            "ok": False, "code": "busy", "error": "lanes full",
            "retry_after": 0.123,
        }

    def test_reject_without_retry_after_omits_field(self):
        assert "retry_after" not in wire.reject("failed", "boom")

    def test_unknown_reject_code_is_a_bug(self):
        with pytest.raises(GatewayError, match="unknown reject code"):
            wire.reject("nope", "x")

    def test_every_declared_code_usable(self):
        for code in wire.REJECT_CODES:
            assert wire.reject(code, "msg")["code"] == code


#: Lines whose numbers JSON can spell but the gateway cannot use: an
#: exponent past the largest float (``json.loads`` reads ``inf``), an
#: integer past it (``asyncio.wait_for`` overflows adding it to its
#: clock) and an integer longer than ``int()`` converts.
UNUSABLE_NUMBERS = {
    "float-overflow": b'{"op": "await", "session": "s-1", "timeout": 1e400}',
    "int-past-float": (
        b'{"op": "await", "session": "s-1", "timeout": 1' + b"0" * 400 + b"}"
    ),
    "int-too-long": b'{"op": "ping", "pad": ' + b"7" * 5000 + b"}",
}


class TestUnusableNumbers:
    def test_timeout_past_the_largest_float_rejected(self):
        with pytest.raises(GatewayError, match="within float range"):
            wire.decode_request(UNUSABLE_NUMBERS["int-past-float"])

    def test_largest_float_timeout_accepted(self):
        line = b'{"op": "await", "session": "s-1", "timeout": 1e308}'
        assert wire.decode_request(line)["timeout"] == 1e308

    def test_overlong_integer_rejected(self):
        with pytest.raises(GatewayError, match="malformed"):
            wire.decode_line(UNUSABLE_NUMBERS["int-too-long"])

    @pytest.mark.parametrize("case", sorted(UNUSABLE_NUMBERS))
    def test_connection_answers_a_ping_after_the_rejected_line(self, case):
        async def exchange():
            server = GatewayServer(GatewayConfig(), manager=_NoSessions())
            port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(UNUSABLE_NUMBERS[case] + b"\n")
                writer.write(wire.encode_line({"op": "ping"}))
                await writer.drain()
                replies = [
                    await asyncio.wait_for(reader.readline(), 10)
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.aclose()
            return [json.loads(reply) if reply else None for reply in replies]

        rejected, pong = asyncio.run(exchange())
        assert rejected["code"] == "bad-request"
        assert pong is not None and pong["ok"]
        assert pong["protocol"] == wire.PROTOCOL


class _NoSessions:
    """A session manager for connection tests: it holds no session, and
    a request that reaches it was not refused at decode time."""

    async def await_result(self, session_id, timeout=None):
        raise AssertionError(f"a bad line reached the manager ({timeout!r})")

    def stop_admitting(self):
        pass

    async def drain(self, deadline):
        return True

    def close(self):
        pass
