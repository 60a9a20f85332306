"""The NDJSON wire protocol: framing, validation, response shapes."""

import json

import pytest

from repro.errors import GatewayError
from repro.serve import wire


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
    """``json.loads`` takes ``NaN`` and ``±Infinity``; the gateway
    refuses them before any field check compares a number (a ``NaN``
    timeout passes ``timeout < 0`` and then never expires)."""

    LINES = {
        "timeout": '{{"op": "await", "session": "s-1", "timeout": {}}}',
        "submit": '{{"op": "submit", "n": 8, "seed": {}}}',
    }

    @pytest.mark.parametrize("field", sorted(LINES))
    def test_nan_rejected(self, field):
        line = self.LINES[field].format("NaN").encode()
        with pytest.raises(GatewayError, match="NaN"):
            wire.decode_request(line)

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity"])
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
