"""One forged input per decode-side guard, and proof that it needs it.

Every byte a party, worker or client receives is adversary-controlled,
so every ``if …: raise`` guard on a decode path (the ones
:mod:`tests.guard_sweep` finds) gets a row in :data:`CASES`: an input
forged to break exactly that guard's check.  Two tests run each row:

* the real decoder refuses the input with the guard's own message, and
* a copy of the module with only that guard's condition set to
  ``False`` (the sweep's mutation, executed in-process) does not — the
  input is refused by this guard, not by a later check by accident.

A guard added without a row, or a row whose guard is gone, fails
:func:`test_every_decode_guard_has_a_row`.  The sweep itself, which runs
whole test files against each mutation, stays the slow cross-check.
"""

import ast
import importlib
import json
import re
import socket
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.errors import (
    ClusterError,
    GatewayError,
    NetworkError,
    SerializationError,
)
from repro.net.party import Frame
from repro.net.trains import encode_train_body, length_prefix
from tests.guard_sweep import DECODE_PATHS, disabled, guards

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@dataclass(frozen=True)
class Case:
    """A forged input aimed at one guard."""

    #: Module under ``src/repro`` and the function holding the guard.
    relative: str
    function: str
    #: The guard's condition, whitespace-normalised as the sweep prints it.
    condition: str
    error: type
    match: str
    #: Feeds the forged input to the decoders of the given module.
    attempt: Callable[[types.ModuleType], object]


def _condition(source: str, guard: ast.If) -> str:
    return " ".join(str(ast.get_source_segment(source, guard.test)).split())


# -- cluster/wire.py ----------------------------------------------------------


def _control_body(header: object, tail: bytes = b"") -> bytes:
    from repro.utils.serialization import encode_bytes

    return (encode_bytes(json.dumps(header).encode("utf-8"))
            + encode_bytes(b"") + tail)


def _recv_after(wire: types.ModuleType, written: bytes, close: bool,
                timeout: float) -> object:
    """``recv`` on a channel whose peer wrote ``written`` (then closed).

    The socket itself times out after a second, so a channel that lost
    its own deadline raises instead of blocking the test forever.
    """
    left, right = socket.socketpair()
    right.settimeout(1.0)
    channel = wire.MessageChannel(right)
    try:
        left.sendall(written)
        if close:
            left.close()
        return channel.recv(timeout=timeout)
    finally:
        left.close()
        channel.close()


# -- cluster/meshwire.py ------------------------------------------------------

_HEADER_FIELDS = (
    "magic", "version", "halted", "src_worker", "dst_worker", "round_index",
)


def _forged_train(meshwire: types.ModuleType, **fields: object) -> object:
    """Decode a train record from worker 0 to 1 for round 3, its header
    edited, on the link that owes exactly that train."""
    record = meshwire.encode_header(0, 1, 3) + encode_train_body([])
    header = dict(zip(_HEADER_FIELDS, meshwire._HEADER.unpack_from(record)))
    header.update(fields)
    forged = meshwire._HEADER.pack(*header.values()) + record[
        meshwire._HEADER.size:]
    return meshwire.decode_train(forged, 0, 1, 3)


# -- net/trains.py ------------------------------------------------------------

_FRAME_FIELDS = (
    "sender", "recipient", "sent_round", "deliver_round", "charge_bits",
    "seq", "phase_id", "payload_len",
)


def _train_body(trains: types.ModuleType) -> bytes:
    """One 2-byte frame behind a one-label ("vote") phase table."""
    return trains.encode_train_body([Frame(2, 5, b"ab", sent_round=3,
                                           deliver_round=4, phase="vote")])


def _forged_frame(trains: types.ModuleType, **fields: object) -> bytes:
    body = _train_body(trains)
    offset = len(body) - 2 - trains._FRAME.size
    header = dict(zip(_FRAME_FIELDS, trains._FRAME.unpack_from(body, offset)))
    header.update(fields)
    return body[:offset] + trains._FRAME.pack(*header.values()) + body[-2:]


def _phase_label_past_the_end(trains: types.ModuleType) -> bytes:
    body = _train_body(trains)
    return body[:4] + trains._U16.pack(len(body)) + body[6:]


def _request(**payload: object) -> bytes:
    return json.dumps(payload).encode("utf-8")


_WIRE, _MESH, _SERVE, _TRAINS, _TCP = (
    "cluster/wire.py", "cluster/meshwire.py", "serve/wire.py",
    "net/trains.py", "runtime/transport.py",
)

CASES: Dict[str, Case] = {
    "control-trailing-bytes": Case(
        _WIRE, "Message.decode", "offset != len(body)",
        ClusterError, "1 trailing bytes in control message",
        lambda m: m.Message.decode(_control_body({"kind": "stop"}, b"x")),
    ),
    "control-header-not-an-object": Case(
        _WIRE, "Message.decode",
        'not isinstance(header, dict) or "kind" not in header',
        ClusterError, "control message header has no kind",
        lambda m: m.Message.decode(_control_body(["kind"])),
    ),
    "control-unknown-kind": Case(
        _WIRE, "Message.decode", "kind not in KINDS",
        ClusterError, "unknown control message kind 'frames'",
        lambda m: m.Message.decode(_control_body({"kind": "frames"})),
    ),
    "control-recv-deadline": Case(
        _WIRE, "MessageChannel.recv",
        "timeout is not None and not select.select( [self._sock], [], [], "
        "timeout )[0]",
        TimeoutError, "control channel recv timed out",
        lambda m: _recv_after(m, b"", close=False, timeout=0.05),
    ),
    "control-eof-mid-message": Case(
        _WIRE, "MessageChannel.recv", "self._buffer",
        ClusterError, "peer closed the control channel mid-message",
        lambda m: _recv_after(m, length_prefix(10) + b"abc", close=True,
                              timeout=0.5),
    ),
    "train-short-record": Case(
        _MESH, "decode_train", "len(record) < _HEADER.size",
        SerializationError, "short mesh record",
        lambda m: m.decode_train(m.encode_header(0, 1, 3)[:10], 0, 1, 3),
    ),
    "train-bad-magic": Case(
        _MESH, "decode_train", "magic != MESH_MAGIC",
        SerializationError, "bad mesh magic",
        lambda m: _forged_train(m, magic=b"XXXX"),
    ),
    "train-other-version": Case(
        _MESH, "decode_train", "version != MESH_VERSION",
        SerializationError, "mesh format version 3",
        lambda m: _forged_train(m, version=3),
    ),
    "train-halted-flag-two": Case(
        _MESH, "decode_train", "halted > 1",
        SerializationError, "mesh halted flag 2 is not 0 or 1",
        lambda m: _forged_train(m, halted=2),
    ),
    "train-of-another-link": Case(
        _MESH, "decode_train", "(src, dst) != (src_worker, dst_worker)",
        SerializationError, "from worker 0 to 2 arrived on the link",
        lambda m: _forged_train(m, dst_worker=2),
    ),
    "train-skips-a-round": Case(
        _MESH, "decode_train", "train_round != round_index",
        SerializationError, "the link owes round 3",
        lambda m: _forged_train(m, round_index=4),
    ),
    "line-oversized": Case(
        _SERVE, "decode_line", "len(line) > MAX_LINE_BYTES",
        GatewayError, "line exceeds",
        lambda m: m.decode_line(
            _request(op="ping", pad="x" * m.MAX_LINE_BYTES)),
    ),
    "line-not-an-object": Case(
        _SERVE, "decode_line", "not isinstance(payload, dict)",
        GatewayError, "request must be a JSON object, got list",
        lambda m: m.decode_line(b'["ping"]'),
    ),
    "line-float-overflow": Case(
        _SERVE, "_finite_float", "not math.isfinite(value)",
        GatewayError, "number 1e400 overflows a float",
        lambda m: m.decode_line(b'{"op": "ping", "pad": 1e400}'),
    ),
    "request-unknown-op": Case(
        _SERVE, "decode_request", "not isinstance(op, str) or op not in OPS",
        GatewayError, "unknown op 'frobnicate'",
        lambda m: m.decode_request(_request(op="frobnicate")),
    ),
    "request-session-not-a-string": Case(
        _SERVE, "decode_request",
        "session is not None and not isinstance(session, str)",
        GatewayError, "'session' must be a string",
        lambda m: m.decode_request(_request(op="status", session=5)),
    ),
    "request-await-without-session": Case(
        _SERVE, "decode_request",
        'op in ("await", "cancel") and session is None',
        GatewayError, "op 'await' requires a 'session' field",
        lambda m: m.decode_request(_request(op="await")),
    ),
    "request-negative-timeout": Case(
        _SERVE, "decode_request",
        "timeout is not None and ( not isinstance(timeout, (int, float)) "
        "or isinstance(timeout, bool) "
        "or not 0 <= timeout <= sys.float_info.max )",
        GatewayError, "'timeout' must be a non-negative number",
        lambda m: m.decode_request(_request(op="ping", timeout=-1)),
    ),
    "train-phase-label-past-the-end": Case(
        _TRAINS, "decode_train_body", "offset + length > size",
        SerializationError, "truncated train phase table at offset 6",
        lambda m: m.decode_train_body(_phase_label_past_the_end(m)),
    ),
    "frame-delivered-before-sent": Case(
        _TRAINS, "decode_train_body", "deliver_round <= sent_round",
        SerializationError, "delivery round 3 on or before its send round 3",
        lambda m: m.decode_train_body(_forged_frame(m, deliver_round=3)),
    ),
    "frame-charge-below-sentinel": Case(
        _TRAINS, "decode_train_body", "charge_bits < -1",
        SerializationError, "frame charge -2 below the -1",
        lambda m: m.decode_train_body(_forged_frame(m, charge_bits=-2)),
    ),
    "frame-phase-id-past-the-table": Case(
        _TRAINS, "decode_train_body",
        "phase_id >= num_phases and not (phase_id == 0 and num_phases == 0)",
        SerializationError, "phase id 9, table holds 1",
        lambda m: m.decode_train_body(_forged_frame(m, phase_id=9)),
    ),
    "frame-payload-past-the-end": Case(
        _TRAINS, "decode_train_body", "payload_len > size - offset",
        SerializationError, r"\(5 payload bytes wanted, 2 left\)",
        lambda m: m.decode_train_body(_forged_frame(m, payload_len=5)),
    ),
    "train-trailing-bytes": Case(
        _TRAINS, "decode_train_body", "offset != size",
        SerializationError, "1 trailing bytes after train body",
        lambda m: m.decode_train_body(_train_body(m) + b"\x00"),
    ),
    "record-past-the-cap": Case(
        _TRAINS, "split_records", "length > max_length",
        SerializationError, "record length 9 exceeds 8",
        lambda m: m.split_records(bytearray(length_prefix(9)), 8),
    ),
    "tcp-record-shorter-than-its-header": Case(
        _TCP, "_split_records", "len(record) < _RECORD.size",
        NetworkError, "bad record length 2",
        lambda m: m._split_records(bytearray(length_prefix(2) + b"ab")),
    ),
    "tcp-record-unknown-kind": Case(
        _TCP, "_split_records", "kind not in (_HELLO, _TRAIN)",
        NetworkError, "unknown record kind 7",
        lambda m: m._split_records(bytearray(m._record(7, 3))),
    ),
    "tcp-train-for-another-party": Case(
        _TCP, "_open_train", "frame.recipient != party_id",
        NetworkError, "train for 1 carries a frame for 2",
        lambda m: m._open_train(1, 0, m.encode_train_body([Frame(0, 2, b"x")])),
    ),
}


def _key(case: Case) -> Tuple[str, str, str]:
    return case.relative, case.function, case.condition


def _refusal(case: Case, module: types.ModuleType) -> object:
    """What the module's decoders raise on the forged input, or ``None``."""
    try:
        case.attempt(module)
    except Exception as exc:  # the mutated copy may fail any which way
        return exc
    return None


def _refused_by_its_guard(case: Case, exc: object) -> bool:
    return isinstance(exc, case.error) and re.search(
        case.match, str(exc)) is not None


def _real(case: Case) -> types.ModuleType:
    name = "repro." + case.relative[:-len(".py")].replace("/", ".")
    return importlib.import_module(name)


def _without_guard(case: Case) -> types.ModuleType:
    """A fresh copy of the case's module with its guard disabled."""
    real = _real(case)
    source = (SRC / case.relative).read_text(encoding="utf-8")
    (guard,) = [
        guard for _, guard in guards(source, (case.function,))
        if _condition(source, guard) == case.condition
    ]
    module = types.ModuleType(real.__name__ + "_without_guard")
    module.__package__ = real.__package__
    # Dataclasses look their defining module up while the class body runs.
    sys.modules[module.__name__] = module
    try:
        exec(compile(disabled(source, guard), str(SRC / case.relative),
                     "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_decode_guard_has_a_row():
    found = set()
    for relative, functions in DECODE_PATHS.items():
        source = (SRC / relative).read_text(encoding="utf-8")
        found |= {
            (relative, function, _condition(source, guard))
            for function, guard in guards(source, functions)
        }
    table = {_key(case) for case in CASES.values()}
    assert len(table) == len(CASES), "two rows aim at one guard"
    assert found - table == set(), "decode guards without a forged input"
    assert table - found == set(), "rows whose guard is gone"


@pytest.mark.parametrize("name", CASES)
def test_the_guard_refuses_its_forged_input(name):
    case = CASES[name]
    with pytest.raises(case.error, match=case.match):
        case.attempt(_real(case))


@pytest.mark.parametrize("name", CASES)
def test_the_forged_input_needs_its_guard(name):
    case = CASES[name]
    exc = _refusal(case, _without_guard(case))
    assert not _refused_by_its_guard(case, exc), (
        f"with {case.condition!r} disabled the input is still refused "
        f"with the guard's message: {exc!r}"
    )
