"""TRU001 fixture (bad): wire-derived data reaching sinks unvalidated."""

from xmod_tru_bad.cluster.wire import decode_header
from xmod_tru_bad.protocols.engine import advance_round


def route_frame(data, ledger):
    header = decode_header(data)
    ledger.record_message(header.round_index, header.charge_bits)


def route_fanout(data, ledger, committee):
    header = decode_header(data)
    ledger.record_multicast(header.round_index, committee, header.charge_bits)


def step_protocol(data):
    header = decode_header(data)
    return advance_round(header.round_index)
