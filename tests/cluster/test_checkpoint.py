"""Checkpoint codec: property round-trips, durability, corruption."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.checkpoint import (
    MAGIC,
    ClusterCheckpoint,
    PartyCheckpoint,
    checkpoint_path,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import ClusterError
from repro.net.party import SilentParty
from repro.runtime.transport import Frame

# -- Hypothesis strategies ---------------------------------------------------

@st.composite
def frames(draw):
    # Delivery is strictly after send (the decoder rejects anything
    # else), so the delay is drawn separately and added on.  Charges are
    # wire-canonical (>= 0): the Frame codec resolves the -1
    # charge-by-payload sentinel on encode, so only resolved charges
    # survive an exact-equality round trip (the mesh codec, which
    # preserves -1, is exercised in test_wire's mesh section).
    sent_round = draw(st.integers(min_value=0, max_value=1000))
    delay = draw(st.integers(min_value=1, max_value=16))
    return Frame(
        sender=draw(st.integers(min_value=0, max_value=255)),
        recipient=draw(st.integers(min_value=0, max_value=255)),
        payload=draw(st.binary(max_size=64)),
        sent_round=sent_round,
        deliver_round=sent_round + delay,
        charge_bits=draw(st.integers(min_value=0, max_value=1 << 20)),
        seq=draw(st.integers(min_value=0, max_value=1 << 20)),
    )


@st.composite
def party_checkpoints(draw, party_id=None):
    pid = (
        party_id
        if party_id is not None
        else draw(st.integers(min_value=0, max_value=255))
    )
    return PartyCheckpoint(
        party_id=pid,
        party_blob=pickle.dumps(SilentParty(pid)),
        send_seq=draw(st.integers(min_value=0, max_value=1 << 20)),
        trace_seq=draw(st.integers(min_value=0, max_value=1 << 20)),
    )


@st.composite
def cluster_checkpoints(draw):
    ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=63),
                              min_size=1, max_size=8)))
    parties = [draw(party_checkpoints(party_id=pid)) for pid in ids]
    return ClusterCheckpoint(
        next_round=draw(st.integers(min_value=0, max_value=10_000)),
        parties=parties,
        staged=draw(st.lists(frames(), max_size=8)),
    )


# -- round-trip properties ---------------------------------------------------


@given(cluster_checkpoints())
def test_encode_decode_round_trip(checkpoint):
    decoded = decode_checkpoint(encode_checkpoint(checkpoint))
    assert decoded.next_round == checkpoint.next_round
    assert decoded.staged == checkpoint.staged
    original = checkpoint.by_party()
    restored = decoded.by_party()
    assert set(restored) == set(original)
    for pid, record in restored.items():
        want = original[pid]
        assert record.party_blob == want.party_blob
        assert record.send_seq == want.send_seq
        assert record.trace_seq == want.trace_seq


@given(cluster_checkpoints())
def test_encoding_is_canonical(checkpoint):
    # Party order does not matter: records are sorted on encode.
    shuffled = ClusterCheckpoint(
        next_round=checkpoint.next_round,
        parties=list(reversed(checkpoint.parties)),
        staged=checkpoint.staged,
    )
    assert encode_checkpoint(shuffled) == encode_checkpoint(checkpoint)


@given(cluster_checkpoints())
def test_save_load_round_trip(checkpoint):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)
        path = save_checkpoint(tmp, "shard-0-r4", checkpoint)
        assert path == checkpoint_path(tmp, "shard-0-r4")
        loaded = load_checkpoint(tmp, "shard-0-r4")
    assert loaded is not None
    assert encode_checkpoint(loaded) == encode_checkpoint(checkpoint)


# -- failure modes -----------------------------------------------------------


def test_load_missing_returns_none(tmp_path):
    assert load_checkpoint(tmp_path, "nope") is None


def test_bad_magic_rejected():
    with pytest.raises(ClusterError, match="magic"):
        decode_checkpoint(b"WRONG" + b"\x00" * 16)


def test_previous_layout_refused_by_name():
    # RPCK1 carried a per-party tally slot (decoding it as a later
    # layout would misread the tally as the party blob's length prefix);
    # RPCK2 staged frames in the deleted per-frame TCP encoding.
    blob = encode_checkpoint(ClusterCheckpoint(next_round=0, parties=[]))
    for previous in (b"RPCK1", b"RPCK2"):
        with pytest.raises(ClusterError, match=f"{previous.decode()}.*RPCK3"):
            decode_checkpoint(previous + blob[len(MAGIC):])


def test_truncated_checkpoint_rejected():
    blob = encode_checkpoint(
        ClusterCheckpoint(
            next_round=3,
            parties=[PartyCheckpoint.of(SilentParty(0))],
        )
    )
    with pytest.raises(ClusterError):
        decode_checkpoint(blob[: len(blob) // 2])


def test_trailing_garbage_rejected():
    blob = encode_checkpoint(ClusterCheckpoint(next_round=0, parties=[]))
    with pytest.raises(ClusterError, match="trailing"):
        decode_checkpoint(blob + b"\x00")


def test_party_blob_id_mismatch_rejected():
    record = PartyCheckpoint(
        party_id=7, party_blob=pickle.dumps(SilentParty(3))
    )
    with pytest.raises(ClusterError, match="mismatch"):
        record.restore_party()


def test_corrupt_party_blob_rejected():
    record = PartyCheckpoint(party_id=0, party_blob=b"\x80garbage")
    with pytest.raises(ClusterError, match="corrupt"):
        record.restore_party()


def test_save_is_atomic_no_temp_left(tmp_path):
    checkpoint = ClusterCheckpoint(next_round=1, parties=[])
    save_checkpoint(tmp_path, "s", checkpoint)
    assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]
    assert (tmp_path / "s.ckpt").read_bytes().startswith(MAGIC)
