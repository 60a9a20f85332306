"""Durable checkpoints for sharded party execution.

A checkpoint freezes one shard of a run at a round barrier so a
restarted worker (or a resumed supervisor) can continue *exactly* where
the crashed process stopped.  Per party it records:

* the **next round** the shard will execute (state is "post round
  ``next_round - 1``");
* the **party state snapshot** — the :class:`~repro.net.party.Party`
  object, pickled and framed with :mod:`repro.utils.serialization`
  (length-prefixed, versioned, magic-tagged);
* the party's **send sequence counter** (frames carry per-sender ``seq``
  numbers; resumed sends must continue the numbering for canonical
  inbox order to survive a restart);
* the party's **trace offset** — the per-party
  :class:`~repro.runtime.trace.TraceRecorder` sequence counter, so
  regenerated events after a resume carry the same ``seq`` stamps and
  the merged trace stays byte-identical to an uninterrupted run.

No ledger state lives here: a shard never owns a ledger, and the
supervisor carries its own across a restart (``supervisor.ckpt``).

The container additionally stores the shard's **staged frames** (sent
but not yet due for delivery) as one :mod:`repro.net.trains` body: the
frames the shard's round core holds at the barrier, in
``(deliver_round, sender, seq)`` order.

Durability: :func:`save_checkpoint` publishes through
:func:`repro.utils.durable.write_atomic` (temp file, fsync, atomic
replace), so a crash mid-write never leaves a torn checkpoint behind —
the previous one survives intact.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ClusterError, SerializationError
from repro.net.party import Frame, Party
from repro.net.trains import decode_train_body, encode_train_body
from repro.utils.durable import write_atomic
from repro.utils.serialization import (
    decode_bytes,
    decode_uint,
    encode_bytes,
    encode_uint,
)

#: Format magic + version.  Bump the trailing digit on layout changes
#: (``RPCK1`` carried a per-party tally slot, ``RPCK2`` staged frames in
#: the per-frame TCP encoding; both are refused by name).
MAGIC = b"RPCK3"


@dataclass
class PartyCheckpoint:
    """One party's frozen state inside a :class:`ClusterCheckpoint`."""

    party_id: int
    party_blob: bytes
    send_seq: int = 0
    trace_seq: int = 0

    @classmethod
    def of(
        cls, party: Party, send_seq: int = 0, trace_seq: int = 0
    ) -> "PartyCheckpoint":
        """Snapshot one live party object."""
        return cls(
            party_id=party.party_id,
            party_blob=pickle.dumps(party, protocol=pickle.HIGHEST_PROTOCOL),
            send_seq=send_seq,
            trace_seq=trace_seq,
        )

    def restore_party(self) -> Party:
        """Rebuild the party object from its snapshot."""
        try:
            party = pickle.loads(self.party_blob)
        except Exception as exc:  # pickle raises a zoo of types
            raise ClusterError(
                f"checkpoint party blob for {self.party_id} is corrupt: {exc}"
            ) from exc
        if not isinstance(party, Party):
            raise ClusterError(
                f"checkpoint blob for {self.party_id} decoded to "
                f"{type(party).__name__}, not a Party"
            )
        if party.party_id != self.party_id:
            raise ClusterError(
                f"checkpoint id mismatch: record says {self.party_id}, "
                f"blob says {party.party_id}"
            )
        return party


@dataclass
class ClusterCheckpoint:
    """One shard (or the whole run) frozen at a round barrier."""

    next_round: int
    parties: List[PartyCheckpoint]
    staged: List[Frame] = field(default_factory=list)

    def by_party(self) -> Dict[int, PartyCheckpoint]:
        return {record.party_id: record for record in self.parties}


def encode_checkpoint(checkpoint: ClusterCheckpoint) -> bytes:
    """Canonical byte encoding of one checkpoint."""
    parts = [MAGIC, encode_uint(checkpoint.next_round)]
    parts.append(encode_uint(len(checkpoint.parties)))
    for record in sorted(checkpoint.parties, key=lambda r: r.party_id):
        parts.append(encode_uint(record.party_id))
        parts.append(encode_uint(record.send_seq))
        parts.append(encode_uint(record.trace_seq))
        parts.append(encode_bytes(record.party_blob))
    parts.append(encode_bytes(encode_train_body(checkpoint.staged)))
    return b"".join(parts)


def decode_checkpoint(data: bytes) -> ClusterCheckpoint:
    """Inverse of :func:`encode_checkpoint`."""
    if not data.startswith(MAGIC):
        raise ClusterError(
            f"not a cluster checkpoint (magic {data[:5]!r}, want {MAGIC!r})"
        )
    try:
        offset = len(MAGIC)
        next_round, offset = decode_uint(data, offset)
        count, offset = decode_uint(data, offset)
        parties: List[PartyCheckpoint] = []
        for _ in range(count):
            party_id, offset = decode_uint(data, offset)
            send_seq, offset = decode_uint(data, offset)
            trace_seq, offset = decode_uint(data, offset)
            blob, offset = decode_bytes(data, offset)
            parties.append(
                PartyCheckpoint(
                    party_id=party_id,
                    party_blob=blob,
                    send_seq=send_seq,
                    trace_seq=trace_seq,
                )
            )
        train, offset = decode_bytes(data, offset)
        staged = decode_train_body(train)
    except SerializationError as exc:
        raise ClusterError(f"truncated cluster checkpoint: {exc}") from exc
    if offset != len(data):
        raise ClusterError(
            f"{len(data) - offset} trailing bytes after cluster checkpoint"
        )
    return ClusterCheckpoint(
        next_round=next_round, parties=parties, staged=staged
    )


def checkpoint_path(directory: Union[str, Path], name: str) -> Path:
    """Canonical on-disk location: ``<dir>/<name>.ckpt``."""
    return Path(directory) / f"{name}.ckpt"


def save_checkpoint(
    directory: Union[str, Path], name: str, checkpoint: ClusterCheckpoint
) -> Path:
    """Durably persist a checkpoint (write-temp, fsync, atomic rename)."""
    return write_atomic(
        checkpoint_path(directory, name), encode_checkpoint(checkpoint)
    )


def load_checkpoint(
    directory: Union[str, Path], name: str
) -> Optional[ClusterCheckpoint]:
    """Load a checkpoint if one exists (``None`` when absent)."""
    target = checkpoint_path(directory, name)
    if not target.exists():
        return None
    return decode_checkpoint(target.read_bytes())
