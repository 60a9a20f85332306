"""The counting certificate: one PCD skeleton under every counting SRDS.

Thm 2.8's recursive count and §1.2's registered-PKI "natural approach"
are the same certificate with two different leaves.  An aggregate
attests to the statement

    (binding, count, lo, hi, accumulator, board)

— "``count`` distinct valid base signatures on the message behind
``binding``, with indices in ``[lo, hi]``, folding to ``accumulator``,
under the keys of bulletin board ``board``" — by a proof under one of
two relations.  The **leaf** relation is the scheme's own (what a valid
base signature is, and how the board authenticates its key).  The
**internal** relation is written here, once: the children verify under
the same binding and board, their ranges are pairwise disjoint (the
anti-double-counting device of §2.2), their counts add, and their
accumulators fold.

A scheme plugs in through a :class:`Certificate` (its relation names,
aggregate dataclass, wire decoder and accumulator fold) and keeps what
differs: the signature dataclasses, the leaf relation and its prover,
key handling.  Everything below is plain functions over those values.
"""

from __future__ import annotations

import operator
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.crypto.snark import Proof, SnarkSystem
from repro.errors import MALFORMED_INPUT_ERRORS, ProofError, SignatureError
from repro.srds.base import PublicParameters, SRDSSignature
from repro.utils.serialization import (
    canonical_tuple,
    decode_sequence,
    decode_uint,
    encode_sequence,
    encode_uint,
)

T = TypeVar("T")


class CountAggregate(SRDSSignature):
    """What the skeleton reads off a scheme's aggregate dataclass.

    The dataclass declares its fields in the order ``(count, lo, hi,
    <accumulator>, <board>, <message binding>, proof)`` under the
    scheme's own names — the skeleton builds one positionally — and
    aliases the middle three as ``accumulator``, ``board`` and
    ``message_binding``.  The wire order is the dataclass's ``encode``.
    """

    count: int
    lo: int           # smallest contributing virtual index
    hi: int           # largest contributing virtual index
    accumulator: bytes
    board: bytes
    message_binding: bytes
    proof: Proof

    @property
    def min_index(self) -> int:
        return self.lo

    @property
    def max_index(self) -> int:
        return self.hi


class Certificate(NamedTuple):
    """The scheme-specific parts the skeleton is parametrised by."""

    leaf: str         # relation names registered with the SNARK system
    internal: str
    #: The aggregate dataclass: the type ``verify`` insists on, and the
    #: positional constructor (see :class:`CountAggregate`).
    aggregate: Callable[..., CountAggregate]
    #: Wire decoder of one aggregate; raises on malformed bytes.
    decode: Callable[[bytes], CountAggregate]
    #: Fold of child (or contribution) accumulators, in index order.
    fold: Callable[[Iterable[bytes]], bytes]
    #: ``precedes(hi, lo)``: a range ending at ``hi`` lies wholly before
    #: one starting at ``lo``.  The range ablation replaces exactly this.
    precedes: Callable[[int, int], bool] = operator.lt


# -- statements -------------------------------------------------------------------


def encode_statement(binding: bytes, count: int, lo: int, hi: int,
                     accumulator: bytes, board: bytes) -> bytes:
    return canonical_tuple(
        binding,
        encode_uint(count),
        encode_uint(lo),
        encode_uint(hi),
        accumulator,
        board,
    )


def decode_statement(
    statement: bytes,
) -> Tuple[bytes, int, int, int, bytes, bytes]:
    """Inverse of :func:`encode_statement`; raises a member of
    ``MALFORMED_INPUT_ERRORS`` on anything else."""
    fields, _ = decode_sequence(statement, 0)
    if len(fields) != 6:
        raise ProofError("malformed counting statement")
    binding, count, lo, hi, accumulator, board = fields
    return (
        binding,
        decode_uint(count, 0)[0],
        decode_uint(lo, 0)[0],
        decode_uint(hi, 0)[0],
        accumulator,
        board,
    )


def decode_wire_fields(
    data: bytes, relation: str
) -> Tuple[int, int, int, bytes, bytes, bytes, Proof]:
    """An aggregate's seven wire fields (the middle three in the
    scheme's own order), or a member of ``MALFORMED_INPUT_ERRORS``.  The
    wire does not carry the relation name, so ``relation`` is advisory."""
    fields, _ = decode_sequence(data, 0)
    if len(fields) != 7:
        raise SignatureError("malformed counting-aggregate encoding")
    count, lo, hi, first, second, third, tag = fields
    return (
        decode_uint(count, 0)[0], decode_uint(lo, 0)[0],
        decode_uint(hi, 0)[0], first, second, third,
        Proof(relation_name=relation, tag=tag),
    )


def statement_of(binding: bytes, aggregate: CountAggregate) -> bytes:
    """The statement ``aggregate``'s proof attests to."""
    return encode_statement(
        binding, aggregate.count, aggregate.lo, aggregate.hi,
        aggregate.accumulator, aggregate.board,
    )


# -- accepting a certificate -------------------------------------------------------


def accepts(snark: SnarkSystem, relations: Sequence[str],
            statement: bytes, proof: Proof) -> bool:
    """Whether ``proof`` verifies under any of ``relations``.

    The relation name is not carried on the wire; the tag binds it, so
    at most one can verify.
    """
    for relation in relations:
        if snark.verify(relation, statement, proof):
            return True
    return False


def admits(snark: SnarkSystem, certificate: Certificate,
           aggregate: CountAggregate, binding: bytes,
           message_binding: bytes, board: bytes) -> bool:
    """Aggregate1's check on a received aggregate: this message, this
    board, a verifying proof."""
    return (
        aggregate.message_binding == message_binding
        and aggregate.board == board
        and accepts(
            snark, (certificate.leaf, certificate.internal),
            statement_of(binding, aggregate), aggregate.proof,
        )
    )


def verify(pp: PublicParameters, certificate: Certificate,
           signature: SRDSSignature, binding: bytes,
           message_binding: bytes, board: bytes) -> bool:
    """``Verify``: an admitted aggregate whose count reaches the threshold."""
    return (
        isinstance(signature, certificate.aggregate)
        and admits(pp.extra["snark"], certificate, signature, binding,
                   message_binding, board)
        and signature.count >= pp.acceptance_threshold
    )


def board_binding(
    pp: PublicParameters,
    verification_keys: Dict[int, bytes],
    build: Callable[[Dict[int, bytes]], T],
) -> T:
    """Per-run cache of what a scheme derives from the bulletin board
    (the vk Merkle tree; the registered board digest).

    Deriving it is Theta(n), and pi_ba consults the board at every tree
    node; the board is fixed for the duration of a run, so the value for
    the last board seen is kept on ``pp``.  The cache holds a snapshot
    of that board's contents and compares it on every lookup, so a
    *different* board — another dict, or the same dict after an in-place
    key replacement (the bare-PKI experiments do both) — rebuilds,
    whatever address it happens to live at.
    """
    cached = pp.extra.get("_board_binding")
    if cached is not None and cached[0] == verification_keys:
        return cached[1]
    value = build(verification_keys)
    pp.extra["_board_binding"] = (dict(verification_keys), value)
    return value


# -- Aggregate1: the range discipline ----------------------------------------------


_BY_RANGE = operator.attrgetter("lo")


def select_disjoint(
    aggregates: Iterable[CountAggregate],
    base_indices: Iterable[int],
    precedes: Callable[[int, int], bool],
) -> Tuple[List[int], List[CountAggregate]]:
    """Greedy disjoint-range selection, largest count first
    (deterministic tie-break by range, then arrival), so overlapping
    adversarial duplicates are filtered here rather than failing
    Aggregate2 — which is exactly the planar order of the tree.

    Returns the base indices no chosen aggregate covers (they may
    already be counted inside it), ascending, and the chosen aggregates
    by range.
    """
    chosen: List[CountAggregate] = []
    for aggregate in sorted(aggregates, key=lambda a: (-a.count, a.lo, a.hi)):
        if all(
            precedes(aggregate.hi, other.lo) or precedes(other.hi, aggregate.lo)
            for other in chosen
        ):
            chosen.append(aggregate)
    chosen.sort(key=_BY_RANGE)
    uncovered = [
        index for index in sorted(base_indices)
        if all(
            precedes(index, aggregate.lo) or precedes(aggregate.hi, index)
            for aggregate in chosen
        )
    ]
    return uncovered, chosen


# -- Aggregate2: proving -------------------------------------------------------------


def seal(snark: SnarkSystem, certificate: Certificate, relation: str,
         binding: bytes, count: int, lo: int, hi: int, accumulator: bytes,
         board: bytes, message_binding: bytes,
         witness: bytes) -> CountAggregate:
    """Prove the statement under ``relation`` and build the aggregate
    that carries the proof; both provers end here."""
    proof = snark.prove(
        relation,
        encode_statement(binding, count, lo, hi, accumulator, board),
        witness,
    )
    return certificate.aggregate(
        count, lo, hi, accumulator, board, message_binding, proof
    )


def combine(snark: SnarkSystem, certificate: Certificate, binding: bytes,
            parts: Sequence[CountAggregate]) -> Optional[CountAggregate]:
    """Aggregate2's tail: nothing is bottom, one part is itself, several
    are proven under the internal relation."""
    if len(parts) < 2:
        return parts[0] if parts else None
    ordered = sorted(parts, key=_BY_RANGE)
    first = ordered[0]
    return seal(
        snark, certificate, certificate.internal, binding,
        sum(part.count for part in ordered),
        first.lo,
        max(part.hi for part in ordered),
        certificate.fold(part.accumulator for part in ordered),
        first.board,
        first.message_binding,
        encode_sequence([part.encode() for part in ordered]),
    )


def check_internal(snark: SnarkSystem, certificate: Certificate,
                   statement: bytes, witness: bytes) -> bool:
    """The internal relation.  The witness is the children's wire
    encodings, in range order."""
    try:
        binding, count, lo, hi, accumulator, board = decode_statement(
            statement
        )
        blobs, _ = decode_sequence(witness, 0)
        children = [certificate.decode(blob) for blob in blobs]
        folded = certificate.fold(child.accumulator for child in children)
    except MALFORMED_INPUT_ERRORS:
        return False
    if not children:
        return False
    relations = (certificate.leaf, certificate.internal)
    for child in children:
        # A child's statement is formed under the parent's binding, so
        # one proven for another message cannot verify here.
        if child.board != board or not accepts(
            snark, relations, statement_of(binding, child), child.proof
        ):
            return False
    # Each range wholly before the next: sorted and pairwise disjoint —
    # the anti-double-counting rule.
    for first, second in zip(children, children[1:]):
        if not certificate.precedes(first.hi, second.lo):
            return False
    return (
        sum(child.count for child in children) == count
        and min(child.lo for child in children) == lo
        and max(child.hi for child in children) == hi
        and folded == accumulator
    )
