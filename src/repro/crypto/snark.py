"""A simulated SNARK / proof-carrying-data (PCD) system.

The paper's bare-PKI SRDS construction (Thm 2.8) assumes SNARKs with
linear extraction, from which Bitansky et al. build PCD for
logarithmic-depth DAGs.  Real SNARKs cannot be built in a dependency-free
offline Python repo, so — per the substitution rule recorded in DESIGN.md
— we implement the closest synthetic equivalent that exercises the same
code path:

* **Succinctness**: proofs are a constant 32 bytes regardless of witness
  size, so the communication accounting (the quantity the paper is about)
  is identical to a real PCD instantiation up to constants.
* **Soundness against modeled adversaries**: ``Setup`` samples a secret
  MAC key (the "trapdoor") kept inside the prover object.  A proof for
  statement ``x`` is ``MAC(trapdoor, x)``, and it is only issued for a
  statement a registered *circuit* outputs: the circuit receives the
  public input and the witness and returns the statement the witness
  proves (or ``None``), so the prover evaluates each circuit once and
  takes the statement from it rather than deriving it a second time.
  A boolean NP relation is the circuit that outputs its own statement.
  Experiment adversaries receive the public CRS handle but never the
  trapdoor, so they cannot mint proofs for false statements (they *can*
  replay proofs for true ones — exactly as with a real SNARK).
* **Recursive composition (PCD)**: a circuit may itself call ``verify``
  on inner proofs carried in the witness; since the prover holds the
  verification capability, recursion works at any depth.

The one property intentionally *not* modeled is public verifiability
against unbounded provers: verification goes through the
:class:`SnarkSystem` object, which plays the role of the knowledge
assumption.  No protocol-level logic depends on the distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.prf import prf
from repro.errors import ProofError

PROOF_BYTES = 32

# A compliance predicate receives (statement, witness) and decides the
# NP relation.  Statements and witnesses are canonical byte strings.
Relation = Callable[[bytes, bytes], bool]
# A circuit receives (public, witness) and outputs the statement the
# witness proves about the public input, or ``None`` when it proves none.
Circuit = Callable[[bytes, bytes], Optional[bytes]]


@dataclass(frozen=True)
class Proof:
    """A succinct argument for one statement under one registered relation."""

    relation_name: str
    tag: bytes

    def encode(self) -> bytes:
        """Wire form of the proof: the constant-size tag."""
        return self.tag

    def size_bytes(self) -> int:
        """Proof size on the wire — constant, the point of a SNARK."""
        return PROOF_BYTES


class SnarkSystem:
    """A designated-setup succinct argument system with registered circuits.

    One instance corresponds to one CRS.  Circuits are registered by name
    (the circuits of a real SNARK deployment); proving evaluates the
    circuit once on the actual witness and certifies the statement it
    outputs, verification checks only the constant-size tag.  The
    trapdoor never leaves the instance.
    """

    def __init__(self, crs_seed: bytes) -> None:
        self._trapdoor = prf(crs_seed, "snark/trapdoor")
        self.crs = prf(crs_seed, "snark/public-crs")
        self._relations: Dict[str, Circuit] = {}

    def register_circuit(self, name: str, circuit: Circuit) -> None:
        """Register a circuit under a unique name."""
        if name in self._relations:
            raise ProofError(f"relation {name!r} already registered")
        self._relations[name] = circuit

    def register_relation(self, name: str, relation: Relation) -> None:
        """Register an NP relation: the circuit that outputs its own
        statement when the witness satisfies it."""
        self.register_circuit(
            name,
            lambda statement, witness: (
                statement if relation(statement, witness) else None
            ),
        )

    def has_relation(self, name: str) -> bool:
        """Whether a circuit with this name is registered."""
        return name in self._relations

    def prove_output(
        self, name: str, public: bytes, witness: bytes
    ) -> Tuple[bytes, Proof]:
        """Evaluate circuit ``name`` on ``(public, witness)`` and prove
        the statement it outputs; returns ``(statement, proof)``.

        Raises :class:`ProofError` if the circuit outputs nothing — an
        honest prover with a bad witness is a bug, and a simulated
        adversary must not be able to get proofs of falsehoods.
        """
        circuit = self._relations.get(name)
        if circuit is None:
            raise ProofError(f"unknown relation {name!r}")
        statement = circuit(public, witness)
        if statement is None:
            raise ProofError(f"witness does not satisfy relation {name!r}")
        return statement, Proof(relation_name=name, tag=self._tag(name, statement))

    def prove(self, relation_name: str, statement: bytes, witness: bytes) -> Proof:
        """Prove ``statement`` with the statement as the public input;
        :class:`ProofError` unless the circuit outputs exactly it."""
        output, proof = self.prove_output(relation_name, statement, witness)
        if output != statement:
            raise ProofError(
                f"relation {relation_name!r} does not output this statement"
            )
        return proof

    def verify(self, relation_name: str, statement: bytes, proof: Proof) -> bool:
        """Verify a proof; False on any mismatch (never raises for bad tags).

        The tag itself binds the relation name (it is part of the MAC
        input), so ``proof.relation_name`` is advisory metadata and is not
        trusted here — decoded wire proofs may carry a stale name.
        """
        if relation_name not in self._relations:
            return False
        return proof.tag == self._tag(relation_name, statement)

    def _tag(self, relation_name: str, statement: bytes) -> bytes:
        return prf(
            self._trapdoor,
            "snark/proof-tag",
            relation_name.encode("utf-8"),
            statement,
        )


def forge_random_proof(relation_name: str, rng) -> Proof:
    """An adversarial proof attempt: a uniformly random tag.

    Helper for negative tests — succeeds against a sound system only with
    probability 2^-256.
    """
    return Proof(relation_name=relation_name, tag=rng.random_bytes(PROOF_BYTES))
