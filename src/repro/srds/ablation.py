"""Deliberately weakened SRDS variants for the ablation experiments.

DESIGN.md (§5) calls out two load-bearing design choices and this module
removes each so the ablation benchmarks can demonstrate the attacks they
prevent actually working:

* :class:`NoRangeCheckSnarkSRDS` — the anti-double-counting discipline
  (index dedup, disjoint ranges, planar min/max checks of §2.2/Fig. 3)
  stripped from the SNARK construction (E7);
* :class:`RevealingOwfSRDS` — *oblivious key generation* stripped from
  the sortition construction: verification keys carry a visible signer
  flag, so a setup-adaptive adversary (the paper's corruption model!)
  simply corrupts the signers and starves the threshold (E12).

**These schemes are insecure by construction.  Never use them outside
the ablation experiments.**
"""

from __future__ import annotations

from repro.srds.snark_based import SnarkSRDS


class NoRangeCheckSnarkSRDS(SnarkSRDS):
    """The SNARK-based SRDS with the disjoint-range discipline removed.

    The counting skeleton asks one question about ranges —
    ``precedes(hi, lo)``: does a range ending at ``hi`` lie wholly
    before one starting at ``lo``? — and this variant answers "yes" to
    all of them.  So ``aggregate1`` keeps *all* valid child aggregates
    (no greedy disjoint-range filter, no containment dropping), and the
    internal circuit ``aggregate2`` proves no longer checks range
    disjointness.  The replay-forgery adversary then double-counts its
    coalition at every aggregation level and sails past the majority
    threshold — E7 measures exactly that.
    """

    name = "srds-snark-pcd (ranges DISABLED — ablation only)"

    # Its own relation name: the tag binds it, so a lax proof never
    # verifies under the secure scheme, even on the same CRS.
    certificate = SnarkSRDS.certificate._replace(
        internal="srds/internal-sum-NO-RANGES",
        precedes=lambda hi, lo: True,
    )


class RevealingOwfSRDS:
    """The sortition SRDS with oblivious keygen removed (E12 ablation).

    Identical to :class:`repro.srds.owf.OwfSRDS` except that every
    published verification key is prefixed with a flag byte announcing
    whether a signing key exists behind it.  Everything still *works*
    when corruption is random — but the paper's model lets the adversary
    corrupt **after seeing the bulletin board**, and against that
    adversary the scheme collapses: corrupting the flagged signers (well
    within the beta*n budget, since there are only polylog of them)
    removes every honest signature and robustness dies.

    Implemented by delegation rather than inheritance so the flag byte
    handling stays in one visible place.
    """

    name = "srds-owf-sortition (signer flag LEAKED — ablation only)"

    def __init__(self, **owf_kwargs) -> None:
        from repro.srds.owf import OwfSRDS

        self._inner = OwfSRDS(**owf_kwargs)
        self.pki_mode = self._inner.pki_mode
        self.assumptions = self._inner.assumptions
        self.needs_crs = self._inner.needs_crs

    def setup(self, num_parties, rng):
        return self._inner.setup(num_parties, rng)

    def keygen(self, pp, rng):
        vk, sk = self._inner.keygen(pp, rng)
        flag = b"\x01" if sk is not None else b"\x00"
        return flag + vk, sk

    @staticmethod
    def is_flagged_signer(verification_key: bytes) -> bool:
        """What the setup-adaptive adversary reads off the board."""
        return bool(verification_key) and verification_key[0] == 1

    def _strip(self, verification_keys):
        return {
            index: key[1:] for index, key in verification_keys.items()
        }

    def sign(self, pp, index, signing_key, message):
        return self._inner.sign(pp, index, signing_key, message)

    def aggregate1(self, pp, verification_keys, message, signatures):
        return self._inner.aggregate1(
            pp, self._strip(verification_keys), message, signatures
        )

    def aggregate2(self, pp, message, filtered):
        return self._inner.aggregate2(pp, message, filtered)

    def aggregate(self, pp, verification_keys, message, signatures):
        return self._inner.aggregate(
            pp, self._strip(verification_keys), message, signatures
        )

    def verify(self, pp, verification_keys, message, signature):
        return self._inner.verify(
            pp, self._strip(verification_keys), message, signature
        )

    def describe(self):
        return {
            "scheme": self.name,
            "setup": self.pki_mode.value,
            "assumptions": self.assumptions,
        }
