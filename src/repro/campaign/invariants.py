"""Paper-level invariants checked after every campaign run.

Each checker returns a list of :class:`Violation` records — empty means
the guarantee held.  The names are stable (they form the *failure
signature* the minimizer preserves):

* ``agreement`` — some honest party output differs (Thm 3.1 agreement);
* ``no-output`` — an honest party terminated without an output;
* ``validity`` — unanimous honest inputs, different honest output
  (Thm 3.1 validity);
* ``bits-budget`` — measured ``max_bits_per_party`` exceeds the
  analytic polylog ceiling from
  :func:`repro.protocols.cost_model.pi_ba_per_party_budget`;
* ``gradecast`` — one of the three gradecast properties failed;
* ``srds-robustness`` — the Fig. 1 experiment's root aggregate failed
  verification (the adversary beat robustness);
* ``srds-forgery`` — the Fig. 2 adversary produced a verifying
  signature on a fresh message (unforgeability broken).

Asynchronous ABA runs reuse the same stable names through
:func:`check_aba_invariants`, which adds churn excusals: parties that
departed mid-run or joined late are excused from *producing* an output
(graceful degradation), but any output they did produce still counts
for agreement and validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Violation:
    """One observed breach of a paper guarantee."""

    name: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.detail}"


def check_ba_invariants(
    inputs: Dict[int, int],
    outputs: Dict[int, Optional[int]],
    honest: List[int],
    *,
    measured_bits: Optional[int] = None,
    budget_bits: Optional[int] = None,
) -> List[Violation]:
    """Agreement + validity over honest outputs, plus the bits budget:
    :func:`check_aba_invariants` with nobody excused."""
    return check_aba_invariants(
        inputs, outputs, honest,
        measured_bits=measured_bits, budget_bits=budget_bits,
    )


def check_aba_invariants(
    inputs: Dict[int, int],
    outputs: Dict[int, Optional[int]],
    honest: List[int],
    *,
    departed: Iterable[int] = (),
    joined_late: Iterable[int] = (),
    measured_bits: Optional[int] = None,
    budget_bits: Optional[int] = None,
) -> List[Violation]:
    """Asynchronous ABA guarantees, with churn-aware liveness.

    Agreement and validity are judged over *every* honest output —
    a late joiner or a departing party that decided the wrong value is
    a loud failure, not churn noise.  Only the ``no-output`` (liveness)
    check excuses ``departed`` (honest parties that left mid-run) and
    ``joined_late`` (parties absent at the start): the model does not
    owe them a decision, which is exactly the graceful-degradation
    contract the churn schedules probe.
    """
    violations: List[Violation] = []
    excused = set(departed) | set(joined_late)
    honest_outputs = {p: outputs.get(p) for p in honest}
    missing = sorted(
        p
        for p, v in honest_outputs.items()
        if v is None and p not in excused
    )
    if missing:
        violations.append(
            Violation("no-output", f"honest parties without output: {missing}")
        )
    decided = {v for v in honest_outputs.values() if v is not None}
    if len(decided) > 1:
        violations.append(
            Violation(
                "agreement",
                f"honest outputs split: {sorted(decided)} "
                f"({ {p: v for p, v in sorted(honest_outputs.items())} })",
            )
        )
    honest_inputs = {inputs[p] for p in honest if p in inputs}
    if len(honest_inputs) == 1 and decided:
        (unanimous,) = honest_inputs
        if decided != {unanimous}:
            violations.append(
                Violation(
                    "validity",
                    f"honest inputs unanimous on {unanimous}, "
                    f"outputs {sorted(decided)}",
                )
            )
    if (
        measured_bits is not None
        and budget_bits is not None
        and measured_bits > budget_bits
    ):
        violations.append(
            Violation(
                "bits-budget",
                f"max_bits_per_party {measured_bits} exceeds analytic "
                f"budget {budget_bits} "
                f"(ratio {measured_bits / budget_bits:.2f})",
            )
        )
    return violations


def check_gradecast_invariants(
    outputs: Dict[int, Tuple[int, int]],
    sender_honest: bool,
    sender_value: int,
) -> List[Violation]:
    """The three gradecast properties, as Violation records."""
    from repro.protocols.gradecast import check_gradecast_guarantees

    if check_gradecast_guarantees(outputs, sender_honest, sender_value):
        return []
    return [
        Violation(
            "gradecast",
            f"gradecast guarantees failed (sender_honest={sender_honest}, "
            f"value={sender_value}, outputs={dict(sorted(outputs.items()))})",
        )
    ]


def check_broadcast_invariants(
    outputs: Dict[int, int],
    sender_honest: bool,
    sender_value: int,
) -> List[Violation]:
    """Byzantine broadcast (Dolev-Strong): agreement always; output =
    sender's value when the sender is honest.  A common fallback output
    (the protocol's ⊥ default) counts as agreement when the sender is
    corrupt — that *is* the guarantee."""
    violations: List[Violation] = []
    decided = set(outputs.values())
    if len(decided) > 1:
        violations.append(
            Violation(
                "agreement",
                f"honest broadcast outputs split: {sorted(decided)}",
            )
        )
    if sender_honest and decided and decided != {sender_value}:
        violations.append(
            Violation(
                "validity",
                f"honest sender broadcast {sender_value}, "
                f"outputs {sorted(decided)}",
            )
        )
    return violations


def check_srds_robustness(verdict: bool, context: str) -> List[Violation]:
    """Fig. 1: the root aggregate must verify (challenger wins)."""
    if verdict:
        return []
    return [
        Violation(
            "srds-robustness",
            f"root aggregate failed verification under {context}",
        )
    ]


def check_srds_unforgeability(verdict: bool, context: str) -> List[Violation]:
    """Fig. 2: the adversary must lose (no verifying forgery)."""
    if not verdict:
        return []
    return [
        Violation(
            "srds-forgery", f"forgery verified under {context}"
        )
    ]
