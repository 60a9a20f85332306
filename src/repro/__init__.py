"""repro — a reproduction of Boyle, Cohen & Goel (PODC 2021):
"Breaking the O(sqrt(n))-Bit Barrier: Byzantine Agreement with Polylog
Bits Per Party".

Public API tour:

* :class:`repro.params.ProtocolParameters` — every tunable in one place.
* :mod:`repro.srds` — the paper's core primitive (SRDS) and its two
  constructions (:class:`~repro.srds.owf.OwfSRDS`,
  :class:`~repro.srds.snark_based.SnarkSRDS`), plus the Fig. 1/2 security
  experiments in :mod:`repro.srds.experiments`.
* :func:`repro.protocols.balanced_ba.run_balanced_ba` — the headline
  pi_ba protocol (Fig. 3) with full per-party communication accounting.
* :class:`repro.protocols.broadcast.BroadcastService` — the amortized
  broadcast corollary (Corollary 1.2(1)).
* :mod:`repro.protocols.baselines` — the Table-1 comparison protocols.
* :mod:`repro.lowerbounds` — executable companions to Thms 1.3/1.4.
* :mod:`repro.aetree`, :mod:`repro.net`, :mod:`repro.crypto`,
  :mod:`repro.fields`, :mod:`repro.pki` — the substrates, all built from
  scratch.

Quickstart::

    from repro import quick_ba

    result = quick_ba(n=64, input_bit=1, seed=7)
    assert result.agreement and result.validity

The re-exports below resolve lazily (PEP 562): ``import repro`` pulls in
no protocol or crypto modules, so worker processes — which import
``repro.cluster.worker`` through this package on every spawn — pay only
for what they touch.
"""

from typing import TYPE_CHECKING, List

__version__ = "1.0.0"

#: Lazily re-exported name -> defining module.
_EXPORTS = {
    "AdversaryBehavior": "repro.protocols.balanced_ba",
    "BAResult": "repro.protocols.balanced_ba",
    "DEFAULT_PARAMETERS": "repro.params",
    "OwfSRDS": "repro.srds.owf",
    "ProtocolParameters": "repro.params",
    "SnarkSRDS": "repro.srds.snark_based",
    "run_balanced_ba": "repro.protocols.balanced_ba",
}

__all__ = sorted(_EXPORTS) + ["quick_ba"]

if TYPE_CHECKING:  # static importers see the eager names
    from repro.params import DEFAULT_PARAMETERS, ProtocolParameters
    from repro.protocols.balanced_ba import (
        AdversaryBehavior,
        BAResult,
        run_balanced_ba,
    )
    from repro.srds.owf import OwfSRDS
    from repro.srds.snark_based import SnarkSRDS


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))


def quick_ba(n: int = 64, input_bit: int = 1, seed: int = 0,
             corrupt_fraction: float = None):
    """Run one pi_ba execution with sensible defaults (see README).

    Uses the SNARK-based SRDS with the fast simulated base-signature
    scheme; all honest parties hold ``input_bit``; corruption is a random
    set at the parameter default (or ``corrupt_fraction``).
    """
    from repro.net.adversary import random_corruption
    from repro.params import DEFAULT_PARAMETERS, ProtocolParameters
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.srds import scheme_by_name
    from repro.utils.randomness import Randomness

    params = (
        ProtocolParameters(corruption_ratio=corrupt_fraction)
        if corrupt_fraction is not None
        else DEFAULT_PARAMETERS
    )
    rng = Randomness(seed)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("corrupt"))
    inputs = {i: input_bit for i in range(n)}
    return run_balanced_ba(inputs, plan, scheme_by_name("snark-hash"),
                           params, rng.fork("run"))
