"""SRDS: the paper's core primitive, its two constructions, and games."""

from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.srds.base import PublicParameters, SRDSScheme, SRDSSignature
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS

#: The one label → scheme table every surface names schemes by: the
#: CLIs' ``--scheme``, gateway sessions, the campaign matrix and the
#: tests.  ``snark`` is the bare-PKI scheme (Thm 2.8) over real Schnorr
#: base signatures, ``snark-hash`` the same scheme over the simulated
#: hash base (the fast one for sweeps), ``owf`` the trusted-PKI
#: Lamport/sortition scheme (Thm 2.7) signing 64-bit digests.  The
#: paper's Lamport-128 row is ``OwfSRDS()`` and is built where it is
#: measured (Table 1, the OTS ablation), not named here.
SCHEMES: Dict[str, Callable[[], SRDSScheme]] = {
    "snark": SnarkSRDS,
    "snark-hash": lambda: SnarkSRDS(HashRegistryBase()),
    "owf": lambda: OwfSRDS(message_bits=64),
}


def scheme_by_name(name: str) -> SRDSScheme:
    """A fresh scheme for one :data:`SCHEMES` label."""
    factory = SCHEMES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown SRDS scheme {name!r} (expected one of {tuple(SCHEMES)})"
        )
    return factory()


__all__ = [
    "SCHEMES",
    "OwfSRDS",
    "PublicParameters",
    "SRDSScheme",
    "SRDSSignature",
    "SnarkSRDS",
    "scheme_by_name",
]
