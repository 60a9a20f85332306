"""SRDS: the paper's core primitive, its two constructions, and games."""

from repro.errors import ConfigurationError
from repro.srds.base import PublicParameters, SRDSScheme, SRDSSignature
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS


def scheme_by_name(name: str) -> SRDSScheme:
    """``"snark"`` / ``"owf"`` → a fresh default-parameter scheme."""
    if name == "snark":
        return SnarkSRDS()
    if name == "owf":
        return OwfSRDS()
    raise ConfigurationError(f"unknown SRDS scheme {name!r}")


__all__ = [
    "OwfSRDS",
    "PublicParameters",
    "SRDSScheme",
    "SRDSSignature",
    "SnarkSRDS",
    "scheme_by_name",
]
