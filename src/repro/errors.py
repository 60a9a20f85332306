"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish protocol-level faults (e.g. a Byzantine
agreement run that could not complete) from local misuse (e.g. malformed
signatures passed to an aggregator).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when protocol or scheme parameters are inconsistent.

    Examples: a corruption budget of at least ``n / 3``, a committee size
    larger than the party set, or a tree arity below two.
    """


class CryptoError(ReproError):
    """Base class for failures inside cryptographic substrates."""


class SerializationError(ReproError):
    """Raised when encoding or decoding a wire object fails."""


class SignatureError(CryptoError):
    """Raised when a signature is structurally invalid for an operation.

    Note that a signature that is well formed but does not verify is
    reported through a ``False`` return value from ``verify``, not through
    this exception; the exception marks *misuse* (wrong key type, empty
    aggregation batch, out-of-range index), not mere invalidity.
    """


class KeyError_(CryptoError):
    """Raised for malformed or missing key material.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`.
    """


class ProofError(CryptoError):
    """Raised when constructing a succinct proof fails (bad witness)."""


class SecretSharingError(CryptoError):
    """Raised by Shamir/VSS operations on inconsistent share sets."""


class PKIError(ReproError):
    """Raised for public-key-infrastructure misuse.

    Examples: registering a key twice, replacing a key in a trusted PKI,
    or querying a party that never registered.
    """


class NetworkError(ReproError):
    """Raised by the synchronous network simulator on misuse.

    Examples: sending from an unknown party id, delivering outside a
    round boundary, or exceeding a configured message budget.
    """


class ProtocolError(ReproError):
    """Raised when a protocol cannot continue due to a broken invariant.

    Honest-party code raises this only for conditions the paper's model
    rules out (e.g. a corrupted supreme committee); adversarial message
    garbage is *tolerated*, not raised.
    """


class TreeError(ReproError):
    """Raised for malformed almost-everywhere communication trees."""


class ClusterError(ReproError):
    """Raised by the multi-process cluster layer on unrecoverable faults.

    Examples: a worker that keeps dying past its restart budget, a
    corrupt or version-mismatched checkpoint file, or a control-channel
    message that violates the supervisor⇄worker protocol.
    """


class ExperimentError(ReproError):
    """Raised when a security experiment (Fig. 1 / Fig. 2) is misused."""


class GatewayError(ReproError):
    """Raised by the agreement-as-a-service gateway (:mod:`repro.serve`).

    Examples: a malformed client request line, a session spec naming an
    unknown workload or scheme, or a client operation against a gateway
    that already shut down.  Backpressure is *not* an error — an
    over-capacity submit gets a structured reject response with a
    retry-after hint, never an exception.
    """


#: The closed set of exception types that decoding *adversarial bytes* can
#: legitimately raise: serialization framing errors, crypto-substrate
#: rejections, and the built-ins that malformed structure triggers
#: (short tuples -> ValueError, missing fields -> IndexError/KeyError,
#: wrong shapes -> TypeError, oversized ints -> OverflowError).
#:
#: Byzantine-tolerant verify/decode paths catch exactly this tuple and
#: return a rejection — catching plain ``Exception`` there would also
#: swallow genuine verifier bugs (``lint``'s EXC001 enforces this).
MALFORMED_INPUT_ERRORS = (
    SerializationError,
    CryptoError,
    ValueError,
    IndexError,
    KeyError,
    TypeError,
    OverflowError,
)
