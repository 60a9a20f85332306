"""Lint run configuration: scopes, allowlists, and paths.

Scopes are **path substrings** matched against the forward-slash
relative path of each file (relative to the configured root).  This
keeps the default config usable both on the real tree
(``src/repro/protocols/balanced_ba.py`` matches scope ``protocols/``)
and on test fixture trees that mirror the layout
(``fixtures/protocols/det002_bad.py`` matches too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple



@dataclass(frozen=True)
class LintConfig:
    """Everything a lint run needs besides the rule set.

    The defaults encode this repo's invariants; tests build narrowed
    configs rooted at fixture directories.
    """

    #: Directory all relative paths are reported against.
    root: Path = field(default_factory=Path.cwd)

    #: Path prefixes/fragments to lint (relative to root).
    paths: Tuple[str, ...] = ("src",)

    #: Directory names that are never descended into.
    exclude_dirs: Tuple[str, ...] = ("__pycache__", ".git", ".hypothesis")

    #: Rule ids to run; empty tuple means "all registered rules".
    rules: Tuple[str, ...] = ()

    # -- per-rule knobs -----------------------------------------------------

    #: DET001: files allowed to touch ``random``/``secrets``/``os.urandom``
    #: directly.  The seeded :class:`repro.utils.randomness.Randomness`
    #: wrapper is the one sanctioned consumer of :mod:`random`.
    det001_allow: Tuple[str, ...] = ("utils/randomness.py",)

    #: DET002: scopes in which wall-clock reads are forbidden (protocol
    #: logic must use the injected logical clock so replays are exact).
    det002_scopes: Tuple[str, ...] = (
        "protocols/", "srds/", "runtime/", "campaign/", "cluster/",
        "serve/", "asynchrony/", "net/rounds.py",
    )

    #: ACC001: scopes in which raw transport/socket/queue sends are
    #: forbidden (all bytes must route through CommunicationMetrics).
    acc001_scopes: Tuple[str, ...] = (
        "protocols/", "srds/", "cluster/", "net/rounds.py",
    )

    #: ASY001: scopes in which dropped task handles / unawaited
    #: coroutines are flagged — the asyncio execution layers, where a
    #: garbage-collected pump stalls a round barrier nondeterministically.
    asy001_scopes: Tuple[str, ...] = (
        "runtime/", "cluster/", "serve/", "asynchrony/",
    )

    #: OBS001: instrumented modules — every metrics charge they make
    #: must happen under an active ``repro.obs`` phase span.  The
    #: cluster and gateway layers joined in PR 7: their data-plane
    #: charges feed the flow ledger's per-phase cells, so an unspanned
    #: charge there lands in ``(unattributed)`` and erodes the flow
    #: coverage gate; genuine control-plane sites carry pragmas.  The
    #: asynchronous scheduler and ABA protocol charge under spans too —
    #: their bits must attribute for the BENCH_aba comparison to mean
    #: anything.
    obs001_instrumented: Tuple[str, ...] = (
        "protocols/balanced_ba.py", "protocols/aba.py", "cluster/",
        "serve/", "asynchrony/", "net/rounds.py",
    )

    #: SER001: wire modules — every top-level dataclass must have a
    #: registered encode/decode round-trip.
    ser001_wire_modules: Tuple[str, ...] = ("campaign/spec.py",)

    # -- interprocedural (xmod) knobs ---------------------------------------

    #: TRU001: modules whose ``decode_*``/``*.decode`` functions ingest
    #: adversary-controlled bytes.  Their returns are taint sources, and
    #: inside them every struct-unpacked field that escapes into the
    #: return value must be individually guarded.
    tru001_decoder_modules: Tuple[str, ...] = (
        "cluster/wire.py", "cluster/meshwire.py", "serve/wire.py",
        "net/trains.py",
    )

    #: TRU001: scopes where ``pickle.loads`` results also count as taint
    #: sources (checkpoint/control-plane payloads cross trust domains).
    tru001_pickle_scopes: Tuple[str, ...] = (
        "cluster/", "serve/", "runtime/",
    )

    #: TRU001: scopes that are taint *sinks* — protocol and SRDS logic
    #: must never consume wire-derived data that was not narrowed first.
    tru001_sink_scopes: Tuple[str, ...] = ("protocols/", "srds/")

    #: TRU001: ledger-charging method names that are sinks wherever they
    #: are called (the accounting the paper's bit bounds rest on).
    tru001_sink_methods: Tuple[str, ...] = (
        "record_message", "record_multicast", "record_exchange",
        "record_frames", "charge_functionality",
    )

    #: TRU001: name fragments that mark a call as a sanitizer — its
    #: result is considered narrowed/validated.
    tru001_sanitizer_markers: Tuple[str, ...] = (
        "validate", "narrow", "sanitize",
    )

    #: TRU001: exception names whose raise-guards and try/except
    #: handlers count as malformed-input validation.
    tru001_guard_exceptions: Tuple[str, ...] = (
        "SerializationError", "ClusterError", "GatewayError",
        "NetworkError", "ReproError", "ConfigurationError",
        "ValueError", "TypeError", "KeyError", "AssertionError",
    )

    #: TRU001: how many direct-call levels taint is tracked through.
    tru001_depth: int = 3

    #: ASY002: scopes whose classes get shared-state lock discipline
    #: checks (same concurrency surfaces as ASY001).
    asy002_scopes: Tuple[str, ...] = (
        "runtime/", "cluster/", "serve/", "asynchrony/",
    )

    def in_scope(self, rel: str, scopes: Tuple[str, ...]) -> bool:
        """Whether ``rel`` (posix relative path) matches any scope."""
        return any(scope in rel for scope in scopes)


def default_config(root: Optional[Path] = None) -> LintConfig:
    """The repo configuration, rooted at ``root`` (default: auto-detect).

    Auto-detection walks up from the current directory looking for
    ``pyproject.toml`` so ``python -m repro lint`` works from any
    subdirectory of a checkout.
    """
    if root is None:
        candidate = Path.cwd()
        for parent in (candidate, *candidate.parents):
            if (parent / "pyproject.toml").exists():
                candidate = parent
                break
        root = candidate
    return LintConfig(root=root)
