"""The synchronous network model with exact communication accounting.

:class:`~repro.net.rounds.RoundCore` is the one lockstep round: it holds
every frame until its delivery round and steps the parties;
:func:`run_in_process` is its in-process placement, charging every
frame to a :class:`CommunicationMetrics` ledger in the round it was
sent.
"""

from repro.net.adversary import (
    CorruptionPlan,
    corrupt_after_setup,
    prefix_corruption,
    random_corruption,
    targeted_corruption,
)
from repro.net.metrics import CommunicationMetrics, MetricsSnapshot, PartyTally
from repro.net.party import Envelope, Party, SilentParty
from repro.net.rounds import RoundCore, RuntimeResult, run_in_process

__all__ = [
    "CommunicationMetrics",
    "CorruptionPlan",
    "Envelope",
    "MetricsSnapshot",
    "Party",
    "PartyTally",
    "RoundCore",
    "RuntimeResult",
    "SilentParty",
    "corrupt_after_setup",
    "prefix_corruption",
    "random_corruption",
    "run_in_process",
    "targeted_corruption",
]
