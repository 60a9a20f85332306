"""E11 — ablation: the one-time-signature choice inside the OWF SRDS.

Lamport (the paper's instantiation) vs Winternitz at several chunk
widths: aggregate size shrinks ~w-fold while signing/verification cost
grows ~2^w/2 hash evaluations per chunk — the classic hash-based-
signature trade, measured through the SRDS aggregate.

Cost is counted, not timed: every figure is a number of SHA-256
evaluations (``digest`` calls on a hash state made by ``repro.crypto``)
counted here with a profile hook, so the record repeats exactly and
nothing in the package counts for it.
"""

import hashlib
import os
import sys

import pytest

import repro.crypto
from benchmarks.conftest import write_result
from repro.srds.ots import LamportOts, WinternitzOts
from repro.srds.owf import OwfSRDS
from repro.utils.randomness import Randomness

N = 256
MESSAGE_BITS = 128
MESSAGE = b"ots-ablation"
SEED = bytes(range(32))

VARIANTS = [
    ("lamport", lambda: LamportOts(message_bits=MESSAGE_BITS)),
    ("wots w=2", lambda: WinternitzOts(message_bits=MESSAGE_BITS, w=2)),
    ("wots w=4", lambda: WinternitzOts(message_bits=MESSAGE_BITS, w=4)),
    ("wots w=8", lambda: WinternitzOts(message_bits=MESSAGE_BITS, w=8)),
]

_CRYPTO = os.path.dirname(os.path.abspath(repro.crypto.__file__)) + os.sep
_HASH_STATE = type(hashlib.sha256())


def _count_hashes(run):
    """``(SHA-256 evaluations by repro.crypto, result)`` of ``run()``.

    One evaluation is one ``digest()`` of a hash state called from a
    ``repro.crypto`` frame; the seeded RNG's hashing (utils) is left
    out.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (
            event == "c_call"
            and getattr(arg, "__name__", None) == "digest"
            and isinstance(getattr(arg, "__self__", None), _HASH_STATE)
            and frame.f_code.co_filename.startswith(_CRYPTO)
        ):
            count += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return count, result


def _measure():
    rows = []
    for label, factory in VARIANTS:
        ots = factory()
        keygen, (vk, sk) = _count_hashes(lambda: ots.keygen_from_seed(SEED))
        oblivious, _ = _count_hashes(lambda: ots.oblivious_keygen(SEED))
        sign, signature = _count_hashes(lambda: ots.sign(sk, MESSAGE))
        verify, valid = _count_hashes(
            lambda: ots.verify(vk, MESSAGE, signature)
        )
        assert valid

        rng = Randomness(91)
        scheme = OwfSRDS(ots=ots, sortition_factor=2)
        pp = scheme.setup(N, rng.fork("s"))
        vks, sks = {}, {}

        def keygen_all():
            for i in range(N):
                vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))

        keygen_total, _ = _count_hashes(keygen_all)
        signatures = [
            s for s in (
                scheme.sign(pp, i, sks[i], MESSAGE) for i in range(N)
            )
            if s is not None
        ]
        aggregate = scheme.aggregate(pp, vks, MESSAGE, signatures)
        scheme._verify_cache.clear()  # count a cold verification
        verify_total, accepted = _count_hashes(
            lambda: scheme.verify(pp, vks, MESSAGE, aggregate)
        )
        assert accepted
        rows.append({
            "label": label,
            "ots": ots,
            "aggregate_bytes": aggregate.size_bytes(),
            "vk_bytes": ots.verification_key_bytes(),
            "keygen": keygen,
            "oblivious": oblivious,
            "sign": sign,
            "verify": verify,
            "keygen_all": keygen_total,
            "verify_agg": verify_total,
            "signers": len(signatures),
        })
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ots_ablation(benchmark, results_dir):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)

    lines = [
        f"E11 — OTS choice inside the OWF SRDS (n={N}, "
        f"{rows[0]['signers']} signers); cost in SHA-256 evaluations:",
        f"{'variant':<10} {'aggregate':>11} {'vk size':>9} {'keygen':>7} "
        f"{'oblivious':>9} {'sign':>5} {'verify':>6} "
        f"{'keygen(all)':>11} {'verify(agg)':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['label']:<10} {row['aggregate_bytes']:>10,}B "
            f"{row['vk_bytes']:>8,}B {row['keygen']:>7,} "
            f"{row['oblivious']:>9,} {row['sign']:>5,} {row['verify']:>6,} "
            f"{row['keygen_all']:>11,} {row['verify_agg']:>11,}"
        )
    write_result(results_dir, "ablation_ots", "\n".join(lines))

    by_label = {row["label"]: row for row in rows}
    # The counts are the constructions' own: a Lamport key is 2 PRG
    # blocks and 2 public hashes per bit, a signature one message digest
    # and its check one more plus a hash per bit; a W-OTS key is a PRG
    # block and a full chain per chunk, and a signature plus its check
    # walk each chain once, end to end.
    lamport = by_label["lamport"]
    assert (lamport["keygen"], lamport["oblivious"]) == (
        4 * MESSAGE_BITS, 2 * MESSAGE_BITS
    )
    assert (lamport["sign"], lamport["verify"]) == (1, 1 + MESSAGE_BITS)
    for label in ("wots w=2", "wots w=4", "wots w=8"):
        row = by_label[label]
        chunks, top = row["vk_bytes"] // 32, (1 << row["ots"].w) - 1
        assert row["keygen"] == chunks * (1 + top)
        assert row["oblivious"] == chunks
        assert row["sign"] + row["verify"] == 2 + chunks * top
    # Aggregate size: w=4 shrinks Lamport by > 3x, w=8 by > 6x.
    assert lamport["aggregate_bytes"] > 3 * by_label["wots w=4"]["aggregate_bytes"]
    assert lamport["aggregate_bytes"] > 6 * by_label["wots w=8"]["aggregate_bytes"]
    # Compute cost: w=8 pays far more hashing than w=4 (chains of 256).
    assert by_label["wots w=8"]["keygen_all"] > 4 * by_label["wots w=4"]["keygen_all"]
