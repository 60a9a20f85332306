"""A call budget for pi_ba: the m^2 interpreter loops must not creep back.

Wall-clock gains are claimed through ``benchmarks/layers``; this is the
part of that claim a unit test can hold: *how many calls one execution
makes*.  The count needs no clock and repeats exactly on one interpreter.

Two executions are budgeted: a warm n=32 pi_ba run (the executor path)
and one cold gateway decision under the OWF scheme (the lease-miss
path, which is all one-time key generation).
"""

import os
import sys
from collections import Counter

import repro
from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import run_balanced_ba
from repro.serve.sessions import SessionSpec, run_decision
from repro.serve.setup_cache import SetupCache
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_N = 32
_SEED = 2021

#: Calls of the same run at 59d0be6, the commit before the committee
#: became the unit of work (exchange charges, tagged-tuple encoder, tree
#: index, memoised pure functions).
_PARENT_CALLS = 438_104

#: Per source file: (calls before the named piece landed, calls when the
#: ceiling was last set, ceiling).  "Before" is 59d0be6, except for the
#: rows marked 8b3624e — the commit before a node's received set was
#: keyed once and f_aggr-sig's input carried one batch opening per leaf
#: instead of one Merkle path per signature — and 5222f8c, the commit
#: before a domain-separated hash started from a cached midstate.  Each
#: ceiling leaves the measured count 10-40 % of room and sits below what
#: undoing the named piece costs (in brackets).
_CEILINGS = {
    # one multicast per sender again: m^2 tally updates [24 748]
    "net/metrics.py": (112_637, 5_962, 8_000),
    # encode_str -> canonical_tuple -> encode_sequence -> genexpr ->
    # encode_bytes per hash [183 700]; F_s recomputed per message
    # [134 437]; a path per signature encoded, decoded and hashed again
    # [113 202, 8b3624e]; a tagged_tuple preimage built for every hash,
    # not only for every MAC [65 256, 5222f8c]
    "utils/serialization.py": (217_541, 28_841, 35_000),
    # The other side of that move: a hash is copy + two updates per
    # field + digest on a midstate, all counted here (12 223 at 5222f8c,
    # when it was `sha256(...)` + `digest()` around serialization's
    # work).  The ceiling is for a helper call per field or per hash
    # creeping in [+ 12 000 per extra call].
    "crypto/hashing.py": (12_223, 37_038, 45_000),
    # every member of a node keys and weighs the same received list
    # [19 928, 8b3624e]
    "protocols/balanced_ba.py": (19_928, 3_886, 5_000),
    # a path per signature proven and walked to the root [12 940, 8b3624e]
    "crypto/merkle.py": (12_940, 8_210, 10_000),
    # filter + sort of every node per `leaves` access [16 175]
    "aetree/tree.py": (16_175, 4_950, 7_000),
    # every member's copy of the shared Aggregate1 output walked [9 101]
    "protocols/aggregate_mpc.py": (9_101, 1_558, 2_200),
    # SubsetPRF.subset without its memo [25 705].  A MAC is six hashlib
    # method calls on two keyed midstates where `hmac.digest` was one
    # call (1 369 at 5222f8c): more calls, about 0.6 x the time.
    "crypto/prf.py": (7_873, 12_291, 15_000),
}

#: The cold decision (n=16, OWF scheme, seed 2021) at 5222f8c: 513 775
#: calls, 309 498 of them building a tagged_tuple per hash.
_COLD_PARENT_CALLS = 513_775

#: Same convention; rows marked c53a712 name the commit before a
#: one-time key was hashed through ``hash_each``, one loop per batch.
#: One Lamport keygen is 512 hashes (256 PRG blocks, 256 public rows),
#: an oblivious one 256; 128 keys are a cold decision.
_COLD_CEILINGS = {
    # ~40 000 hashes x (len + copy + update + digest + append) in one
    # loop; 242 634 at c53a712, where each hash was a closure call +
    # copy + len + 2 updates + digest.  A Python call per hash back in
    # an OTS loop (a hasher closure, an encode_uint per block) adds
    # ~40 000 and fails here.
    "crypto/hashing.py": (120_483, 204_890, 230_000),
    # only signature and aggregate encodings are left; an encode_uint
    # per PRG block back [18 607, c53a712]
    "utils/serialization.py": (309_498, 2_591, 3_500),
    # a per-row Python loop around every pair of hashes [47 254]; a
    # per-bit generator selecting rows in sign or verify [+~20 000]
    "crypto/lamport.py": (47_254, 3_355, 4_000),
    # PRG.block called once per secret instead of one pass per key
    # [16 512]; the counters encoded per pass, not tabled [+128]
    "crypto/prg.py": (16_512, 256, 350),
}


def _count_package_calls(run):
    """Calls made *by the package's own code* while ``run()`` executes:
    Python functions defined in it, and C functions called from its
    frames.

    Calls inside the standard library (dataclasses, collections) and
    comprehension/lambda frames are left out: they differ between
    interpreter versions, the package's own call sites do not.
    """
    per_file = Counter()

    def profile(frame, event, _arg):
        if event != "call" and event != "c_call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(_PACKAGE):
            return
        if event == "call" and code.co_name.startswith("<"):
            return
        per_file[code.co_filename[len(_PACKAGE):].replace(os.sep, "/")] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return per_file, result


def _count_calls(n, seed):
    """One pi_ba run under the hash-base SnarkSRDS."""
    params = ProtocolParameters()
    rng = Randomness(seed)
    plan = random_corruption(
        n, params.max_corruptions(n), rng.fork("corruption")
    )
    inputs = {party: party % 2 for party in range(n)}
    per_file, result = _count_package_calls(lambda: run_balanced_ba(
        inputs, plan, SnarkSRDS(HashRegistryBase()), params,
        rng.fork("run"),
    ))
    assert result.agreement and result.validity
    return per_file


def _count_cold_decision_calls(seed):
    """One gateway decision on an empty setup cache: what a lease miss
    costs the executor thread that takes it."""
    spec = SessionSpec(n=16, scheme="owf", seed=seed)
    lease = SetupCache(max_entries=1).lease(spec.scheme, spec.n, spec.seed)
    per_file, reply = _count_package_calls(lambda: run_decision(spec, lease))
    assert reply["agreement"] and reply["validity"]
    assert lease.misses == 1 and lease.hits == 0
    return per_file


def test_one_n32_run_stays_within_its_call_budget():
    """n=32, hash-base SnarkSRDS, seed 2021, counted on a warm process.

    59d0be6: 438 104 calls.  8b3624e: 189 879 (0.433 x).  With one
    keying per node and one batch opening per leaf: 121 713 (0.278 x).
    The gate is 0.35 x the first count overall, and a ceiling per source
    file (``_CEILINGS``) so that undoing any one of the exchange charges,
    the tagged-tuple encoder, the tree index, the memoised pure
    functions, the per-node keying or the batch opening fails here — by
    name — long before a benchmark is run.

    The first run fills the process-wide memos (domain heads, F_s
    subsets of this seed) whatever ran before this test; the second run
    is the one counted, so the number does not depend on test order.
    """
    _count_calls(_N, _SEED)
    counted = _count_calls(_N, _SEED)
    again = _count_calls(_N, _SEED)
    assert counted == again, "the count must repeat exactly"
    total = sum(counted.values())
    assert total <= 0.35 * _PARENT_CALLS, (total, counted.most_common(8))
    for source, (_, _, ceiling) in _CEILINGS.items():
        assert counted[source] <= ceiling, (source, counted[source], ceiling)


def test_one_cold_owf_decision_stays_within_its_call_budget():
    """The gateway's miss path: ``run_decision`` of ``SessionSpec(n=16,
    scheme="owf")`` on a fresh cache, i.e. 128 Lamport key generations
    and one small pi_ba.

    5222f8c: 513 775 calls.  With every hash started from a midstate and
    a key expanded in one pass: 283 180 (0.55 x) — and each remaining
    call is a C method on a hash state, not an encoder.  With each batch
    of one-time-key hashes in one loop (``hash_each``): 229 157 (0.45 x;
    282 241 at c53a712).  The gate is 0.5 x overall plus the per-file
    ceilings of ``_COLD_CEILINGS``.

    The first decision fills the process-wide memos (domain midstates,
    chain-step and block hashers); the second, on a fresh cache again,
    is the one counted.
    """
    _count_cold_decision_calls(_SEED)
    counted = _count_cold_decision_calls(_SEED)
    again = _count_cold_decision_calls(_SEED)
    assert counted == again, "the count must repeat exactly"
    total = sum(counted.values())
    assert total <= 0.5 * _COLD_PARENT_CALLS, (total, counted.most_common(8))
    for source, (_, _, ceiling) in _COLD_CEILINGS.items():
        assert counted[source] <= ceiling, (source, counted[source], ceiling)
