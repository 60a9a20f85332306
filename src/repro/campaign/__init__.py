"""Adversarial conformance campaigns.

A *campaign* sweeps the cross-product of Byzantine strategies
(:mod:`repro.campaign.catalog`), network fault schedules
(:mod:`repro.campaign.schedules`), and protocol configurations
(:mod:`repro.campaign.matrix`), executing every cell with seeded
randomness and asserting the paper's guarantees after each run
(:mod:`repro.campaign.invariants`): agreement and validity among honest
outputs (Thm 3.1), ``max_bits_per_party`` within the analytic polylog
budget (:func:`repro.protocols.cost_model.pi_ba_per_party_budget`), the
gradecast properties, and the SRDS robustness / unforgeability verdicts
(Fig. 1 / Fig. 2).

Every failing run emits a single-line *repro spec* —
``campaign/1 config=... strategy=... schedule=... n=... seed=...
corrupt=...`` — that :mod:`repro.campaign.runner` re-executes exactly,
and :mod:`repro.campaign.minimize` shrinks to a minimal failing
instance by greedy delta-debugging over the corrupted set and the crash
schedule.  ``python -m repro campaign {run,replay,minimize,list}`` is
the operator entry point; sweep summaries land in
``results/BENCH_campaign.json`` via :mod:`repro.obs.bench`.  Import
names from the defining modules; the package itself re-exports nothing.
"""
