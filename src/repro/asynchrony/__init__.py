"""repro.asynchrony — the adversarially-scheduled asynchronous model.

The repo's second execution model, next to the three parity-locked
synchronous backends:

* :mod:`repro.asynchrony.scheduler` — :class:`AsyncScheduler`, seeded
  event-order adversary over asyncio party tasks (latency-model and
  worst-case "adversary picks next delivery" policies);
* :mod:`repro.asynchrony.driver` — :func:`run_aba`, one-call MMR14
  binary agreement (:mod:`repro.protocols.aba`) under the model;
* :mod:`repro.asynchrony.adaptive` — the adaptive-adversary seam:
  corruption budgets spent *after* observing coin/wire events;
* :mod:`repro.asynchrony.bench` — BENCH_aba.json, ABA vs π_ba
  bits-per-party on identical (n, seed) cells.

See ``docs/asynchrony.md`` for the model and its relation to the
paper's §1 synchrony assumption.  Import names from the defining
modules; the package itself re-exports nothing.
"""
