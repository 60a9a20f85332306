"""repro.lint.xmod — the project-wide (cross-module) analysis layer.

The per-file rules of :mod:`repro.lint.rules` see one
:class:`~repro.lint.model.ModuleUnit` at a time, which is exactly the
wrong granularity for the failure modes an adaptive adversary exploits
first: a value decoded off the wire in ``cluster/meshwire.py`` reaching
protocol logic in another module without validation, or a container
one thread mutates outside the lock another thread holds.  This package
builds the shared project view those checks need:

* :mod:`repro.lint.xmod.project` — per-module **fact extraction**
  (functions, calls with import-resolved targets, an intraprocedural
  taint digest, struct unpack bindings, class/lock/mutation inventories)
  into :class:`~repro.lint.xmod.project.ModuleFacts`, assembled into
  one :class:`~repro.lint.xmod.project.ProjectUnit` that also resolves
  calls across modules.  Every run extracts the whole tree (a whole
  ``lint check`` of ``src/`` takes ~1.4 s on a 2-CPU host; a facts
  cache measured no faster and was removed).

The interprocedural rules that consume this view live with the other
rules: TRU001 (:mod:`repro.lint.rules.trust`) and ASY002
(:mod:`repro.lint.rules.asyncsafety`).  Everything here is stdlib
``ast`` only — same zero-dependency contract as the per-file engine.
"""

from repro.lint.xmod.project import ModuleFacts, ProjectUnit

__all__ = ["ModuleFacts", "ProjectUnit"]
