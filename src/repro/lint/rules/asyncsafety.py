"""Async-safety rules: ASY001 (fire-and-forget) and ASY002 (ownership).

HoneyBadgerMPC-style asyncio protocol stacks are notorious for
``asyncio.create_task`` calls whose reference is dropped — the event
loop only holds a weak reference, so the task can be garbage-collected
mid-flight and its exception silently lost.  In this repo that failure
mode is worse than a latent bug: a dropped transport pump stalls a
round barrier nondeterministically, which the differential-parity suite
can only see as a flaky hang.

ASY002 extends the discipline to *state*: a class whose containers are
reachable from more than one execution context (the mesh router's
receiver threads beside the stepping thread) must
mutate them under its own lock — or keep each container
single-writer.  The rule is cross-module (it consumes the class
inventories in the facts layer) and deliberately structural: it never
guesses about the GIL, only about the ownership conventions this
codebase actually uses.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.config import in_scope
from repro.lint.model import (
    ModuleUnit,
    ProjectRule,
    Rule,
    RuleMeta,
    Severity,
    Violation,
)
from repro.lint.xmod.project import ClassFacts, ProjectUnit

_SPAWNERS: Set[str] = {"create_task", "ensure_future"}

#: Both rules' scope: the concurrent execution layers, where a
#: garbage-collected pump or an unlocked mutation stalls a round
#: barrier nondeterministically.
SCOPES: Tuple[str, ...] = ("runtime/", "cluster/", "serve/", "asynchrony/")


class FireAndForgetRule(Rule):
    """ASY001 — retain task handles; await your coroutines."""

    meta = RuleMeta(
        rule_id="ASY001",
        name="fire-and-forget-async",
        severity=Severity.ERROR,
        summary=(
            "asyncio.create_task/ensure_future with a discarded result, "
            "or a locally-defined coroutine called without await"
        ),
        rationale=(
            "The event loop keeps only a weak reference to tasks: a "
            "create_task whose return value is dropped can be collected "
            "mid-run, losing its exception and stalling round barriers "
            "nondeterministically (the classic HoneyBadger-stack hang).  "
            "A coroutine called without await never runs at all — the "
            "protocol step it implements is silently skipped."
        ),
        fix_hint=(
            "assign the task to a retained attribute/collection (and "
            "cancel/await it on shutdown), or await the coroutine"
        ),
    )

    def check(self, module: ModuleUnit) -> Iterator[Violation]:
        if not in_scope(module.rel, SCOPES):
            return
        async_defs = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            spawner = None
            if isinstance(func, ast.Attribute) and func.attr in _SPAWNERS:
                spawner = func.attr
            elif isinstance(func, ast.Name) and func.id in _SPAWNERS:
                spawner = func.id
            if spawner is not None:
                yield self.violation(
                    module, node,
                    f"`{spawner}(...)` result is discarded — the task can "
                    "be garbage-collected mid-flight",
                )
                continue
            called = None
            if isinstance(func, ast.Name) and func.id in async_defs:
                called = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in async_defs
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                called = func.attr
            if called is not None:
                yield self.violation(
                    module, node,
                    f"coroutine `{called}(...)` is called but never "
                    "awaited — it will not run",
                    fix_hint=f"`await {called}(...)` (or schedule and "
                    "retain it as a task)",
                )


class SharedStateRule(ProjectRule):
    """ASY002 — mutate task-shared containers under their owning lock."""

    meta = RuleMeta(
        rule_id="ASY002",
        name="unlocked-shared-state",
        severity=Severity.ERROR,
        summary=(
            "containers reachable from multiple tasks/threads must be "
            "mutated under the class's own lock (or stay single-writer)"
        ),
        rationale=(
            "The mesh router shares dicts between its receiver threads "
            "and the stepping thread; a mutation "
            "outside the owning lock is a data race the mesh parity "
            "suite can only observe as a flaky hang or a lost train.  "
            "A class that owns a lock has declared its discipline — "
            "every container mutation outside it is a bug, not a style "
            "choice."
        ),
        fix_hint=(
            "wrap the mutation in `with self.<lock>:` (the lock the "
            "class already owns), or confine the container to a single "
            "writer context"
        ),
    )

    @staticmethod
    def _is_locked(locks: List[str], lock_attrs: Set[str]) -> bool:
        """Does any held with-context label count as the class's lock?

        Accepts the declared lock attributes plus lock-returning
        accessors (``with self._peer_lock(peer):`` labels
        ``_peer_lock()``), recognized by name.
        """
        for label in locks:
            bare = label.rstrip("()")
            if bare in lock_attrs or "lock" in bare.lower() \
                    or "cond" in bare.lower():
                return True
        return False

    @staticmethod
    def _context_sides(
        project: ProjectUnit, modname: str, klass: ClassFacts,
    ) -> Dict[str, str]:
        """Method -> execution context: ``"thread"`` or ``"loop"``.

        Thread side: methods handed to ``threading.Thread``/executor
        ``submit``/``run_in_executor``.  Loop side: async methods and
        task entry points.  Synchronous helpers called from both stay
        unlabeled — only *declared* entry points are evidence.
        """
        sides: Dict[str, str] = {}
        for method in klass.thread_entries:
            sides[method] = "thread"
        for method in klass.task_entries:
            sides.setdefault(method, "loop")
        for function in project.facts[modname].functions:
            if function.class_name == klass.name and function.is_async:
                sides.setdefault(function.name, "loop")
        return sides

    def check_project(
        self,
        project: ProjectUnit,
        modules: Dict[str, ModuleUnit],
    ) -> Iterator[Violation]:
        for qualified in sorted(project.classes):
            modname, klass = project.classes[qualified]
            rel = project.facts[modname].rel
            if not in_scope(rel, SCOPES):
                continue
            shared = set(klass.container_attrs)
            if not shared:
                continue
            lock_attrs = set(klass.lock_attrs)
            # Lock consistency: a container mutated under the class's
            # lock *somewhere* is lock-protected state — every other
            # mutation of it must hold the lock too.  Containers never
            # mutated under the lock fall through to the cross-context
            # check (single-writer state owns no lock on purpose: a
            # recv buffer guarded by a send lock would be noise).
            lock_affine: Set[str] = set()
            if lock_attrs:
                lock_affine = {
                    mutation.attr for mutation in klass.mutations
                    if mutation.attr in shared
                    and self._is_locked(mutation.locks, lock_attrs)
                }
            for mutation in klass.mutations:
                if mutation.attr not in lock_affine:
                    continue
                if self._is_locked(mutation.locks, lock_attrs):
                    continue
                yield self.project_violation(
                    modules, rel, mutation.line,
                    message=(
                        f"{klass.name}.{mutation.method}() mutates "
                        f"shared container {mutation.attr!r} "
                        f"({mutation.kind}) without holding the "
                        "class's lock "
                        f"({', '.join(sorted(lock_attrs))}) that "
                        "guards its other mutation sites"
                    ),
                )
            # Cross-context mutation of lock-free containers: only a
            # container written from both a thread entry point and the
            # event loop is a finding (single-writer is sanctioned).
            sides = self._context_sides(project, modname, klass)
            writers: Dict[str, Set[str]] = {}
            for mutation in klass.mutations:
                if mutation.attr not in shared or \
                        mutation.attr in lock_affine:
                    continue
                side = sides.get(mutation.method)
                if side is not None:
                    writers.setdefault(mutation.attr, set()).add(side)
            contested = {
                attr for attr, attr_sides in writers.items()
                if len(attr_sides) > 1
            }
            for mutation in klass.mutations:
                if mutation.attr not in contested:
                    continue
                if mutation.locks:
                    continue
                yield self.project_violation(
                    modules, rel, mutation.line,
                    message=(
                        f"{klass.name}.{mutation.attr!r} is mutated "
                        "from both thread and event-loop contexts "
                        f"({klass.name}.{mutation.method}() at line "
                        f"{mutation.line} holds no lock) — shared "
                        "state needs an owning lock or a single "
                        "writer"
                    ),
                )
