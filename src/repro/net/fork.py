"""Fork start for the repo's long-lived child processes.

Two layers run work in forked children of the process that owns them:
cluster workers (:mod:`repro.cluster.supervisor`) and gateway session
lanes (:mod:`repro.serve.lanes`).  Both want the same start — a direct
child that begins as a fresh interpreter would, with none of the
parent's signal handlers, sockets, span context or captured std
streams — and the same report when one dies: ``killed by SIGKILL``,
``exit 1``.

A child talks only over sockets its parent connected before the fork
and names in ``keep=``: a lane its one socketpair end, a cluster worker
its control end plus one mesh end per peer.  Nothing is dialed or
accepted after the fork, and no descriptor is passed to a running
child, which is why a cluster recovery relaunches the whole fleet.

POSIX only.  Fork from a single-threaded parent: a lock another thread
holds at the fork stays held in the child.  docs/cluster.md, *Process
model*, has the why.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
import signal
import stat
import sys
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Collection, Optional

#: Seconds a child whose channel closed gets to finish exiting before
#: its exit status is read.
EXIT_GRACE = 1.0


def fork_child(
    name: str, log_handle: Optional[Any], release: Callable[[], None],
    entry: Callable[..., int], *args: Any, keep: Collection[int] = (),
) -> BaseProcess:
    """Fork a direct child that runs ``entry(*args)`` as a fresh
    interpreter would have and exits with the code it returns.

    ``multiprocessing``'s fork context flushes the std streams before
    the fork and leaves the child through ``os._exit`` alone; ``daemon``
    has the parent's exit kill a child no teardown reached.  The child's
    fds 1/2 (and ``sys.stdout``/``sys.stderr``) go to ``log_handle``, or
    stay the parent's when it is ``None``.  The child drops every
    inherited socket but the descriptors in ``keep``
    (:func:`_drop_inherited_sockets`); ``release`` runs in the child
    only, to close the parent's other handles it must not hold.
    """

    def bootstrap() -> None:
        # Python-level handlers (a caller's SIGALRM timeout, pytest's)
        # go; SIG_IGN and the stock SIGINT handler stay, as after exec.
        for signum in signal.valid_signals():
            handler = signal.getsignal(signum)
            if callable(handler) and handler is not signal.default_int_handler:
                signal.signal(signum, signal.SIG_DFL)
        # fds 1/2 and sys.stdout/err (a capturing parent rebinds them).
        if log_handle is not None:
            os.dup2(log_handle.fileno(), 1)
            os.dup2(log_handle.fileno(), 2)
            sys.stdout = sys.stderr = open(2, "w", buffering=1, closefd=False)
        else:
            sys.stdout = open(1, "w", buffering=1, closefd=False)
            sys.stderr = open(2, "w", buffering=1, closefd=False)
        _drop_inherited_sockets(keep)
        release()
        if log_handle is not None:
            log_handle.close()
        # Empty context: the parent's span / flow_tags label nothing.
        raise SystemExit(contextvars.Context().run(entry, *args))

    process = multiprocessing.get_context("fork").Process(
        target=bootstrap, name=name, daemon=True
    )
    process.start()
    return process


def _drop_inherited_sockets(keep: Collection[int]) -> None:
    """Point every socket above the std streams but ``keep`` at
    ``/dev/null``.

    A child forked while its parent serves would otherwise hold the
    parent's listener, its connections and its other children's
    channels: a connection the parent closes would stay open, and a
    sibling would never see EOF when the parent dies.  ``dup2`` rather
    than ``close``: the inherited socket objects still think they own
    those numbers, and a number must not be reused before one of them
    closes it.  Pipes, files and the epoll descriptor stay as they are.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in [int(name) for name in os.listdir("/dev/fd")]:
            if fd <= 2 or fd == null or fd in keep:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                continue  # the listing's own descriptor, closed by now
    finally:
        os.close(null)


def exit_status(process: BaseProcess) -> str:
    """How a child process ended — ``killed by SIGKILL``, ``exit 1`` —
    or ``still running`` if it has not within :data:`EXIT_GRACE`."""
    process.join(timeout=EXIT_GRACE)
    code = process.exitcode
    if code is None:
        return "still running"
    if code < 0:
        return f"killed by {signal.Signals(-code).name}"
    return f"exit {code}"
