"""Fork hygiene: a worker is a fork of its supervisor, and must carry
none of the supervisor's ambient state into its shard.

The contract of ``fork_child`` (``repro.net.fork``, shared with the
gateway's lanes) is tier-1: a forked child reports what it sees through
a pipe (signal dispositions, span context, where fds 1/2 point, which
inherited sockets it still holds), nothing touches the network.  The
mesh cases spawn real workers
and carry the ``cluster`` marker: ambient ``span`` / ``recording`` /
``flow_tags`` around the supervisor change no tally, phase or trace
byte; a worker holds no sibling's channel and no supervisor end; every
child is reaped on every path; a SIGKILLed supervisor's run resumes
with parity.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import stat
import sys
import time

import pytest

from repro.cluster.cli import cmd_cluster
from repro.cluster.job import replay_job
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.cluster.wire import MessageChannel
from repro.cluster.worker import worker_main
from repro.errors import ClusterError
from repro.net.fork import exit_status, fork_child
from repro.net.metrics import CommunicationMetrics
from repro.obs.spans import (
    SpanLog,
    charge_label,
    current_phase,
    flow_tags,
    recording,
    span,
)
from repro.runtime.replay import (
    apply_func_ops,
    build_replay_parties,
    tallies_equal,
)
from repro.runtime.synchronizer import run_parties
from repro.runtime.trace import TraceRecorder
from tests.placements import phase_views, recorded_pi_ba

N = 16


# -- fork_child's contract (tier-1: one short-lived child per case) -----------


def _report_state(write_fd):
    """Child entry: describe the inherited state, then use fds 1/2."""
    state = {
        "sigalrm_default": signal.getsignal(signal.SIGALRM) == signal.SIG_DFL,
        "sigterm_default": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        "sigpipe_ignored": signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN,
        "sigint": signal.getsignal(signal.SIGINT) is signal.default_int_handler,
        "phase": current_phase(),
        "label": list(charge_label("", "", "frame")),
    }
    os.write(write_fd, json.dumps(state).encode())
    os.close(write_fd)
    print("printed by the child")
    os.write(2, b"raw stderr bytes\n")
    return 7


def _join(process, timeout=10.0):
    process.join(timeout)
    assert process.exitcode is not None, "forked child did not exit"
    # Reaped: the pid is no longer a child of ours.
    with pytest.raises(ChildProcessError):
        os.waitpid(process.pid, os.WNOHANG)
    return process.exitcode


class TestForkChild:
    def test_child_sheds_handlers_context_and_std_streams(self, tmp_path):
        read_fd, write_fd = os.pipe()
        released = []

        def release():
            os.close(read_fd)
            released.append("child only")

        def handler(signum, frame):  # pragma: no cover - never delivered
            raise AssertionError("inherited handler ran")

        previous = {
            signum: signal.signal(signum, handler)
            for signum in (signal.SIGALRM, signal.SIGTERM)
        }
        log_path = tmp_path / "child.log"
        try:
            with log_path.open("ab") as log:
                with span("outer"), flow_tags("session"), recording(SpanLog()):
                    process = fork_child(
                        "probe", log, release, _report_state, write_fd
                    )
                    # The parent's own view is untouched by the fork.
                    assert current_phase() == "outer"
                assert signal.getsignal(signal.SIGALRM) is handler
                assert not log.closed
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as reader:
            state = json.loads(reader.read())
        assert _join(process) == 7
        assert state == {
            "sigalrm_default": True,
            "sigterm_default": True,
            "sigpipe_ignored": True,
            "sigint": True,
            "phase": None,
            "label": ["(unattributed)", "frame"],
        }
        assert released == []  # release() ran in the child, not here
        logged = log_path.read_text()
        assert "printed by the child" in logged
        assert "raw stderr bytes" in logged

    def test_uncaught_exception_is_a_logged_nonzero_exit(self, tmp_path):
        def boom():
            raise RuntimeError("shard exploded")

        log_path = tmp_path / "child.log"
        with log_path.open("ab") as log:
            process = fork_child("boom", log, lambda: None, boom)
        assert _join(process) == 1
        logged = log_path.read_text()
        assert "RuntimeError: shard exploded" in logged
        assert "Process boom:" in logged

    def test_exit_status_names_the_signal_or_the_code(self, tmp_path):
        def kill_self():
            os.kill(os.getpid(), signal.SIGKILL)

        with (tmp_path / "child.log").open("ab") as log:
            killed = fork_child("killed", log, lambda: None, kill_self)
            exited = fork_child("exited", log, lambda: None, lambda: 3)
            sleeper = fork_child(
                "sleeper", log, lambda: None, lambda: time.sleep(30)
            )
        assert exit_status(sleeper) == "still running"
        sleeper.kill()
        statuses = [exit_status(p) for p in (killed, exited, sleeper)]
        assert statuses == ["killed by SIGKILL", "exit 3", "killed by SIGKILL"]
        for process in (killed, exited, sleeper):
            _join(process)

    def test_child_leaves_through_os_exit(self, tmp_path):
        """No inherited ``atexit`` hook or ``finally`` of the parent's
        stack runs in the child: a marker the parent's frames would
        write stays unwritten."""
        marker = tmp_path / "ran-parent-cleanup"
        parent = os.getpid()
        with (tmp_path / "child.log").open("ab") as log:
            try:
                process = fork_child("exit", log, lambda: None, lambda: 0)
            finally:
                if os.getpid() != parent:  # pragma: no cover - child only
                    marker.write_text("x")
        assert _join(process) == 0
        assert not marker.exists()

    def test_child_holds_only_the_sockets_it_keeps(self):
        """Without a log the std streams stay fds 1/2; every inherited
        socket but ``keep`` is dropped, pipes stay."""
        read_fd, write_fd = os.pipe()
        dropped, kept = socket.socketpair(), socket.socketpair()
        try:
            process = fork_child(
                "sockets", None, lambda: os.close(read_fd), _report_sockets,
                write_fd, dropped[0].fileno(), kept[0].fileno(),
                keep=(kept[0].fileno(),),
            )
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as reader:
                state = json.loads(reader.read())
            assert _join(process) == 0
        finally:
            for sock in (*dropped, *kept):
                sock.close()
        assert state == {
            "dropped_is_socket": False, "kept_is_socket": True,
            "stdout": 1, "stderr": 2,
        }


def _report_sockets(write_fd, dropped, kept):
    os.write(write_fd, json.dumps({
        "dropped_is_socket": stat.S_ISSOCK(os.fstat(dropped).st_mode),
        "kept_is_socket": stat.S_ISSOCK(os.fstat(kept).st_mode),
        "stdout": sys.stdout.fileno(),
        "stderr": sys.stderr.fileno(),
    }).encode())
    os.close(write_fd)
    return 0


def test_a_worker_has_no_command_line(capsys):
    with pytest.raises(SystemExit) as usage:
        cmd_cluster(["worker", "--host", "127.0.0.1", "--port", "1",
                     "--worker-id", "0"])
    assert usage.value.code == 2
    assert "invalid choice: 'worker'" in capsys.readouterr().err


# -- real workers (cluster marker) -------------------------------------------


def _script():
    return recorded_pi_ba(N, "snark-hash").script()


def _mesh_replay(tmp_path=None, **config):
    trace = TraceRecorder()
    result = ClusterSupervisor(
        replay_job(_script(), N, checkpoint_interval=4),
        ClusterConfig(num_workers=2, **config),
        run_dir=tmp_path,
        trace=trace,
    ).run()
    apply_func_ops(_script(), result.metrics)
    return result


def _views(result):
    return (
        result.outputs,
        phase_views(result.metrics, range(N)),
        result.trace.fingerprint(),
    )


def _assert_no_child_left():
    """Every forked worker was waited for: the process has no child,
    running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.cluster
class TestAmbientContextDoesNotLeak:
    def test_span_recording_and_flow_tags_label_nothing(self):
        bare = _mesh_replay()
        with span("caller-phase"), flow_tags("session"):
            with recording(SpanLog()):
                wrapped = _mesh_replay()
        assert _views(wrapped) == _views(bare)
        assert tallies_equal(wrapped.metrics, bare.metrics, range(N))

        metrics = CommunicationMetrics()
        reference = run_parties(
            build_replay_parties(_script(), N),
            metrics=metrics,
            max_rounds=_script().num_rounds + 2,
            trace=TraceRecorder(),
        )
        apply_func_ops(_script(), metrics)
        assert wrapped.outputs == reference.outputs
        assert tallies_equal(wrapped.metrics, metrics, range(N))
        assert phase_views(wrapped.metrics, range(N)) == phase_views(
            metrics, range(N)
        )
        assert wrapped.trace.fingerprint() == reference.trace.fingerprint()
        _assert_no_child_left()


@pytest.mark.cluster
class TestEveryChildIsReaped:
    def test_after_a_clean_run_and_after_a_kill_schedule(self):
        open_before = set(os.listdir("/proc/self/fd"))
        clean = _mesh_replay()
        _assert_no_child_left()
        killed = _mesh_replay(kill_plan={3: 1, 6: 0})
        _assert_no_child_left()
        assert (clean.restarts, killed.restarts) == (0, 2)
        assert _views(killed) == _views(clean)
        # ... and with the children went their pipes, logs and sockets.
        assert set(os.listdir("/proc/self/fd")) == open_before

    def test_after_a_failed_launch(self, tmp_path, monkeypatch):
        """Worker 0 resumes, worker 1 takes its job and never answers:
        the launch fails, and both — the one that answered and the one
        that did not — are killed *and waited for*."""

        def half_a_fleet(worker_id, control, links, heartbeat_interval):
            if worker_id == 1:
                MessageChannel(control).recv()
                time.sleep(60)
            return worker_main(worker_id, control, links, heartbeat_interval)

        monkeypatch.setattr(
            "repro.cluster.supervisor.worker_main", half_a_fleet
        )
        with pytest.raises(ClusterError, match="worker launch failed"):
            _mesh_replay(tmp_path, spawn_timeout=0.5)
        _assert_no_child_left()


@pytest.mark.cluster
class TestWorkersHoldNoSupervisorDescriptor:
    def test_supervisor_death_reaches_every_worker(self, tmp_path):
        """The fleet is launched, then relaunched the way crash recovery
        does it, and worker 1 is frozen.  The supervisor's descriptors
        vanish the way a SIGKILL takes them — closed, nothing said.
        Worker 0 must see ``ChannelClosed`` and exit 1 at once: had
        worker 1 kept the supervisor's end of worker 0's socketpair, the
        channel would stay open for as long as worker 1 lives."""
        supervisor = ClusterSupervisor(
            replay_job(_script(), N),
            ClusterConfig(num_workers=2),
            run_dir=tmp_path,
        )
        try:
            supervisor._launch_all()
            supervisor._recover([(1, "relaunched by the test")])
            assert supervisor.restarts == 1
            first, frozen = (supervisor.workers[w].process for w in (0, 1))
            os.kill(frozen.pid, signal.SIGSTOP)
            for worker in supervisor.workers.values():
                worker.channel.release()
            deadline = ClusterConfig().heartbeat_interval * 8
            first.join(deadline)
            assert first.exitcode == 1
            assert frozen.is_alive()
            os.kill(frozen.pid, signal.SIGCONT)
            frozen.join(deadline)
            assert frozen.exitcode == 1
        finally:
            supervisor._teardown()
        _assert_no_child_left()


class _DiesAtItsSecondBarrier(ClusterSupervisor):
    """A supervisor that is SIGKILLed right after a durable barrier."""

    def _commit(self, barrier):
        super()._commit(barrier)
        if self.checkpoint_round >= 4:
            pids = [w.process.pid for w in self.workers.values()]
            (self.run_dir / "worker-pids.json").write_text(json.dumps(pids))
            os.kill(os.getpid(), signal.SIGKILL)


def _run_doomed_supervisor(run_dir):
    _DiesAtItsSecondBarrier(
        replay_job(_script(), N, checkpoint_interval=2),
        ClusterConfig(num_workers=2),
        run_dir=run_dir,
        trace=TraceRecorder(),
    ).run()


def _gone(pid):
    """Exited: no such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.cluster
class TestKilledSupervisorResumes:
    def test_orphans_exit_and_resume_has_parity(self, tmp_path):
        reference = _mesh_replay()
        # Not fork_child: its children are daemonic, and a daemonic
        # process may not fork workers of its own.
        doomed = multiprocessing.get_context("fork").Process(
            target=_run_doomed_supervisor, args=(tmp_path,)
        )
        doomed.start()
        doomed.join(60)
        assert doomed.exitcode == -signal.SIGKILL
        pids = json.loads((tmp_path / "worker-pids.json").read_text())
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while not all(_gone(pid) for pid in pids):
            assert time.monotonic() < deadline, "an orphaned worker lingers"
            time.sleep(0.02)

        resumed = ClusterSupervisor(
            replay_job(_script(), N, checkpoint_interval=2),
            ClusterConfig(num_workers=2),
            run_dir=tmp_path,
        ).run(resume=True)
        apply_func_ops(_script(), resumed.metrics)
        assert _views(resumed) == _views(reference)
        assert tallies_equal(resumed.metrics, reference.metrics, range(N))
        _assert_no_child_left()
