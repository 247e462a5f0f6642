"""A function run in a forked child process beside its caller (POSIX).

`analyze` runs its minimal-set branch in one, and `approximate_minimal_set`
the second half of its orbit.  Precondition for every caller, the CLI and a
library caller alike: the process runs no thread but the calling one when a
Branch is made.  The child is a copy of the forking thread only, so a lock
that another thread held at the fork stays held in the child for good.  The
CLI starts no thread of its own.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

from .errors import BranchLost, QpfLabError


class Branch:
    """fn() run in a forked child process, its value sent back through a pipe.

    fork, not spawn: the child reads the parent's tables in place, and nothing
    but the value is pickled.  The caller must run no other thread (see the
    module docstring), so the child inherits no lock that another of its
    threads holds.  The child always leaves through os._exit, never through
    its caller's stack.  A QpfLabError of fn() is sent back and raised again
    by result(); any other exception is printed by the child, which then
    exits without a value.
    """

    def __init__(self, fn):
        sys.stdout.flush()          # else the child would write the buffers again
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _run_child(fn, write_fd)
        os.close(write_fd)
        self._pipe = os.fdopen(read_fd, "rb")

    def result(self):
        """Wait for the child: fn()'s value, or the QpfLabError that fn() raised."""
        with self._pipe:
            payload = self._pipe.read()
        _, status = os.waitpid(self.pid, 0)
        pid, self.pid = self.pid, None
        if os.WIFSIGNALED(status):
            how = f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
        elif os.WEXITSTATUS(status):
            how = f"exit status {os.WEXITSTATUS(status)}"
        else:
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            return value
        raise BranchLost(f"the forked branch (pid {pid}) ended without a result: {how}")

    def cancel(self) -> None:
        """Kill the child and wait for it, unless result() has waited for it."""
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _run_child(fn, write_fd: int):
    """The forked child's whole life: run fn, send its outcome, exit.

    Called in the child right after the fork, which, like Branch, requires
    that the parent ran no other thread.
    """
    code = 1
    try:
        try:
            payload = (True, fn())
        except QpfLabError as exc:
            payload = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())         # the traceback, as if uncaught
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
