"""One forked worker: when a command may start one, how it runs, and how it ends.

``measure`` renders, and ``verify`` checks, in two processes by one rule:
where ``os.fork`` exists and this process may use two CPUs (``ready``), and
where the work reaches the command's own threshold, sized by measurement.
A ``Worker`` runs its function in a forked child that reports over a pipe
and always leaves by ``os._exit``. The parent reaps it after its report, or
kills and then reaps it when it stops early, so no process is left running.
"""

import contextlib
import gc
import os
import warnings


def ready() -> bool:
    """Whether ``os.fork`` exists and this process may use two CPUs or more."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


class Worker:
    """A forked process that runs work(*args, report) and leaves by ``os._exit``.

    `report` is the write end of a pipe whose read end is ``self.report``.
    The exit status is 0 once work returns and 1 when it raises. ``wait``
    reaps the worker; ``close`` (also on leaving a ``with`` block) kills it
    first if it has not been reaped, and closes the pipe.
    """

    def __init__(self, work, *args):
        self.pid, self.report = None, None
        try:
            self.report, report = os.pipe()
            try:
                with warnings.catch_warnings():
                    # from Python 3.12, fork warns in a process with threads, as OpenBLAS's pool is: OpenBLAS
                    # stops its pool before a fork and starts one afresh in the child, so a worker may call BLAS
                    warnings.filterwarnings("ignore", r".*multi-threaded, use of fork\(\)", DeprecationWarning)
                    self.pid = os.fork()
                if self.pid == 0:
                    _run(work, (*args, report))  # never returns
            finally:
                os.close(report)
        except BaseException:
            self.close()
            raise

    def wait(self) -> int:
        """Reap the worker and return its wait status."""
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return status

    def close(self) -> None:
        try:
            if self.pid is not None:
                import signal  # only here: its enums cost every command about 0.1 MiB at import

                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGKILL)
                self.wait()
        finally:
            if self.report is not None:
                os.close(self.report)
                self.report = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _run(work, args) -> None:
    """In the worker: work(*args), then os._exit, whatever work raised."""
    status = 1
    try:
        gc.disable()  # the process ends by os._exit: nothing needs collecting, and no page of the parent's is touched for it
        work(*args)
        status = 0
    finally:
        os._exit(status)
