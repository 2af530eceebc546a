"""Desk-scale laboratory for learning with noisy labels.

The library trains small numpy MLPs on label-corrupted datasets and
gradually replaces the given one-hot labels with an exponential moving
average of the model's own per-epoch predictions, activated just before
the estimated memorization turning point.

Importing the package pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` default to 1; a value the
caller set is kept). The matmuls here are too small to gain from a BLAS
thread pool; a run's jobs and the epoch shares of a large losses file,
each parsed and fitted where it is read, go to forked processes instead,
one per core. The default only takes effect if numpy is not imported yet.
``BLAS_PINNED`` records whether BLAS runs one thread: numpy was imported
after the default, or every variable already read 1.

``fork_workers`` holds the one rule for when this process may fork to
share its work; ``experiment._run_jobs`` (through ``config.run_workers``)
and ``turning._epoch_share_series`` ask it. ``fork_jobs`` is the one
place that forks, pipes, waits and reaps, for the jobs of ``_run_jobs``
and for the epoch shares; ``shared`` makes the arrays that a trial's
jobs write in place.
"""

import os
import pickle
import select
import signal
import sys
import threading
from collections import deque


def _pin_blas_threads() -> bool:
    numpy_loaded = "numpy" in sys.modules
    pinned = True
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        preset = os.environ.get(var)
        os.environ.setdefault(var, "1")
        pinned = pinned and (preset == "1" or (preset is None and not numpy_loaded))
    return pinned


# importing any selc_lab module runs this first, before its numpy import
# starts the BLAS library
BLAS_PINNED = _pin_blas_threads()
# a process with another pid was forked after the import, such as a worker
# of a caller's process pool, whose siblings may already hold the other cores
_IMPORT_PID = os.getpid()


def fork_workers(tasks: int) -> int:
    """How many processes may share ``tasks`` independent tasks: one per
    usable core, at most one per task. It is 1, this process alone, unless
    a fork is safe and this process is not itself a forked child. Safe
    means nothing runs beside this thread that a fork could catch holding
    a lock: BLAS runs one thread and no other Python thread is alive; and
    ``os.fork`` and ``os.sched_getaffinity`` exist."""
    if not (BLAS_PINNED and os.getpid() == _IMPORT_PID and threading.active_count() == 1
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(tasks, len(os.sched_getaffinity(0))))


def fork_jobs(jobs, workers: int, run, done) -> None:
    """Run ``run(job)`` for each job in a child forked for it alone, at most
    ``workers`` at once, in queue order: ``jobs``, then the jobs that
    ``done(job, outcome)`` returns as it runs here when a job ends. The
    outcome is what ``run`` returned or raised, pickled back through the
    child's pipe, which is read while the child runs; or a
    ``ChildProcessError`` ("exited with code 3") for a child that died, or
    the ``OSError`` that kept a job from starting. If ``done`` raises, the
    children still running are killed and reaped before the exception
    leaves. Take ``workers`` from ``fork_workers``."""
    ready = deque(jobs)
    running = {}  # a child's read end: (pid, job, what it sent so far)
    try:
        while ready or running:
            while ready and len(running) < workers:
                job, pipe = ready.popleft(), ()
                try:
                    pipe = os.pipe()
                    pid = os.fork()
                except OSError as exc:
                    for end in pipe:
                        os.close(end)
                    ready.extend(done(job, exc))
                    continue
                read_end, write_end = pipe
                if pid == 0:
                    _child(job, run, write_end, [*running, read_end])
                os.close(write_end)
                running[read_end] = (pid, job, bytearray())
            # with none running, the last jobs did not start
            for read_end in select.select(list(running), [], [])[0] if running else ():
                chunk = os.read(read_end, 1 << 16)
                if chunk:
                    running[read_end][2].extend(chunk)
                    continue
                pid, job, sent = running.pop(read_end)
                os.close(read_end)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                outcome = pickle.loads(sent) if code == 0 else ChildProcessError(
                    f"exited with code {code}" if code > 0 else f"was killed by signal {-code}")
                ready.extend(done(job, outcome))
    finally:
        # what has not started is dropped
        for read_end, (pid, *_) in running.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(job, run, pipe: int, read_ends) -> None:
    # closes the read_ends, so that the parent is each pipe's one reader,
    # and leaves through os._exit, so it runs none of the parent's exit code
    try:
        for read_end in read_ends:
            os.close(read_end)
        try:
            outcome = run(job)
        except Exception as exc:
            outcome = exc
        with open(pipe, "wb") as fh:
            pickle.dump(outcome, fh)
        os._exit(0)
    finally:
        os._exit(1)


def shared(shape, dtype):
    """A zero-filled, C-contiguous array of nonempty ``shape`` and ``dtype``
    in an anonymous shared mapping, which the array keeps alive: what a
    process forked after this call writes to it, this process reads."""
    # imported only here: numpy must load after the pin above
    import mmap

    import numpy as np

    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape)


__version__ = "0.1.0"
