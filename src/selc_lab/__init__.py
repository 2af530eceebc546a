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
and ``turning._epoch_share_series`` ask it. ``fork_child`` is the one
place that forks, for the job loop of ``_run_jobs`` and for
``run_shares``, which serves the epoch shares; ``shared`` makes every
array through which a forked process writes its results.
"""

import os
import sys
import threading


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
# a process with another pid was forked after the import: a job's child or
# an epoch share's child, whose siblings already hold the other cores
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


def fork_child(call) -> int:
    """Fork a child that runs ``call()`` and leaves through ``os._exit``, 0
    if the call returned and 1 if it raised, so it runs none of this
    process's exit code; returns its pid, for the caller to reap."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            call()
            status = 0
        finally:
            os._exit(status)
    return pid


def run_shares(workers: int, share) -> bool:
    """Call ``share(j)`` for each j in 0..workers-1: j = 0 in this process,
    every other j in a child forked through ``fork_child``. Every child is
    reaped before this returns, also when this process's own share raises.
    True if every share returned; False if a fork failed, a share raised
    or a child died, and the caller then redoes what is missing. Take
    ``workers`` from ``fork_workers``."""
    children = []
    ok = False
    try:
        for j in range(1, workers):
            children.append(fork_child(lambda j=j: share(j)))
        share(0)
        ok = True
    except Exception:
        pass  # the caller redoes the work of a share that did not finish
    finally:
        for pid in children:
            ok = os.waitpid(pid, 0)[1] == 0 and ok
    return ok


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
