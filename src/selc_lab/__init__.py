"""Desk-scale laboratory for learning with noisy labels.

The library trains small numpy MLPs on label-corrupted datasets and
gradually replaces the given one-hot labels with an exponential moving
average of the model's own per-epoch predictions, activated just before
the estimated memorization turning point.

Importing the package pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` default to 1; a value the
caller set is kept). The matmuls here are too small to gain from a BLAS
thread pool, and a run's trials go to worker processes instead, one per
core. The default only takes effect if numpy is not imported yet.
``BLAS_PINNED`` records whether BLAS runs one thread: numpy was imported
after the default, or every variable already read 1. Trials use worker
processes only when it is true.
"""

import os
import sys


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

__version__ = "0.1.0"
