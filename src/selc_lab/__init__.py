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


# before the first numpy import below, which starts the BLAS library
BLAS_PINNED = _pin_blas_threads()

from .config import ExperimentConfig, load_config
from .data import (
    BlobSpec,
    NoisyDataset,
    TrainView,
    generate_blobs,
    load_csv_dataset,
    load_idx,
    make_noisy_dataset,
    save_csv_dataset,
    write_idx,
)
from .diagnostics import (
    MemorizationStats,
    confusion_of_corrections,
    correction_accuracy,
    memorization_stats,
)
from .errors import (
    DimensionError,
    FormatError,
    MissingPredictionError,
    ParameterError,
    TrainingDivergenceError,
)
from .experiment import run_experiment
from .mlp import (
    Gradients,
    MlpModel,
    OptimizerState,
    backward,
    forward,
    init_mlp,
    lr_at,
    make_optimizer,
    one_hot,
    predict_proba,
    sgd_step,
    soft_ce_loss,
    softmax,
)
from .noise import (
    TransitionMatrix,
    build_asymmetric_q,
    build_symmetric_q,
    empirical_noise_rate,
    inject_noise,
    load_mapping,
)
from .rng import stream
from .targets import (
    EnsembleState,
    PredictionSnapshot,
    bootstrap_target,
    closed_form_target,
    ensemble_prediction,
    load_state,
    save_state,
    selc_loss,
    update_targets,
)
from .training import (
    EpochEvent,
    EpochRecord,
    SelcRunConfig,
    default_activation_epoch,
    mixup_batch,
    run_selc_plus,
    run_training,
)
from .turning import (
    GmmFit,
    KMeansFit,
    MetricSeries,
    OnlineTurningPointDetector,
    compute_metric_series,
    estimate_turning_point,
    fit_gmm2,
    fit_kmeans2_and_m3,
    load_loss_snapshots,
    load_metric_series,
    metric_m1,
    metric_m2,
    normalize_losses,
    save_loss_snapshots,
    save_metric_series,
    separation_metrics,
)

__version__ = "0.1.0"
