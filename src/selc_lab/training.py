"""Training: one epoch loop serves plain cross entropy, bootstrap,
EMA-corrected targets, and the mixup retraining stage that consumes
corrected targets.

The loop is epoch-indexed. Once label correction activates, each epoch
first snapshots the model's predictions over the whole training set (in
evaluation mode, before any of the epoch's gradient steps), folds that
snapshot into the per-sample targets, and only then runs the epoch's
batches against the updated targets.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import TrainView
from .errors import DimensionError, ParameterError, TrainingDivergenceError
from .mlp import MlpModel, OptimizerState, backward, lr_at, one_hot, predict_proba, sgd_step
from .rng import stream
from .targets import (
    MODE_ENSEMBLE_ONLY,
    MODE_SELC,
    EnsembleState,
    bootstrap_target,
    update_targets,
)

# every method a config may name -> the mode of the targets it corrects,
# or None for a method that corrects nothing; selc_plus trains as selc
# before its retrain
METHODS = {"ce": None, "bootstrap": None, "selc": MODE_SELC,
           "option1": MODE_ENSEMBLE_ONLY, "selc_plus": MODE_SELC}
# The SELC+ retrain's mixup on fixed soft targets; not in METHODS, so
# run_training never takes it.
_METHOD_MIXUP = "mixup"


@dataclass
class SelcRunConfig:
    """Schedule and method hyperparameters for one training run.

    An ``activation_epoch`` at or past ``total_epochs`` simply never
    activates, which reduces the run to plain cross entropy.
    """

    total_epochs: int
    activation_epoch: int = 0
    alpha: float = 0.9
    bootstrap_beta: float = 0.8
    mixup_beta_param: float = 1.0

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ParameterError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.activation_epoch < 0:
            raise ParameterError(f"activation_epoch must be >= 0, got {self.activation_epoch}")
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.bootstrap_beta <= 1.0:
            raise ParameterError(f"bootstrap_beta must be in [0, 1], got {self.bootstrap_beta}")
        if self.mixup_beta_param <= 0.0:
            raise ParameterError(f"mixup_beta_param must be positive, got {self.mixup_beta_param}")


# correction starts this many epochs before the estimated turning point
TURNING_POINT_OFFSET = 10


def default_activation_epoch(turning_point: int) -> int:
    """Start correcting a little before the estimated turning point, and
    at epoch 1 at the earliest."""
    return max(int(turning_point) - TURNING_POINT_OFFSET, 1)


@dataclass
class EpochEvent:
    """Handed to the epoch hook after each epoch's gradient updates.

    ``probs`` is the (n, C) matrix of evaluation-mode predictions over the
    full training set for the just-finished epoch, checked finite;
    ``targets`` is the live (n, C) target matrix once correction is active
    (None before it, and for methods without one). Hooks must treat both
    as read-only.
    A truthy return value stops the run after the current epoch.
    """

    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    probs: np.ndarray
    targets: Optional[np.ndarray]


EpochHook = Callable[[EpochEvent], object]


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def _train_step(model: MlpModel, opt: OptimizerState, x, t, epoch: int) -> float:
    """One SGD step on a batch; returns the batch's summed loss.

    The loss is checked before the update: the mean is sum / n with n >= 1,
    so it is finite exactly when the sum is.
    """
    grads, losses = backward(model, x, t)
    loss_sum = float(losses.sum())
    if not math.isfinite(loss_sum):
        raise TrainingDivergenceError(f"nonfinite training loss at epoch {epoch}")
    sgd_step(model, grads, opt, epoch)
    return loss_sum


# the batch loss, the gradient and the snapshot are each checked
@np.errstate(over="ignore", invalid="ignore")
def _run_epochs(features, targets, model: MlpModel, opt: OptimizerState, cfg: SelcRunConfig,
                method: str, batch_size: int, seed: int, epoch_hook: EpochHook | None,
                first_epoch: int = 0):
    """The epoch loop behind every method and the SELC+ retrain; trains the
    model in place and returns (state, epochs), the range of the epochs it
    trained, which is empty when ``first_epoch`` is past the last.

    ``targets`` is the (n, C) matrix the batches train against until
    correction activates; ``train_acc`` scores predictions against its
    argmax. A correcting method starts its targets state from that argmax.
    Nonfinite predictions at the end of an epoch raise
    ``TrainingDivergenceError``.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    n = features.shape[0]
    # for one-hot targets, exactly the noisy labels
    labels = targets.argmax(axis=1)
    state = None
    if METHODS.get(method) is not None:
        state = EnsembleState.initial(labels, targets.shape[1], cfg.alpha, METHODS[method])

    probs = None
    epoch = first_epoch - 1
    for epoch in range(first_epoch, cfg.total_epochs):
        lr = lr_at(opt, epoch)
        correcting = state is not None and epoch >= cfg.activation_epoch
        if correcting:
            if probs is None:
                # activation at the first epoch: the model as it starts
                probs = predict_proba(model, features)
            update_targets(state, probs)
        epoch_targets = state.targets if correcting else targets
        order = stream(seed, "shuffle", epoch).permutation(n)
        mix_rng = stream(seed, "mixup", epoch) if method == _METHOD_MIXUP else None
        loss_sum = 0.0
        for batch_ids in _batches(order, batch_size):
            x = features[batch_ids]
            t = epoch_targets[batch_ids]
            if method == "bootstrap":
                t = bootstrap_target(t, predict_proba(model, x), cfg.bootstrap_beta)
            elif mix_rng is not None:
                lam = float(mix_rng.beta(cfg.mixup_beta_param, cfg.mixup_beta_param))
                partner = mix_rng.permutation(len(batch_ids))
                x, t = mixup_batch(x, t, x[partner], t[partner], lam)
            loss_sum += _train_step(model, opt, x, t, epoch)
        probs = predict_proba(model, features)
        if not np.isfinite(probs).all():
            raise TrainingDivergenceError(f"nonfinite predictions at epoch {epoch}")
        if epoch_hook is not None and epoch_hook(EpochEvent(
                epoch=epoch, lr=lr, train_loss=loss_sum / n,
                train_acc=float(np.mean(probs.argmax(axis=1) == labels)),
                probs=probs, targets=state.targets if correcting else None)):
            break
    return state, range(first_epoch, epoch + 1)


def run_training(view: TrainView, model: MlpModel, opt: OptimizerState, cfg: SelcRunConfig,
                 method: str, batch_size: int, seed: int, epoch_hook: EpochHook | None = None,
                 first_epoch: int = 0):
    """Train the model in place from epoch ``first_epoch`` on; returns
    (model, state, epochs).

    ``state`` is the final targets state for the correcting methods and
    None otherwise; ``epochs`` is the range of the epochs trained. Batch
    order reshuffles every epoch from a per-epoch stream of ``seed``, and
    the last partial batch is kept. Schedule and shuffles depend on the
    epoch alone, so a run resumed at ``first_epoch`` from where the epoch
    before ended goes on as one run would.
    """
    if method not in METHODS:
        raise ParameterError(f"method must be one of {tuple(METHODS)}, got {method!r}")
    targets = one_hot(view.noisy_labels, view.num_classes)
    state, epochs = _run_epochs(view.features, targets, model, opt, cfg, method,
                                batch_size, seed, epoch_hook, first_epoch)
    return model, state, epochs


def mixup_batch(x1, t1, x2, t2, lam: float):
    """Convex combination of two batches and their targets."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must be in [0, 1], got {lam}")
    return lam * x1 + (1.0 - lam) * x2, lam * t1 + (1.0 - lam) * t2


def run_selc_plus(features, corrected_targets, model: MlpModel, opt: OptimizerState,
                  cfg: SelcRunConfig, batch_size: int, seed: int,
                  epoch_hook: EpochHook | None = None):
    """Retrain a freshly initialized model with mixup on corrected targets.

    This stage sees only features and the corrected soft targets; the
    signature has no label argument on purpose. One lambda ~ Beta(a, a) is
    drawn per batch, and partners come from a within-batch permutation.
    Returns (model, epochs), the range of the epochs trained.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(corrected_targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0]:
        raise DimensionError("features and corrected targets must agree in length")
    _, epochs = _run_epochs(features, targets, model, opt, cfg, _METHOD_MIXUP,
                            batch_size, seed, epoch_hook)
    return model, epochs
