"""Self-ensemble soft targets.

The per-sample target starts at the observed one-hot label and is pulled
toward an exponential moving average of the model's per-epoch predictions:

    t <- alpha * t + (1 - alpha) * p

After k updates the weight left on the original label is exactly alpha**k,
with the remaining mass contributed by the prediction history. The
ensemble-only variant starts from the zero vector instead and is kept
sub-stochastic on purpose.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MissingPredictionError, ParameterError
from .mlp import one_hot, soft_ce_loss

MODE_ENSEMBLE_ONLY = "option1_ensemble_only"
MODE_SELC = "option2_selc"
MODES = (MODE_ENSEMBLE_ONLY, MODE_SELC)

ROW_SUM_TOL = 1e-9


@dataclass
class PredictionSnapshot:
    """Row-stochastic predictions for every sample, indexed by sample id."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise DimensionError(f"snapshot must be 2-D, got shape {self.probs.shape}")
        rows = self.probs.sum(axis=1)
        if not np.all(np.abs(rows - 1.0) <= ROW_SUM_TOL):
            worst = float(np.abs(rows - 1.0).max())
            raise ParameterError(f"snapshot rows must sum to 1 within {ROW_SUM_TOL} (worst off by {worst:.3g})")


@dataclass
class EnsembleState:
    """Per-sample soft targets plus the EMA bookkeeping."""

    targets: np.ndarray
    alpha: float
    epoch_k: int
    mode: str

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")

    @classmethod
    def initial(cls, noisy_labels, num_classes: int, alpha: float, mode: str = MODE_SELC) -> "EnsembleState":
        labels = np.asarray(noisy_labels, dtype=np.int64)
        if mode == MODE_SELC:
            targets = one_hot(labels, num_classes)
        else:
            targets = np.zeros((labels.shape[0], num_classes))
        return cls(targets=targets, alpha=alpha, epoch_k=0, mode=mode)


def update_targets(state: EnsembleState, snapshot: PredictionSnapshot) -> EnsembleState:
    """Apply one EMA step in place; returns the state for chaining."""
    if snapshot.probs.shape != state.targets.shape:
        raise MissingPredictionError(
            f"snapshot shape {snapshot.probs.shape} does not cover targets {state.targets.shape}"
        )
    state.targets *= state.alpha
    state.targets += (1.0 - state.alpha) * snapshot.probs
    state.epoch_k += 1
    return state


def closed_form_target(noisy_onehot, prediction_history, alpha: float):
    """Target after k = len(history) updates, computed directly:

    alpha**k * y + sum_j (1 - alpha) * alpha**(k - j) * p_j,  j = 1..k.

    Serves as the independent oracle for the iterative update.
    """
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    y = np.asarray(noisy_onehot, dtype=np.float64)
    k = len(prediction_history)
    out = alpha**k * y
    for j, p in enumerate(prediction_history, start=1):
        out = out + (1.0 - alpha) * alpha ** (k - j) * np.asarray(p, dtype=np.float64)
    return out


def ensemble_prediction(prediction_history, alpha: float, num_classes: int | None = None):
    """EMA of the history alone, started from zero; total mass 1 - alpha**k.

    An empty history yields the zero vector; pass ``num_classes`` to give
    it a shape in that case.
    """
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    k = len(prediction_history)
    if k == 0:
        if num_classes is None:
            raise ParameterError("empty history needs num_classes to shape the zero vector")
        return np.zeros(num_classes)
    out = np.zeros_like(np.asarray(prediction_history[0], dtype=np.float64))
    for j, p in enumerate(prediction_history, start=1):
        out += (1.0 - alpha) * alpha ** (k - j) * np.asarray(p, dtype=np.float64)
    return out


def selc_loss(state: EnsembleState, snapshot: PredictionSnapshot):
    """Soft cross entropy of the current targets against current predictions."""
    if snapshot.probs.shape != state.targets.shape:
        raise DimensionError(
            f"snapshot shape {snapshot.probs.shape} != targets shape {state.targets.shape}"
        )
    return soft_ce_loss(state.targets, snapshot.probs)


def bootstrap_target(noisy_onehot, probs, beta: float):
    """Static interpolation beta * y + (1 - beta) * p, recomputed per batch;
    the stateless baseline this library's EMA targets are contrasted with."""
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must be in [0, 1], got {beta}")
    y = np.asarray(noisy_onehot, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if y.shape != p.shape:
        raise DimensionError(f"labels shape {y.shape} != probs shape {p.shape}")
    return beta * y + (1.0 - beta) * p


def save_state(state: EnsembleState, path) -> None:
    """Text checkpoint: header (alpha, epoch_k, mode) then one id + row per line.

    Floats are written with repr, so a text parse of the rows returns
    bit-identical values. No command reads it back.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{state.alpha!r} {state.epoch_k} {state.mode}\n")
        for i, row in enumerate(state.targets):
            fh.write(str(i) + " " + " ".join(repr(float(v)) for v in row) + "\n")

