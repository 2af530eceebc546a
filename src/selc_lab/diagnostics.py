"""Evaluation-only diagnostics against hidden true labels.

True labels enter the codebase exclusively through this module and the
experiment harness that calls it. Training code paths accept TrainView
objects that simply do not carry true labels, so side information cannot
leak into any gradient. Everything here is a pure function but the two
writers, ``append_metrics_ledger`` and ``write_confusion_csv``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def _as_hard_labels(values) -> np.ndarray:
    """Accept a label vector or a row-stochastic score matrix."""
    arr = np.asarray(values)
    if arr.ndim == 2:
        return arr.argmax(axis=1)
    if arr.ndim == 1:
        return arr.astype(np.int64)
    raise DimensionError(f"expected labels or an (n, c) score matrix, got shape {arr.shape}")


def correction_accuracy(targets, true_labels) -> float:
    """Fraction of samples whose corrected label hits the true class: the
    argmax of an (n, c) target matrix, or a label vector.

    Argmax ties go to the lowest class index, here and everywhere else.
    """
    corrected = _as_hard_labels(targets)
    y = np.asarray(true_labels, dtype=np.int64)
    if corrected.shape != y.shape:
        raise DimensionError(f"{corrected.shape[0]} targets vs {y.shape[0]} true labels")
    return float(np.mean(corrected == y))


@dataclass
class MemorizationStats:
    """Prediction outcome fractions, split by whether the given label is wrong.

    Clean samples (given label == true label) divide into correct/incorrect.
    Mislabeled samples divide into correct (true class), memorized (the
    wrong given label), and other. Each group's fractions sum to 1 when the
    group is nonempty; an empty group reports zeros.
    """

    clean_correct_frac: float
    clean_incorrect_frac: float
    mislabeled_correct_frac: float
    mislabeled_memorized_frac: float
    mislabeled_other_frac: float


def memorization_stats(predictions, noisy_labels, true_labels) -> MemorizationStats:
    pred = _as_hard_labels(predictions)
    noisy = np.asarray(noisy_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if not (pred.shape == noisy.shape == true.shape):
        raise DimensionError(
            f"misaligned inputs: {pred.shape} predictions, {noisy.shape} noisy, {true.shape} true"
        )
    clean = noisy == true
    if clean.any():
        clean_correct = float(np.mean(pred[clean] == true[clean]))
        clean_incorrect = 1.0 - clean_correct
    else:
        clean_correct = clean_incorrect = 0.0
    bad = ~clean
    if bad.any():
        correct = float(np.mean(pred[bad] == true[bad]))
        memorized = float(np.mean(pred[bad] == noisy[bad]))
        other = 1.0 - correct - memorized
    else:
        correct = memorized = other = 0.0
    return MemorizationStats(
        clean_correct_frac=clean_correct,
        clean_incorrect_frac=clean_incorrect,
        mislabeled_correct_frac=correct,
        mislabeled_memorized_frac=memorized,
        mislabeled_other_frac=other,
    )


def confusion_of_corrections(targets, true_labels) -> np.ndarray:
    """C x C counts of an (n, C) target matrix, rows = true class,
    columns = corrected class."""
    t = np.asarray(targets)
    if t.ndim != 2:
        raise DimensionError(f"targets must be a 2-D matrix, got shape {t.shape}")
    y = np.asarray(true_labels, dtype=np.int64)
    if t.shape[0] != y.shape[0]:
        raise DimensionError(f"{t.shape[0]} targets vs {y.shape[0]} true labels")
    c = t.shape[1]
    corrected = t.argmax(axis=1)
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (y, corrected), 1)
    return counts


def append_metrics_ledger(path, rows) -> None:
    """Write the ledger file: the header, then the (epoch, metric_name,
    value) rows, in one write that replaces what the file held."""
    text = "".join(f"{epoch},{name},{value:.6g}\n" for epoch, name, value in rows)
    with open(path, "w", newline="") as fh:
        fh.write("epoch,metric_name,value\n" + text)


def write_confusion_csv(counts: np.ndarray, path) -> None:
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise DimensionError(f"confusion matrix must be square, got shape {counts.shape}")
    lines = [",".join(str(int(v)) for v in row) for row in counts]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
