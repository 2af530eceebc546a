"""Class-conditional label noise: transition matrices and label corruption."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, require
from .rng import stream
from .tables import open_text

ROW_SUM_TOL = 1e-12


@dataclass
class TransitionMatrix:
    """Row-stochastic C x C matrix; q[i, j] = Pr[observed j | true i]."""

    num_classes: int
    q: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.shape != (self.num_classes, self.num_classes):
            raise DimensionError(f"q must be {self.num_classes}x{self.num_classes}, got {self.q.shape}")
        if np.any(self.q < 0.0) or np.any(self.q > 1.0):
            raise ParameterError("q entries must lie in [0, 1]")
        row_sums = self.q.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ParameterError(f"q rows must sum to 1 within {ROW_SUM_TOL}")


def _checked_eta(num_classes: int, eta: float) -> float:
    """``eta`` as a float, once it and ``num_classes`` fit a noise model."""
    require(0.0 <= eta < 1.0, f"eta must be in [0, 1), got {eta}")
    require(num_classes >= 2, f"num_classes must be >= 2, got {num_classes}")
    return float(eta)


def build_symmetric_q(num_classes: int, eta: float, exclude_true_class: bool = False) -> TransitionMatrix:
    """Uniform label noise.

    Default convention replaces a chosen label with a draw over ALL classes
    (the true one included): diagonal 1 - eta + eta/C, off-diagonal eta/C,
    so the effective mislabel rate is eta * (C - 1) / C. Setting
    ``exclude_true_class`` spreads eta over the other classes only
    (diagonal 1 - eta), the other common convention.
    """
    eta = _checked_eta(num_classes, eta)
    if exclude_true_class:
        q = np.full((num_classes, num_classes), eta / (num_classes - 1))
        np.fill_diagonal(q, 1.0 - eta)
    else:
        q = np.full((num_classes, num_classes), eta / num_classes)
        np.fill_diagonal(q, 1.0 - eta + eta / num_classes)
    return TransitionMatrix(num_classes=num_classes, q=q)


def build_asymmetric_q(num_classes: int, eta: float, mapping) -> TransitionMatrix:
    """Pairwise flips: each mapped source class i -> target j gets
    q[i, i] = 1 - eta and q[i, j] = eta; unmapped classes stay clean.
    ``mapping`` holds (src, dst) pairs, or is ``load_mapping``'s dict of
    them, whose errors then name the pair's file and line."""
    eta = _checked_eta(num_classes, eta)
    q = np.eye(num_classes)
    seen = set()
    located = mapping.items() if isinstance(mapping, dict) else ((None, pair) for pair in mapping)
    for where, (src, dst) in located:
        src, dst = int(src), int(dst)
        if not (0 <= src < num_classes and 0 <= dst < num_classes):
            problem = f"mapping {src}->{dst} outside [0, {num_classes})"
        elif src == dst:
            problem = f"mapping {src}->{dst} maps a class to itself"
        elif src in seen:
            problem = f"class {src} appears twice as a mapping source"
        else:
            seen.add(src)
            q[src, src] = 1.0 - eta
            q[src, dst] = eta
            continue
        raise ParameterError(problem if where is None else f"{where}: {problem}")
    return TransitionMatrix(num_classes=num_classes, q=q)


def inject_noise(clean_labels, tm: TransitionMatrix, seed: int) -> np.ndarray:
    """Resample each label from its row of q; deterministic given seed."""
    labels = np.asarray(clean_labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= tm.num_classes):
        raise ParameterError(f"labels must lie in [0, {tm.num_classes})")
    cum = np.cumsum(tm.q, axis=1)
    cum[:, -1] = 1.0  # guard against cumulative rounding
    u = stream(seed, "noise").random(labels.shape[0])
    return (cum[labels] <= u[:, None]).sum(axis=1).astype(np.int64)


def empirical_noise_rate(noisy_labels, true_labels) -> float:
    noisy = np.asarray(noisy_labels)
    true = np.asarray(true_labels)
    if noisy.shape != true.shape:
        raise DimensionError(f"label arrays differ in shape: {noisy.shape} vs {true.shape}")
    return float(np.mean(noisy != true))


def load_mapping(path):
    """Read asymmetric flip pairs, one "src dst" or "src,dst" pair of
    decimal ints per line; # starts a comment. The file is printable ASCII
    text (see ``tables.open_text``). Returns {"path:line": (src, dst)} in
    file order."""
    pairs = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split(",") if "," in line else line.split()
            try:
                src, dst = (int(tok) for tok in toks)
            except ValueError:
                src = None
            if src is None or "_" in line:  # Python's int also reads 1_000
                raise FormatError(f"{path}:{lineno}: bad mapping line {line!r}")
            pairs[f"{path}:{lineno}"] = (src, dst)
    return pairs
