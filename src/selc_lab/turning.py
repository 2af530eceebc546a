"""Turning-point estimation from per-epoch training-loss distributions.

Early in training the per-sample loss histogram is bimodal: clean samples
drop fast, mislabeled ones stay high. The gap between the two modes peaks
right before the network starts memorizing the wrong labels. Three scalar
separation metrics track that gap per epoch:

  m1  gap between the two GMM component means
  m2  KL divergence from the low-loss component to the high-loss one
  m3  gap between the two 1-D k-means centroids

The turning point is the argmax epoch of a metric series (m1 by default).

Per-epoch losses are one (epochs, n) float64 matrix everywhere: row i
holds epoch i's loss of sample j in column j. ``save_loss_snapshots``
writes it as ``losses.csv``, ``load_loss_snapshots`` reads it back with
its epoch numbers, and ``compute_metric_series`` turns it into the three
series, normalizing one row at a time and sharing the rows between
forked processes when the matrix is large. A large losses file is parsed
the same way, in shares of whole epochs (``_load_epoch_shares``). Every
array through which a forked process hands its results back comes from
``selc_lab.shared``.
"""

import math
import operator
import os
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import fork_workers, run_shares, shared
from .errors import FormatError, ParameterError
from .tables import finite, first_bad_line, open_text, read_rows

VARIANCE_FLOOR = 1e-6
EM_TOL = 1e-6
EM_MAX_ITER = 200
KMEANS_MAX_ITER = 200
METRIC_NAMES = ("m1", "m2", "m3")
# a two-component mixture needs a few points per epoch
MIN_SAMPLES = 4
LOSSES_HEADER = "epoch,sample_id,loss"
LOSSES_COLUMNS = np.dtype([("epoch", int), ("sample_id", int), ("loss", float)])
SERIES_HEADER = "epoch,m1,m2,m3"
# compute_metric_series forks only for a loss matrix this large. On 2
# vCPUs, a fit of a 6000-sample epoch of perfbench's planted losses takes
# about 0.6 us per loss, and a fork, the child's exit and its reaping
# take 2-4 ms in a process that holds such a 100 x 6000 matrix. At the
# cut-off the fits take about 30 ms, and the half that moves to a second
# core saves several times what the fork costs.
FAN_OUT_MIN_ELEMENTS = 50_000
# a losses file is parsed in epoch shares only from this size on. On 2
# vCPUs np.loadtxt parses perfbench's losses.csv at about 30 ns per byte,
# and a fork, the child's exit and its reaping take 5-9 ms. A 4 MiB file
# in the order run writes loaded in 69 ms in epoch shares against 129 ms
# in one process (medians of 7, fresh processes); a later measurement on
# the same host read 95 ms for both (medians of 15 alternating runs), so
# the shares do not lose at this size.
FAN_OUT_MIN_BYTES = 1 << 21


def normalize_losses(losses) -> np.ndarray:
    """Min-max scale to [0,1]; a constant vector maps to all zeros."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ParameterError("cannot normalize an empty loss vector")
    if losses.ndim != 1:
        raise ParameterError(f"losses must be 1-D, got shape {losses.shape}")
    if not np.all(np.isfinite(losses)):
        raise ParameterError("losses must be finite")
    lo = losses.min()
    hi = losses.max()
    if hi == lo:
        return np.zeros_like(losses)
    return (losses - lo) / (hi - lo)


@dataclass
class GmmFit:
    weights: tuple
    means: tuple
    variances: tuple
    log_likelihood: float
    iterations: int
    converged: bool
    m3: float = 0.0  # centroid gap of the 2-means warm start
    ll_trace: list = field(default_factory=list, repr=False)


@dataclass
class KMeansFit:
    centroids: tuple
    assignments: np.ndarray
    inertia: float
    degenerate: bool = False


def fit_gmm2(normalized_losses) -> GmmFit:
    """EM fit of a two-component 1-D Gaussian mixture.

    Initial responsibilities come from a 2-means pre-pass on the same data,
    which makes the fit deterministic. Component 1 is the lower-mean one.
    The pre-pass's centroid gap is returned as ``m3``.
    """
    x = np.asarray(normalized_losses, dtype=np.float64)
    if x.ndim != 1 or x.size < MIN_SAMPLES:
        raise ParameterError(f"need at least {MIN_SAMPLES} one-dimensional points, "
                             f"got shape {x.shape}")
    km, m3 = fit_kmeans2_and_m3(x)
    # responsibilities of the two components, r0 + r1 = 1
    r1 = km.assignments.astype(np.float64)
    if km.degenerate or not 0.0 < r1.sum() < x.size:
        # a one-sided pre-pass (empty cluster) degrades EM to a coin-flip start
        r1[:] = 0.5
    r0 = 1.0 - r1
    resp = (r0, r1)
    # sq_dev[m] holds (x - mean_m)^2, then that component's log joint density
    sq_dev = (np.empty_like(x), np.empty_like(x))
    gap = np.empty_like(x)
    log_norm = np.empty_like(x)

    weights = [0.0, 0.0]
    means = [math.nan, math.nan]
    variances = [math.nan, math.nan]
    ll_prev = -np.inf
    ll = -np.inf
    ll_trace = []
    converged = False
    iterations = 0
    for iterations in range(1, EM_MAX_ITER + 1):
        for m in range(2):
            # M step
            mass = float(resp[m].sum())
            weights[m] = mass / x.size
            if mass > 0.0:
                means[m] = float(resp[m] @ x) / mass
            np.subtract(x, means[m], out=sq_dev[m])
            np.multiply(sq_dev[m], sq_dev[m], out=sq_dev[m])
            if mass > 0.0:
                variances[m] = max(float(resp[m] @ sq_dev[m]) / mass, VARIANCE_FLOOR)
            # E step, in log space
            log_scale = (math.log(max(weights[m], 1e-300))
                         - 0.5 * math.log(2.0 * math.pi * variances[m]))
            np.multiply(sq_dev[m], -0.5 / variances[m], out=sq_dev[m])
            np.add(sq_dev[m], log_scale, out=sq_dev[m])
        # log_norm = logaddexp(joint0, joint1) as max + log1p(exp(min - max)),
        # the formula np.logaddexp evaluates, on numpy's vectorized exp/log1p
        np.maximum(sq_dev[0], sq_dev[1], out=log_norm)
        np.minimum(sq_dev[0], sq_dev[1], out=gap)
        np.subtract(gap, log_norm, out=gap)
        np.exp(gap, out=gap)
        np.log1p(gap, out=gap)
        np.add(log_norm, gap, out=log_norm)
        np.subtract(sq_dev[1], log_norm, out=r1)
        np.exp(r1, out=r1)
        np.subtract(1.0, r1, out=r0)
        ll = float(log_norm.sum())
        ll_trace.append(ll)
        if ll - ll_prev < EM_TOL and iterations > 1:
            converged = True
            break
        ll_prev = ll

    order = (1, 0) if means[0] > means[1] else (0, 1)
    return GmmFit(
        weights=tuple(weights[m] for m in order),
        means=tuple(means[m] for m in order),
        variances=tuple(variances[m] for m in order),
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        m3=m3,
        ll_trace=ll_trace,
    )


def metric_m1(fit: GmmFit) -> float:
    return abs(fit.means[0] - fit.means[1])


def metric_m2(fit: GmmFit) -> float:
    """KL(N1 || N2) with component 1 the lower-mean Gaussian."""
    v1, v2 = fit.variances
    gap = fit.means[0] - fit.means[1]
    return 0.5 * math.log(v2 / v1) + (v1 + gap * gap) / (2.0 * v2) - 0.5


def separation_metrics(normalized_losses):
    """(m1, m2, m3) of one epoch's normalized losses, from one GMM fit
    and the 2-means that warm-starts it."""
    gmm = fit_gmm2(normalized_losses)
    return metric_m1(gmm), metric_m2(gmm), gmm.m3


def fit_kmeans2_and_m3(normalized_losses):
    """Lloyd's 2-means on 1-D data; returns (KMeansFit, m3).

    Centroids start at the 10th and 90th percentiles, so the fit is
    deterministic. All-identical input yields a degenerate fit with m3 = 0.
    """
    x = np.asarray(normalized_losses, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ParameterError(f"need at least 2 one-dimensional points, got shape {x.shape}")
    if x.max() == x.min():
        fit = KMeansFit(
            centroids=(float(x[0]), float(x[0])),
            assignments=np.zeros(x.size, dtype=np.int64),
            inertia=0.0,
            degenerate=True,
        )
        return fit, 0.0
    c = np.percentile(x, [10, 90])
    upper = np.zeros(x.size, dtype=bool)
    for _ in range(KMEANS_MAX_ITER):
        new_upper = (x - c[1]) ** 2 < (x - c[0]) ** 2
        for m, members in enumerate((x[~new_upper], x[new_upper])):
            if members.size:
                c[m] = members.mean()
        if np.array_equal(new_upper, upper):
            break
        upper = new_upper
    assign = upper.astype(np.int64)
    if c[0] > c[1]:
        c = c[::-1]
        assign = 1 - assign
    inertia = float(((x - c[assign]) ** 2).sum())
    fit = KMeansFit(centroids=(float(c[0]), float(c[1])), assignments=assign, inertia=inertia)
    return fit, abs(fit.centroids[0] - fit.centroids[1])


@dataclass
class MetricSeries:
    """Per-epoch separation metrics; epochs kept sorted ascending."""

    epochs: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    def __post_init__(self):
        self.epochs = np.asarray(self.epochs, dtype=np.int64)
        self.m1 = np.asarray(self.m1, dtype=np.float64)
        self.m2 = np.asarray(self.m2, dtype=np.float64)
        self.m3 = np.asarray(self.m3, dtype=np.float64)
        n = self.epochs.size
        if not (self.m1.size == self.m2.size == self.m3.size == n):
            raise ParameterError("metric series lengths differ")
        if n > 1 and np.any(self.epochs[1:] <= self.epochs[:-1]):
            raise ParameterError("epochs must be strictly increasing")

    def values(self, metric_choice: str) -> np.ndarray:
        if metric_choice not in METRIC_NAMES:
            raise ParameterError(f"metric_choice must be one of {METRIC_NAMES}, got {metric_choice!r}")
        return getattr(self, metric_choice)


def _fit_rows(losses, rows, metrics, done) -> None:
    # metrics[:, i] and done[i] of each row i in turn
    for i in rows:
        metrics[:, i] = separation_metrics(normalize_losses(losses[i]))
        done[i] = True


def compute_metric_series(epochs, losses) -> MetricSeries:
    """The three metrics of each row of an (epochs, n) loss matrix whose row
    i holds epoch ``epochs[i]``; epochs must be strictly increasing.

    The fits are independent, so a matrix of at least
    ``FAN_OUT_MIN_ELEMENTS`` losses is shared between this process and
    forked children, as many in all as ``selc_lab.fork_workers`` allows.
    Of ``w`` processes, process j fits rows j, j + w, ...: EM needs more
    iterations in some epochs than in others, and interleaved shares even
    that out. The children write their metrics to an anonymous shared
    mapping and are reaped before this returns. A row that no process
    fitted, because a child failed or a share stopped at a row that
    raised, is fitted here afterwards, in row order, so an error is the
    one the first failing row raises in one process.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 2 or losses.shape[0] != len(epochs):
        raise ParameterError(f"need one loss row per epoch, got {len(epochs)} epochs "
                             f"and losses of shape {losses.shape}")
    if len(epochs) == 0:
        raise ParameterError("need at least one epoch of losses")
    rows = losses.shape[0]
    workers = fork_workers(rows) if losses.size >= FAN_OUT_MIN_ELEMENTS else 1
    metrics = shared((3, rows), np.float64)
    done = shared(rows, np.bool_)
    run_shares(workers, lambda j: _fit_rows(losses, range(j, rows, workers), metrics, done))
    # the rows left are fitted here, where the first bad one raises again
    _fit_rows(losses, np.flatnonzero(~done), metrics, done)
    return MetricSeries(epochs, *metrics.copy())


def _median3(values: np.ndarray) -> np.ndarray:
    # 3-wide median with shrunk edge windows
    out = np.empty_like(values)
    for i in range(values.size):
        out[i] = np.median(values[max(0, i - 1):i + 2])
    return out


def estimate_turning_point(series: MetricSeries, metric_choice: str = "m1",
                           smooth: bool = False) -> int:
    """Argmax epoch of the chosen metric; ties break toward the earliest.

    Correction has to start before the turning point, so the earlier of two
    equal peaks is the safe answer. ``smooth`` applies a 3-epoch median
    filter first to knock out single-epoch spikes.
    """
    if series.epochs.size == 0:
        raise ParameterError("cannot estimate a turning point from an empty series")
    values = series.values(metric_choice)
    if smooth:
        values = _median3(values)
    return int(series.epochs[int(np.argmax(values))])


def save_loss_snapshots(losses, path) -> None:
    """CSV rows (epoch, sample_id, loss) of an (epochs, n) loss matrix whose
    row e holds epoch e; floats via repr for exact reload.

    Written one epoch at a time, so only one epoch's text is in memory.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 2:
        raise ParameterError(f"losses must be an (epochs, n) matrix, got shape {losses.shape}")
    ids = [f",{i}," for i in range(losses.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(LOSSES_HEADER + "\n")
        for epoch, row in enumerate(losses):
            # line i is epoch + ids[i] + repr(loss i)
            head = str(epoch)
            fh.write(head + ("\n" + head).join(map(operator.add, ids, map(repr, row.tolist())))
                     + "\n")


def load_loss_snapshots(path):
    """(epochs, losses) of a losses CSV: the ascending int64 epoch numbers
    and the float64 (epochs, n) matrix whose row i holds epoch ``epochs[i]``.
    Lines may come in any order. Every epoch must hold the sample ids
    0..n-1 once each, with the same n >= ``MIN_SAMPLES`` in every epoch.
    A header-only file is an empty run: no epochs and a (0, 0) matrix.

    A file of at least ``FAN_OUT_MIN_BYTES`` is first parsed in shares of
    whole epochs (``_load_epoch_shares``), which keep only the losses and
    the epoch numbers, in a C-contiguous matrix. Any other
    file, and one whose shares do not hold whole epochs, each once, is
    parsed whole by ``tables.read_rows`` in this process, and its matrix
    is a view of the parsed rows, with no second copy of the losses."""
    with open_text(path) as fh:
        if fh.readline().rstrip("\n") != LOSSES_HEADER:
            raise FormatError(f"{path}: expected header '{LOSSES_HEADER}'")
        loaded = _load_epoch_shares(path, fh)
        if loaded is not None:
            return loaded
        rows = read_rows(path, fh, LOSSES_COLUMNS)
    epochs, ids, losses = rows["epoch"], rows["sample_id"], rows["loss"]
    if epochs.size == 0:
        return epochs, np.empty((0, 0))
    starts, n = _group_epochs(path, epochs, ids, losses)
    return epochs[starts], losses.reshape(-1, n)


def _group_epochs(path, epochs, ids, losses):
    """Put the parsed columns in (epoch, sample_id) order, in place, and
    check that every epoch holds the sample ids 0..n-1 once each, with the
    same n >= ``MIN_SAMPLES``; (the index of each epoch's first row, n)."""
    # what save_loss_snapshots writes is already in (epoch, sample_id) order
    if _out_of_order(epochs, ids):
        # sorted in place, one column at a time, and the order dropped
        # before the checks below make their temporaries
        order = np.lexsort((ids, epochs))
        for column in (epochs, ids, losses):
            column[:] = column[order]
        del order
    starts = np.r_[0, np.flatnonzero(epochs[1:] != epochs[:-1]) + 1]
    sizes = np.diff(np.r_[starts, epochs.size])
    n = int(sizes[0])
    uneven = np.flatnonzero(sizes != n)
    if uneven.size:
        k = uneven[0]
        raise FormatError(f"{path}: epoch {epochs[starts[k]]} holds {sizes[k]} samples, "
                          f"epoch {epochs[0]} holds {n}")
    if n < MIN_SAMPLES:
        raise FormatError(f"{path}: each epoch needs at least {MIN_SAMPLES} samples, got {n}")
    misnumbered = np.flatnonzero((ids.reshape(-1, n) != np.arange(n)).any(axis=1))
    if misnumbered.size:
        raise FormatError(f"{path}: epoch {epochs[starts[misnumbered[0]]]} sample ids "
                          f"are not 0..{n - 1}")
    return starts, n


def _load_epoch_shares(path, fh):
    """(epochs, losses) as ``load_loss_snapshots`` returns them, from the
    rows left in ``fh`` parsed in shares of whole epochs; or None if the
    file must be parsed whole. Only a ``plain`` file of at least
    ``FAN_OUT_MIN_BYTES`` with ``fh`` at line 2 is shared: ``max_rows`` of
    ``np.loadtxt`` does not count a line that it skips. The rows must make
    whole epochs of n, the count of rows at the top with the first row's
    epoch. Each share's process (``selc_lab.run_shares``) parses its lines
    from the path, in blocks, checks them as a whole file is checked
    (``_group_epochs``) and writes only their losses and epoch numbers to
    shared arrays. Blocks that do not rise from share to share are put in
    order here, with a copy. A share whose lines do not parse into as many
    finite rows raises the rescan's ``FormatError``. Any other fault, a
    dead child or an epoch in two shares included, gives None, and the
    whole parse then raises its own error or loads the file."""
    lines = fh.lines
    total = lines.count - 1
    shareable = lines.plain and lines.size >= FAN_OUT_MIN_BYTES and fh.tell() == lines.head
    workers = fork_workers(total) if shareable else 1
    if workers < 2:
        return None
    n = _first_epoch_rows(path, lines.head, total // 2)
    if n is None or n < MIN_SAMPLES or total % n:
        return None
    count = total // n
    workers = min(workers, count)
    # share j is epochs cuts[j] .. cuts[j + 1] - 1, counted from the top
    cuts = [j * count // workers for j in range(workers + 1)]
    losses = shared((count, n), np.float64)
    epochs = shared(count, np.int64)
    # raised[j]: share j's lines did not parse
    raised = shared(workers, np.bool_)
    # an absolute path, which np.loadtxt cannot take for a URL
    source = os.path.abspath(path)

    def parse(j):
        first, stop = cuts[j], cuts[j + 1]
        size = (stop - first) * n
        try:
            rows = np.loadtxt(source, dtype=LOSSES_COLUMNS, delimiter=",", comments=None, ndmin=1,
                              skiprows=1 + first * n, max_rows=size)
            if rows.size != size or not finite(rows):
                raise ValueError("rows missing or not finite")
        except ValueError:
            raised[j] = True
            raise
        starts, share_n = _group_epochs(path, rows["epoch"], rows["sample_id"], rows["loss"])
        if share_n != n:
            # not shown: the whole parse names the epoch
            raise FormatError(f"{path}: epochs of {share_n} samples, not {n}")
        losses[first:stop] = rows["loss"].reshape(-1, n)
        epochs[first:stop] = rows["epoch"][starts]

    if not run_shares(workers, parse):
        if raised.any() and (bad := first_bad_line(path, LOSSES_COLUMNS)):
            raise bad
        return None
    if (epochs[1:] > epochs[:-1]).all():
        return epochs, losses
    order = np.argsort(epochs)
    epochs = epochs[order]
    if (epochs[1:] == epochs[:-1]).any():
        return None
    return epochs, losses[order]


def _first_epoch_rows(path, head, limit):
    # the count of rows from the top of path, its line 2 at byte head, whose
    # epoch field is that of the first row, if at most limit
    with open(path, "rb") as raw:
        raw.seek(head)
        rows = islice(raw, limit + 1)
        prefix = next(rows).partition(b",")[0] + b","
        for count, line in enumerate(rows, start=1):
            if not line.startswith(prefix):
                return count
    return None


def _out_of_order(epochs, ids) -> bool:
    # whether a row does not come after the one before it in (epoch,
    # sample_id) order. Neighbours are compared, not subtracted: an int64
    # difference can wrap, and a comparison takes one byte per row.
    if (epochs[1:] < epochs[:-1]).any():
        return True
    behind = ids[1:] <= ids[:-1]
    behind &= epochs[1:] == epochs[:-1]
    return bool(behind.any())


def save_metric_series(series: MetricSeries, path) -> None:
    lines = [SERIES_HEADER]
    for i in range(series.epochs.size):
        lines.append(f"{series.epochs[i]},{float(series.m1[i])!r},"
                     f"{float(series.m2[i])!r},{float(series.m3[i])!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

