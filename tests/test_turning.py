import math
import os
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, stats

from selc_lab.errors import FormatError, ParameterError
from selc_lab.rng import stream
from selc_lab.turning import (
    EM_MAX_ITER,
    EM_TOL,
    FAN_OUT_MIN_BYTES,
    VARIANCE_FLOOR,
    GmmFit,
    MetricSeries,
    compute_metric_series,
    estimate_turning_point,
    fit_gmm2,
    fit_kmeans2_and_m3,
    load_loss_snapshots,
    metric_m1,
    metric_m2,
    normalize_losses,
    save_loss_snapshots,
    save_metric_series,
)


def quantile_zs(n):
    # deterministic standard-normal sample via midpoint quantiles
    return np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])


def bimodal_losses(mu1, gap, sigma, n_half):
    zs = quantile_zs(n_half)
    return np.concatenate([mu1 + sigma * zs, mu1 + gap + sigma * zs])


def test_normalize_examples():
    assert np.allclose(normalize_losses([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])
    assert np.array_equal(normalize_losses([3.0, 3.0, 3.0]), [0.0, 0.0, 0.0])
    out = normalize_losses([5.0])
    assert np.array_equal(out, [0.0])


def test_normalize_affine_invariance(rng):
    x = rng.standard_normal(50)
    base = normalize_losses(x)
    assert np.allclose(normalize_losses(3.5 * x + 11.0), base, atol=1e-12)
    assert base.min() == 0.0 and base.max() == 1.0


def test_normalize_rejects_bad_input():
    with pytest.raises(ParameterError):
        normalize_losses([])
    with pytest.raises(ParameterError):
        normalize_losses(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        normalize_losses([1.0, np.nan])


def test_gmm_recovers_separated_components():
    rng = stream(1234, "gmm")
    x = np.concatenate([
        0.25 + math.sqrt(0.002) * rng.standard_normal(600),
        0.75 + math.sqrt(0.003) * rng.standard_normal(400),
    ])
    fit = fit_gmm2(x)
    assert fit.converged
    assert fit.iterations < EM_MAX_ITER
    assert fit.means[0] < fit.means[1]
    assert fit.means[0] == pytest.approx(0.25, abs=0.01)
    assert fit.means[1] == pytest.approx(0.75, abs=0.01)
    assert fit.weights[0] == pytest.approx(0.6, abs=0.03)
    assert fit.weights[1] == pytest.approx(0.4, abs=0.03)
    assert fit.variances[0] == pytest.approx(0.002, rel=0.3)
    assert fit.variances[1] == pytest.approx(0.003, rel=0.3)


def test_gmm_ll_trace_is_nondecreasing():
    rng = stream(3, "trace")
    x = np.concatenate([rng.normal(0.2, 0.05, 300), rng.normal(0.7, 0.08, 300)])
    fit = fit_gmm2(x)
    diffs = np.diff(fit.ll_trace)
    assert np.all(diffs >= -1e-9)
    assert fit.log_likelihood == fit.ll_trace[-1]


def test_gmm_merged_regime_reports_small_gap():
    rng = stream(4, "merged")
    x = rng.normal(0.5, 0.05, 500)
    merged = fit_gmm2(normalize_losses(x))
    split = fit_gmm2(normalize_losses(bimodal_losses(0.2, 0.5, 0.03, 250)))
    assert metric_m1(merged) < 0.5 * metric_m1(split)


def test_gmm_input_validation():
    with pytest.raises(ParameterError):
        fit_gmm2([0.1, 0.2, 0.3])
    with pytest.raises(ParameterError):
        fit_gmm2(np.zeros((4, 1)))


def reference_gmm2(x):
    """EM on an (n, 2) responsibility matrix: the plain two-column form of
    the algorithm fit_gmm2 implements, kept as its oracle."""
    x = np.asarray(x, dtype=np.float64)
    km, _ = fit_kmeans2_and_m3(x)
    resp = np.zeros((x.size, 2))
    if km.degenerate:
        resp[:] = 0.5
    else:
        resp[np.arange(x.size), km.assignments] = 1.0
        if resp.sum(axis=0).min() == 0.0:
            resp[:] = 0.5
    weights, means, variances = np.empty(2), np.empty(2), np.empty(2)
    ll_prev = -np.inf
    for iterations in range(1, EM_MAX_ITER + 1):
        mass = resp.sum(axis=0)
        weights = mass / x.size
        for m in range(2):
            if mass[m] <= 0.0:
                continue
            means[m] = resp[:, m] @ x / mass[m]
            variances[m] = resp[:, m] @ (x - means[m]) ** 2 / mass[m]
        variances = np.maximum(variances, VARIANCE_FLOOR)
        log_joint = np.stack([
            np.log(np.maximum(weights[m], 1e-300))
            - 0.5 * np.log(2.0 * np.pi * variances[m])
            - (x - means[m]) ** 2 / (2.0 * variances[m])
            for m in range(2)
        ], axis=1)
        top = log_joint.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_joint - top).sum(axis=1))
        resp = np.exp(log_joint - log_norm[:, None])
        ll = float(log_norm.sum())
        if ll - ll_prev < EM_TOL and iterations > 1:
            break
        ll_prev = ll
    order = [1, 0] if means[0] > means[1] else [0, 1]
    return weights[order], means[order], variances[order], ll, iterations


def oracle_inputs():
    rng = stream(2024, "oracle")
    return {
        "separated": np.concatenate([rng.normal(0.2, 0.04, 700), rng.normal(0.8, 0.06, 300)]),
        "overlapping": normalize_losses(np.concatenate([rng.normal(0.17, 0.04, 4200),
                                                        rng.normal(0.37, 0.08, 1800)])),
        "unimodal": rng.normal(0.5, 0.1, 500),
        "constant": np.full(50, 0.3),
        "four_points": np.array([0.0, 0.1, 0.8, 1.0]),
    }


@pytest.mark.parametrize("name", sorted(oracle_inputs()))
def test_gmm_matches_two_column_reference(name):
    x = oracle_inputs()[name]
    weights, means, variances, ll, iterations = reference_gmm2(x)
    fit = fit_gmm2(x)
    assert fit.iterations == iterations
    assert np.allclose(fit.weights, weights, rtol=0.0, atol=1e-9)
    assert np.allclose(fit.means, means, rtol=0.0, atol=1e-9)
    assert np.allclose(fit.variances, variances, rtol=0.0, atol=1e-9)
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-12, abs=1e-9)
    assert fit.m3 == fit_kmeans2_and_m3(x)[1]


def test_m2_closed_form_examples():
    def fake(means, variances):
        return GmmFit(weights=(0.5, 0.5), means=means, variances=variances,
                      log_likelihood=0.0, iterations=1, converged=True)

    assert metric_m2(fake((0.3, 0.3), (0.01, 0.01))) == pytest.approx(0.0, abs=1e-12)
    # equal variances: KL = gap^2 / (2 v)
    assert metric_m2(fake((0.2, 0.8), (0.09, 0.09))) == pytest.approx(0.36 / 0.18, abs=1e-12)
    assert metric_m2(fake((0.0, 1.0), (1.0, 1.0))) == pytest.approx(0.5, abs=1e-12)


def test_m2_matches_quadrature():
    fit = GmmFit(weights=(0.5, 0.5), means=(0.3, 0.7), variances=(0.01, 0.04),
                 log_likelihood=0.0, iterations=1, converged=True)

    def integrand(x):
        p = stats.norm.pdf(x, 0.3, 0.1)
        return p * (stats.norm.logpdf(x, 0.3, 0.1) - stats.norm.logpdf(x, 0.7, 0.2))

    expected, err = integrate.quad(integrand, -3.0, 3.0)
    assert err < 1e-6
    assert metric_m2(fit) == pytest.approx(expected, abs=1e-8)


def test_kmeans_two_point_masses():
    fit, m3 = fit_kmeans2_and_m3(np.array([0.0, 0.0, 1.0, 1.0]))
    assert fit.centroids == (0.0, 1.0)
    assert np.array_equal(fit.assignments, [0, 0, 1, 1])
    assert fit.inertia == 0.0
    assert m3 == 1.0


def test_kmeans_constant_input_degenerates():
    fit, m3 = fit_kmeans2_and_m3(np.full(10, 0.4))
    assert fit.degenerate
    assert m3 == 0.0
    assert fit.inertia == 0.0


def best_sorted_split(x):
    # 1-D 2-means optimum is a split of the sorted sample
    xs = np.sort(x)
    best = (np.inf, None)
    for k in range(1, xs.size):
        left, right = xs[:k], xs[k:]
        inertia = float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())
        if inertia < best[0]:
            best = (inertia, (float(left.mean()), float(right.mean())))
    return best


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_kmeans_matches_brute_force_split(seed):
    rng = stream(seed, "split")
    x = np.concatenate([rng.normal(0.25, 0.07, 120), rng.normal(0.7, 0.1, 80)])
    fit, m3 = fit_kmeans2_and_m3(x)
    inertia, centroids = best_sorted_split(x)
    assert fit.inertia == pytest.approx(inertia, rel=1e-12)
    assert fit.centroids[0] == pytest.approx(centroids[0], abs=1e-12)
    assert fit.centroids[1] == pytest.approx(centroids[1], abs=1e-12)
    assert m3 == pytest.approx(centroids[1] - centroids[0], abs=1e-12)


def test_kmeans_input_validation():
    with pytest.raises(ParameterError):
        fit_kmeans2_and_m3([0.5])


def test_reflection_leaves_m1_m3_unchanged():
    x = normalize_losses(bimodal_losses(0.1, 0.6, 0.05, 100))
    gmm_a, gmm_b = fit_gmm2(x), fit_gmm2(1.0 - x)
    assert metric_m1(gmm_a) == pytest.approx(metric_m1(gmm_b), abs=1e-9)
    (_, m3_a) = fit_kmeans2_and_m3(x)
    (_, m3_b) = fit_kmeans2_and_m3(1.0 - x)
    assert m3_a == pytest.approx(m3_b, abs=1e-12)


def test_metric_series_validation_and_values():
    with pytest.raises(ParameterError):
        MetricSeries(epochs=[0, 1], m1=[0.1], m2=[0.1, 0.2], m3=[0.1, 0.2])
    with pytest.raises(ParameterError):
        MetricSeries(epochs=[0, 0], m1=[0.1, 0.2], m2=[0.1, 0.2], m3=[0.1, 0.2])
    series = MetricSeries(epochs=[0, 1], m1=[0.1, 0.2], m2=[0.3, 0.4], m3=[0.5, 0.6])
    assert np.array_equal(series.values("m2"), [0.3, 0.4])
    with pytest.raises(ParameterError):
        series.values("m4")


def test_rise_then_fall_peak_is_found_by_every_metric():
    gaps = [0.05, 0.12, 0.2, 0.3, 0.22, 0.12, 0.06]
    losses = np.array([bimodal_losses(1.0, g, 0.03, 50) for g in gaps])
    series = compute_metric_series(np.arange(len(gaps)), losses)
    assert estimate_turning_point(series, "m1") == 3
    assert estimate_turning_point(series, "m2") == 3
    assert estimate_turning_point(series, "m3") == 3
    assert estimate_turning_point(series) == 3


def test_estimate_uses_listed_epoch_numbers():
    series = MetricSeries(epochs=[10, 20, 30], m1=[0.1, 0.9, 0.2],
                          m2=[0.0, 0.0, 0.0], m3=[0.0, 0.0, 0.0])
    assert estimate_turning_point(series, "m1") == 20


def test_tie_breaks_to_earliest_epoch():
    series = MetricSeries(epochs=[0, 1, 2, 3], m1=[0.1, 0.5, 0.5, 0.2],
                          m2=np.zeros(4), m3=np.zeros(4))
    assert estimate_turning_point(series, "m1") == 1


def test_constant_series_estimates_first_epoch():
    series = MetricSeries(epochs=[2, 3, 4], m1=np.full(3, 0.3),
                          m2=np.zeros(3), m3=np.zeros(3))
    assert estimate_turning_point(series, "m1") == 2


def test_smoothing_suppresses_single_epoch_spike():
    m1 = [0.0, 0.0, 5.0, 0.0, 1.0, 2.0, 3.0, 3.0, 1.0]
    series = MetricSeries(epochs=np.arange(9), m1=m1, m2=np.zeros(9), m3=np.zeros(9))
    assert estimate_turning_point(series, "m1") == 2
    assert estimate_turning_point(series, "m1", smooth=True) == 6


def test_compute_metric_series_validates():
    losses = np.array([bimodal_losses(1.0, g, 0.05, 20) for g in (0.3, 0.1, 0.2)])
    series = compute_metric_series([1, 3, 5], losses)
    assert list(series.epochs) == [1, 3, 5]
    with pytest.raises(ParameterError):
        compute_metric_series([], np.empty((0, 0)))
    with pytest.raises(ParameterError):
        compute_metric_series([0, 1], losses)
    with pytest.raises(ParameterError):
        compute_metric_series([5, 1, 3], losses)


def test_default_metric_is_m1():
    # m1 and m2 disagree; the default must follow m1
    series = MetricSeries(epochs=[0, 1], m1=[1.0, 0.5], m2=[0.1, 9.0], m3=[0.0, 0.0])
    assert estimate_turning_point(series) == 0
    assert estimate_turning_point(series, metric_choice="m2") == 1


def test_loss_snapshot_roundtrip_is_exact(tmp_path):
    losses = stream(6, "io").uniform(0.01, 3.0, size=(3, 17))
    path = tmp_path / "losses.csv"
    save_loss_snapshots(losses, path)
    epochs, back = load_loss_snapshots(path)
    assert epochs.dtype == np.int64 and list(epochs) == [0, 1, 2]
    assert back.dtype == np.float64 and np.array_equal(back, losses)


def snapshot_writer_reference(losses, path):
    """The per-snapshot losses.csv writer the matrix writer replaced, one
    snapshot per row of ``losses``."""
    with open(path, "w", newline="") as fh:
        fh.write("epoch,sample_id,loss\n")
        for epoch, row in enumerate(losses):
            fh.write("".join(f"{epoch},{i},{loss!r}\n" for i, loss in enumerate(row.tolist())))


@pytest.mark.parametrize("epochs,n", [(1, 1), (3, 17), (12, 1001)])
def test_loss_matrix_writer_matches_snapshot_writer(tmp_path, epochs, n):
    losses = stream(9, "bytes").lognormal(0.0, 2.0, size=(epochs, n))
    losses[0, 0] = 27.631021115928547  # -log(1e-12), the clamped maximum
    if n > 3:
        losses[-1, 1:4] = [0.0, 5e-324, 1.0]
    save_loss_snapshots(losses, tmp_path / "matrix.csv")
    snapshot_writer_reference(losses, tmp_path / "snapshots.csv")
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "snapshots.csv").read_bytes()


def test_loss_matrix_writer_rejects_non_matrix(tmp_path):
    with pytest.raises(ParameterError):
        save_loss_snapshots(np.ones(5), tmp_path / "losses.csv")


def test_loss_snapshot_load_rejects_bad_files(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("wrong,header,here\n0,0,1.0\n")
    with pytest.raises(FormatError):
        load_loss_snapshots(p)
    p.write_text("epoch,sample_id,loss\n0,0,1.0\n0,1,1.0\n0,2,1.0\n0,4,1.0\n")
    with pytest.raises(FormatError):
        load_loss_snapshots(p)
    p.write_text("epoch,sample_id,loss\n0,0,banana\n")
    with pytest.raises(FormatError):
        load_loss_snapshots(p)


def test_loss_snapshot_load_skips_blank_lines_and_groups_by_epoch(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("epoch,sample_id,loss\n3,1,2.0\n\n1,0,0.5\n3,0,1.0\n1,3,0.75\n1,1,0.25\n"
                 "3,3,4.0\n\n1,2,0.125\n3,2,3.0\n\n")
    epochs, back = load_loss_snapshots(p)
    assert list(epochs) == [1, 3]
    assert np.array_equal(back, [[0.5, 0.25, 0.125, 0.75], [1.0, 2.0, 3.0, 4.0]])


def test_loss_snapshot_load_sorts_epochs_at_the_ends_of_int64(tmp_path):
    # epoch 2**63 - 1 before -2**63: their difference wraps to 1 in int64
    p = tmp_path / "a.csv"
    p.write_text("epoch,sample_id,loss\n"
                 + "".join(f"{2**63 - 1},{i},{1.0 + i}\n" for i in range(4))
                 + "".join(f"{-2**63},{i},{0.5 + i}\n" for i in range(4)))
    epochs, back = load_loss_snapshots(p)
    assert list(epochs) == [-2**63, 2**63 - 1]
    assert np.array_equal(back, [[0.5, 1.5, 2.5, 3.5], [1.0, 2.0, 3.0, 4.0]])


# the parsed rows take 24 bytes each (epoch, sample_id, loss). Loading this
# in-order file peaked at 26.7 bytes per row with numpy 2.4, and at 42.0 when
# the order checks subtracted neighbours into int64 arrays and the losses
# were copied out of the rows. Its row-shuffled copy peaked at 48.2 bytes
# per row once the columns were sorted in place, against 58.7 when three
# sorted columns were gathered beside the rows.
LOAD_PEAK_BYTES_PER_ROW = 28
SHUFFLED_LOAD_PEAK_BYTES_PER_ROW = 50


PEAK_EPOCHS, PEAK_N = 15, 4000


def load_peak(tmp_path, shuffled):
    """Load a 15 x 4000 ``losses.csv``, its rows shuffled or not; the load
    must return the losses written, and its tracemalloc peak is returned."""
    losses = stream(8, "peak").uniform(0.01, 3.0, size=(PEAK_EPOCHS, PEAK_N))
    p = tmp_path / "losses.csv"
    save_loss_snapshots(losses, p)
    if shuffled:
        header, *lines = p.read_text().splitlines()
        order = stream(9, "shuffle").permutation(len(lines))
        p.write_text("\n".join([header] + [lines[i] for i in order]) + "\n")
    # one process parses a file this small, so tracemalloc sees numpy's buffers
    assert os.path.getsize(p) < FAN_OUT_MIN_BYTES
    tracemalloc.start()
    try:
        _, back = load_loss_snapshots(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, losses)
    return peak


def test_loss_snapshot_load_keeps_one_copy_of_the_rows(tmp_path):
    assert load_peak(tmp_path, False) < LOAD_PEAK_BYTES_PER_ROW * PEAK_EPOCHS * PEAK_N


def test_shuffled_loss_snapshot_load_sorts_the_rows_in_place(tmp_path):
    assert load_peak(tmp_path, True) < SHUFFLED_LOAD_PEAK_BYTES_PER_ROW * PEAK_EPOCHS * PEAK_N


def test_loss_snapshot_load_header_only_is_empty(tmp_path):
    p = tmp_path / "a.csv"
    for text in ("epoch,sample_id,loss\n", "epoch,sample_id,loss"):
        p.write_text(text)
        epochs, losses = load_loss_snapshots(p)
        assert epochs.dtype == np.int64 and epochs.size == 0
        assert losses.shape == (0, 0)


@pytest.mark.parametrize("bad_line", ["0,2,banana", "0,1.5,1.0", "0,2", "#0,2,1.0"])
def test_loss_snapshot_load_names_file_and_line(tmp_path, bad_line):
    p = tmp_path / "a.csv"
    p.write_text(f"epoch,sample_id,loss\n0,0,1.0\n\n0,1,2.0\n{bad_line}\n0,3,1.5\n")
    with pytest.raises(FormatError, match=r"a\.csv:5: "):
        load_loss_snapshots(p)


def test_metric_series_roundtrip_is_exact(tmp_path):
    rng = stream(7, "series")
    series = MetricSeries(epochs=np.arange(5), m1=rng.uniform(size=5),
                          m2=rng.uniform(size=5), m3=rng.uniform(size=5))
    path = tmp_path / "metrics.csv"
    save_metric_series(series, path)
    with open(path) as fh:
        assert fh.readline() == "epoch,m1,m2,m3\n"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], series.epochs)
    for j, name in enumerate(("m1", "m2", "m3"), start=1):
        assert back[:, j].tobytes() == getattr(series, name).tobytes(), name


def test_metric_series_rejects_epochs_at_the_ends_of_int64():
    with pytest.raises(ParameterError, match="strictly increasing"):
        MetricSeries(epochs=[2**63 - 1, -2**63], m1=[0.1, 0.2], m2=[0.1, 0.2], m3=[0.1, 0.2])

