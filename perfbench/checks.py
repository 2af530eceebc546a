"""Correctness checks on selc-lab outputs, made apart from the program.

Nothing here imports ``selc_lab``: true labels are rebuilt from the blob
layout (class-balanced, in class order), targets and losses are parsed
from their text formats, and the turning-point truth is the one the
benchmark planted. Each check raises ``CheckError`` naming what is wrong.
"""

import json
import os

import numpy as np

SIMPLEX_TOL = 1e-9
# summary.json rounds floats to 6 significant digits
SUMMARY_TOL = 1e-6


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def balanced_labels(n, num_classes):
    """True labels of a blob split: class-balanced, in class order."""
    base, extra = divmod(n, num_classes)
    counts = [base + (1 if c < extra else 0) for c in range(num_classes)]
    return np.repeat(np.arange(num_classes), counts)


def read_targets(path):
    """Parse a targets checkpoint: a header line, then ``id p_0 .. p_C-1``."""
    with open(path) as fh:
        header = fh.readline().split()
        rows = [line.split() for line in fh if line.strip()]
    _require(len(header) == 3, f"{path}: bad header {header}")
    _require(rows, f"{path}: no target rows")
    ids = np.array([int(r[0]) for r in rows])
    _require(np.array_equal(ids, np.arange(len(rows))), f"{path}: ids are not 0..n-1 in order")
    width = {len(r) for r in rows}
    _require(len(width) == 1, f"{path}: ragged rows")
    return np.array([[float(v) for v in r[1:]] for r in rows])


def check_simplex(targets, path="targets"):
    _require(np.all(np.isfinite(targets)), f"{path}: nonfinite target")
    worst_neg = float(-targets.min())
    _require(worst_neg <= SIMPLEX_TOL, f"{path}: negative target entry {-worst_neg!r}")
    worst_sum = float(np.abs(targets.sum(axis=1) - 1.0).max())
    _require(worst_sum <= SIMPLEX_TOL, f"{path}: row sum off 1 by {worst_sum!r}")


def correction_accuracy(targets, true_labels):
    return float(np.mean(targets.argmax(axis=1) == true_labels))


def check_losses(path, epochs, n):
    """``losses.csv`` holds ``epochs`` x ``n`` finite losses >= 0, in order."""
    with open(path) as fh:
        header = fh.readline().strip()
    _require(header == "epoch,sample_id,loss", f"{path}: bad header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(table.shape == (epochs * n, 3),
             f"{path}: {table.shape[0]} rows, expected {epochs} x {n} = {epochs * n}")
    expect_epoch = np.repeat(np.arange(epochs), n)
    expect_id = np.tile(np.arange(n), epochs)
    _require(np.array_equal(table[:, 0], expect_epoch), f"{path}: epoch column out of order")
    _require(np.array_equal(table[:, 1], expect_id), f"{path}: sample ids out of order")
    losses = table[:, 2]
    _require(np.all(np.isfinite(losses)), f"{path}: nonfinite loss")
    _require(losses.min() >= 0.0, f"{path}: negative loss {losses.min()!r}")


def count_csv_rows(path):
    with open(path) as fh:
        lines = [line for line in fh.read().split("\n") if line]
    return len(lines) - 1


def check_training_run(run_dir, spec):
    """Check one ``selc-lab run`` output tree against its request.

    ``spec`` holds n, num_classes, trials, epochs, eta and plus_epochs
    (None unless the method is selc_plus). Returns (test_acc,
    correction_acc) as reported in summary.json.
    """
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    trials = spec["trials"]
    _require(summary["failed"] == {}, f"failed trials: {summary['failed']}")
    _require(summary["completed"] == trials, f"completed {summary['completed']}, expected {trials}")
    true_labels = balanced_labels(spec["n"], spec["num_classes"])
    # share of given labels that are correct under symmetric noise eta
    given_correct = 1.0 - spec["eta"] * (spec["num_classes"] - 1) / spec["num_classes"]
    reported = summary["last_epoch_correction_acc"]["per_trial"]
    for seed in trials:
        trial_dir = os.path.join(run_dir, f"trial_{seed}")
        path = os.path.join(trial_dir, "targets_final.txt")
        targets = read_targets(path)
        _require(targets.shape == (spec["n"], spec["num_classes"]),
                 f"{path}: shape {targets.shape}")
        check_simplex(targets, path)
        acc = correction_accuracy(targets, true_labels)
        _require(abs(acc - reported[str(seed)]) <= SUMMARY_TOL,
                 f"trial {seed}: correction_acc {acc!r} recomputed, "
                 f"{reported[str(seed)]!r} in summary.json")
        _require(acc > given_correct,
                 f"trial {seed}: correction_acc {acc!r} not above the given labels' {given_correct}")
        check_losses(os.path.join(trial_dir, "losses.csv"), spec["epochs"], spec["n"])
        if spec["plus_epochs"] is not None:
            rows = count_csv_rows(os.path.join(trial_dir, "plus_epochs.csv"))
            _require(rows == spec["plus_epochs"],
                     f"trial {seed}: plus_epochs.csv has {rows} rows, expected {spec['plus_epochs']}")
    if spec["plus_epochs"] is not None:
        test_acc = summary["plus_last_epoch_test_acc"]["mean"]
    else:
        test_acc = summary["last_epoch_test_acc"]["mean"]
    _require(0.0 < test_acc <= 1.0, f"test_acc {test_acc!r} outside (0, 1]")
    return test_acc, summary["last_epoch_correction_acc"]["mean"]


def read_series(path):
    with open(path) as fh:
        header = fh.readline().strip()
    _require(header == "epoch,m1,m2,m3", f"{path}: bad header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(table.shape[1] == 4, f"{path}: expected 4 columns")
    return table


def parse_estimates(stdout):
    """The ``<metric> <epoch>`` lines that detect-turning-point prints."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("m1", "m2", "m3", "turning_point"):
            found[parts[0]] = int(parts[1])
    _require(set(found) == {"m1", "m2", "m3", "turning_point"}, f"estimates missing: {found}")
    return found


def check_detection(stdout, series_path, planted):
    """Check detect-turning-point output against the planted mixture.

    ``planted`` holds peak (epoch), gap (per-epoch normalized mode gap),
    checked_epochs and gap_tol. The peak must come back exactly for m1 and
    m3 and within 2 epochs for m2; m1 must lie within gap_tol of the gap at
    every checked epoch. Returns (m1 fidelity, m3 fidelity): 1 - mean
    absolute error against the planted gap over all epochs.
    """
    peak = planted["peak"]
    gap = np.asarray(planted["gap"])
    est = parse_estimates(stdout)
    _require(est["m1"] == peak, f"m1 turning point {est['m1']}, planted {peak}")
    _require(est["m3"] == peak, f"m3 turning point {est['m3']}, planted {peak}")
    _require(abs(est["m2"] - peak) <= 2, f"m2 turning point {est['m2']}, planted {peak} +/- 2")
    _require(est["turning_point"] == est["m1"], "turning_point is not the m1 estimate")
    table = read_series(series_path)
    _require(np.array_equal(table[:, 0], np.arange(gap.size)),
             f"{series_path}: epochs are not 0..{gap.size - 1}")
    _require(np.all(np.isfinite(table[:, 1:])), f"{series_path}: nonfinite metric")
    checked = np.asarray(planted["checked_epochs"], dtype=np.int64)
    _require(checked.size > 0 and peak in checked, "no checked epochs around the peak")
    m1_err = np.abs(table[:, 1] - gap)
    worst = int(checked[np.argmax(m1_err[checked])])
    _require(m1_err[worst] <= planted["gap_tol"],
             f"m1 at epoch {worst} is {table[worst, 1]!r}, planted gap {gap[worst]!r} "
             f"+/- {planted['gap_tol']!r}")
    return 1.0 - float(m1_err.mean()), 1.0 - float(np.abs(table[:, 3] - gap).mean())
