"""Fast tests of the benchmark's correctness checks: a well-formed output
passes, and each corruption the checks exist for is rejected.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import checks
import workloads

N, C, EPOCHS, PLUS = 8, 4, 2, 3
SPEC = {"n": N, "num_classes": C, "trials": [1], "epochs": EPOCHS, "eta": 0.4, "plus_epochs": PLUS}


def write_run(run_dir, targets=None, losses=None, reported_acc=None, plus_rows=PLUS):
    """A minimal ``selc-lab run`` output tree that passes every check."""
    trial = os.path.join(run_dir, "trial_1")
    os.makedirs(trial)
    if targets is None:
        targets = np.full((N, C), 0.1)
        targets[np.arange(N), checks.balanced_labels(N, C)] = 0.7
    if losses is None:
        losses = np.linspace(0.0, 2.0, EPOCHS * N)
    acc = checks.correction_accuracy(np.asarray(targets), checks.balanced_labels(N, C))
    summary = {
        "failed": {}, "completed": [1],
        "last_epoch_test_acc": {"mean": 0.9},
        "plus_last_epoch_test_acc": {"mean": 0.95},
        "last_epoch_correction_acc": {
            "mean": acc, "per_trial": {"1": acc if reported_acc is None else reported_acc}},
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    with open(os.path.join(trial, "targets_final.txt"), "w") as fh:
        fh.write("0.9 2 selc\n")
        for i, row in enumerate(targets):
            fh.write(f"{i} " + " ".join(repr(float(v)) for v in row) + "\n")
    with open(os.path.join(trial, "losses.csv"), "w") as fh:
        fh.write("epoch,sample_id,loss\n")
        for k, loss in enumerate(losses):
            fh.write(f"{k // N},{k % N},{float(loss)!r}\n")
    with open(os.path.join(trial, "plus_epochs.csv"), "w") as fh:
        fh.write("epoch,lr,train_loss,train_acc,test_acc\n")
        for e in range(plus_rows):
            fh.write(f"{e},0.06,0.5,0.9,0.95\n")
    return run_dir


def test_well_formed_run_passes(tmp_path):
    run = write_run(str(tmp_path / "run"))
    assert checks.check_training_run(run, SPEC) == (0.95, 1.0)


def test_target_row_off_simplex_is_rejected(tmp_path):
    targets = np.full((N, C), 0.1)
    targets[np.arange(N), checks.balanced_labels(N, C)] = 0.7
    targets[3, 0] += 1e-6
    run = write_run(str(tmp_path / "run"), targets=targets)
    with pytest.raises(checks.CheckError, match="row sum"):
        checks.check_training_run(run, SPEC)


def test_negative_target_entry_is_rejected():
    targets = np.array([[1.2, -0.2, 0.0, 0.0]])
    with pytest.raises(checks.CheckError, match="negative"):
        checks.check_simplex(targets)


def test_correction_acc_disagreeing_with_summary_is_rejected(tmp_path):
    run = write_run(str(tmp_path / "run"), reported_acc=0.875)
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_training_run(run, SPEC)


def test_correction_acc_at_the_given_labels_share_is_rejected(tmp_path):
    # 5 of 8 argmaxes right: 0.625, below the 0.7 of the given labels
    targets = np.full((N, C), 0.1)
    targets[np.arange(N), checks.balanced_labels(N, C)] = 0.7
    targets[:3] = targets[:3, ::-1]
    run = write_run(str(tmp_path / "run"), targets=targets)
    with pytest.raises(checks.CheckError, match="not above"):
        checks.check_training_run(run, SPEC)


@pytest.mark.parametrize("bad, match", [
    (np.r_[np.ones(EPOCHS * N - 1), -0.5], "negative loss"),
    (np.r_[np.ones(EPOCHS * N - 1), np.inf], "nonfinite"),
    (np.ones(EPOCHS * N - 1), "rows"),
])
def test_bad_losses_are_rejected(tmp_path, bad, match):
    run = write_run(str(tmp_path / "run"), losses=bad)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_training_run(run, SPEC)


def test_short_plus_epochs_csv_is_rejected(tmp_path):
    run = write_run(str(tmp_path / "run"), plus_rows=PLUS - 1)
    with pytest.raises(checks.CheckError, match="plus_epochs.csv"):
        checks.check_training_run(run, SPEC)


def planted_output(tmp_path, m1_shift=None, estimates=None):
    planted = {"peak": 5, "gap": [0.2, 0.2, 0.25, 0.3, 0.35, 0.4, 0.35, 0.3],
               "checked_epochs": [4, 5, 6], "gap_tol": 0.01}
    m1 = np.array(planted["gap"]) + 0.002
    if m1_shift is not None:
        m1[m1_shift[0]] += m1_shift[1]
    path = str(tmp_path / "series.csv")
    with open(path, "w") as fh:
        fh.write("epoch,m1,m2,m3\n")
        for e, v in enumerate(m1):
            fh.write(f"{e},{float(v)!r},{float(10 * v * v)!r},{float(v)!r}\n")
    est = {"m1": 5, "m2": 5, "m3": 5}
    est.update(estimates or {})
    stdout = "".join(f"{k} {v}\n" for k, v in est.items()) + f"turning_point {est['m1']}\n"
    return stdout, path, planted


def test_planted_detection_passes(tmp_path):
    stdout, path, planted = planted_output(tmp_path)
    m1_fidelity, m3_fidelity = checks.check_detection(stdout, path, planted)
    assert m1_fidelity == pytest.approx(0.998)
    assert m3_fidelity == pytest.approx(0.998)


def test_m2_within_two_epochs_passes(tmp_path):
    stdout, path, planted = planted_output(tmp_path, estimates={"m2": 7})
    checks.check_detection(stdout, path, planted)


@pytest.mark.parametrize("estimates, match", [
    ({"m1": 4}, "m1 turning point"),
    ({"m3": 6}, "m3 turning point"),
    ({"m2": 8}, "m2 turning point"),
])
def test_wrong_planted_epoch_is_rejected(tmp_path, estimates, match):
    stdout, path, planted = planted_output(tmp_path, estimates=estimates)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_detection(stdout, path, planted)


def test_m1_off_the_planted_gap_is_rejected(tmp_path):
    stdout, path, planted = planted_output(tmp_path, m1_shift=(6, 0.02))
    with pytest.raises(checks.CheckError, match="m1 at epoch 6"):
        checks.check_detection(stdout, path, planted)


def test_planted_losses_are_seeded_and_normalize_to_the_mixture():
    losses, planted = workloads.planted_losses(7)
    again, _ = workloads.planted_losses(7)
    other, _ = workloads.planted_losses(8)
    assert np.array_equal(losses, again)
    assert not np.array_equal(losses, other)
    normalized = losses / losses.max(axis=1, keepdims=True)
    assert np.all(losses.min(axis=1) == 0.0)
    threshold = workloads.DETECT_LOW_MEAN + np.array(planted["gap"])[:, None] / 2
    noisy_share = np.mean(normalized > threshold, axis=1)
    assert np.all(np.abs(noisy_share - workloads.DETECT_NOISY_SHARE) < 0.05)
    assert planted["peak"] in planted["checked_epochs"]
    assert max(planted["gap"]) == planted["gap"][planted["peak"]]
