import numpy as np
import pytest

from selc_lab.diagnostics import (
    MemorizationStats,
    append_metrics_ledger,
    confusion_of_corrections,
    correction_accuracy,
    memorization_stats,
    write_confusion_csv,
)
from selc_lab.errors import DimensionError
from selc_lab.mlp import one_hot
from selc_lab.noise import build_symmetric_q, empirical_noise_rate, inject_noise
from selc_lab.rng import stream


def test_correction_accuracy_examples():
    targets = np.array([
        [0.9, 0.1, 0.0],
        [0.2, 0.7, 0.1],
        [0.1, 0.6, 0.3],
    ])
    true = np.array([0, 1, 2])
    assert correction_accuracy(targets, true) == pytest.approx(2.0 / 3.0)
    assert correction_accuracy(one_hot(true, 3), true) == 1.0


def test_correction_accuracy_tie_goes_to_lowest_index():
    uniform = np.full((4, 2), 0.5)
    assert correction_accuracy(uniform, np.zeros(4, dtype=int)) == 1.0
    assert correction_accuracy(uniform, np.ones(4, dtype=int)) == 0.0


def test_correction_accuracy_accepts_hard_labels():
    # the argmax labels score as the targets they came from, in any int type
    targets = stream(4, "hard").dirichlet(np.ones(3), size=50)
    true = stream(5, "hard").integers(0, 3, size=50)
    hard = targets.argmax(axis=1).astype(np.uint8)
    assert correction_accuracy(hard, true) == correction_accuracy(targets, true)
    with pytest.raises(DimensionError):
        correction_accuracy(hard[:49], true)


def test_uncorrected_onehot_equals_one_minus_noise_rate():
    rng = stream(9, "agree")
    true = rng.integers(0, 5, size=400)
    noisy = inject_noise(true, build_symmetric_q(5, 0.4), seed=3)
    acc = correction_accuracy(one_hot(noisy, 5), true)
    assert acc == pytest.approx(1.0 - empirical_noise_rate(noisy, true), abs=1e-12)


def test_correction_accuracy_misaligned():
    with pytest.raises(DimensionError):
        correction_accuracy(np.full((3, 2), 0.5), np.zeros(4, dtype=int))


def test_memorization_perfect_predictor():
    true = np.array([0, 1, 2, 0, 1, 2])
    noisy = np.array([0, 1, 2, 1, 2, 0])  # second half mislabeled
    stats = memorization_stats(true, noisy, true)
    assert stats.clean_correct_frac == 1.0
    assert stats.clean_incorrect_frac == 0.0
    assert stats.mislabeled_correct_frac == 1.0
    assert stats.mislabeled_memorized_frac == 0.0
    assert stats.mislabeled_other_frac == 0.0


def test_memorization_pure_memorizer():
    # predicting the given label memorizes every mislabeled sample
    true = np.array([0, 1, 2, 0])
    noisy = np.array([0, 2, 1, 0])
    stats = memorization_stats(noisy, noisy, true)
    assert stats.clean_correct_frac == 1.0
    assert stats.mislabeled_memorized_frac == 1.0
    assert stats.mislabeled_correct_frac == 0.0


def test_memorization_hand_enumerated():
    # 12 clean (9 right, 3 wrong), 8 mislabeled (2 right, 4 memorized, 2 other)
    true = np.array([0] * 12 + [1] * 8)
    noisy = np.array([0] * 12 + [2] * 8)
    pred = np.array([0] * 9 + [1] * 3 + [1, 1, 2, 2, 2, 2, 0, 0])
    stats = memorization_stats(pred, noisy, true)
    assert stats.clean_correct_frac == pytest.approx(9 / 12)
    assert stats.clean_incorrect_frac == pytest.approx(3 / 12)
    assert stats.mislabeled_correct_frac == pytest.approx(2 / 8)
    assert stats.mislabeled_memorized_frac == pytest.approx(4 / 8)
    assert stats.mislabeled_other_frac == pytest.approx(2 / 8)


def test_memorization_group_fractions_sum_to_one(rng):
    for _ in range(10):
        n = int(rng.integers(5, 60))
        c = int(rng.integers(2, 6))
        true = rng.integers(0, c, size=n)
        noisy = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        stats = memorization_stats(pred, noisy, true)
        if (noisy == true).any():
            assert stats.clean_correct_frac + stats.clean_incorrect_frac == pytest.approx(1.0)
        if (noisy != true).any():
            total = (stats.mislabeled_correct_frac + stats.mislabeled_memorized_frac
                     + stats.mislabeled_other_frac)
            assert total == pytest.approx(1.0)


def test_memorization_empty_groups_flagged():
    # an empty group reports zeros
    true = np.array([0, 1])
    stats = memorization_stats(true, true, true)
    assert stats.clean_correct_frac == 1.0
    assert (stats.mislabeled_correct_frac, stats.mislabeled_memorized_frac,
            stats.mislabeled_other_frac) == (0.0, 0.0, 0.0)
    flipped = np.array([1, 0])
    stats = memorization_stats(true, flipped, true)
    assert stats.mislabeled_correct_frac == 1.0
    assert (stats.clean_correct_frac, stats.clean_incorrect_frac) == (0.0, 0.0)


def test_memorization_accepts_probability_matrix():
    probs = np.array([[0.8, 0.2], [0.3, 0.7]])
    true = np.array([0, 1])
    stats = memorization_stats(probs, true, true)
    assert stats.clean_correct_frac == 1.0


def test_memorization_misaligned():
    with pytest.raises(DimensionError):
        memorization_stats(np.zeros(3, dtype=int), np.zeros(4, dtype=int),
                           np.zeros(3, dtype=int))


def test_confusion_identity_when_targets_match_truth():
    true = np.array([0, 0, 1, 2, 2, 2])
    counts = confusion_of_corrections(one_hot(true, 3), true)
    assert np.array_equal(counts, np.diag([2, 1, 3]))


def test_confusion_total_and_rows():
    rng = stream(14, "conf")
    true = rng.integers(0, 4, size=200)
    corrected = rng.integers(0, 4, size=200)
    counts = confusion_of_corrections(one_hot(corrected, 4), true)
    assert counts.sum() == 200
    for c in range(4):
        assert counts[c].sum() == int((true == c).sum())


def test_confusion_tracks_transition_matrix():
    # uncorrected noisy one-hots: row-normalized confusion approximates Q
    rng = stream(15, "confq")
    tm = build_symmetric_q(4, 0.4)
    true = rng.integers(0, 4, size=60000)
    noisy = inject_noise(true, tm, seed=8)
    counts = confusion_of_corrections(one_hot(noisy, 4), true)
    rates = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(rates - tm.q)) < 0.01


def test_metrics_ledger_appends_with_single_header(tmp_path):
    path = tmp_path / "metrics.csv"
    append_metrics_ledger(path, [(0, "test_acc", 0.912345678)])
    assert path.read_text() == "epoch,metric_name,value\n0,test_acc,0.912346\n"
    # a second call replaces the file
    append_metrics_ledger(path, [(1, "test_acc", 0.5), (1, "m1", 2)])
    lines = path.read_text().splitlines()
    assert lines == ["epoch,metric_name,value", "1,test_acc,0.5", "1,m1,2"]


def test_write_confusion_csv(tmp_path):
    path = tmp_path / "confusion.csv"
    write_confusion_csv(np.array([[5, 1], [0, 4]]), path)
    assert path.read_text() == "5,1\n0,4\n"
    with pytest.raises(DimensionError):
        write_confusion_csv(np.zeros((2, 3)), path)


def test_stats_dataclass_fields():
    stats = MemorizationStats(1.0, 0.0, 0.0, 0.0, 0.0)
    assert stats.clean_correct_frac == 1.0
