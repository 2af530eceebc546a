import math

import numpy as np
import pytest

from selc_lab.errors import MissingPredictionError, ParameterError
from selc_lab.mlp import one_hot, soft_ce_loss, softmax
from selc_lab.rng import stream
from selc_lab.targets import (
    MODE_ENSEMBLE_ONLY,
    MODE_SELC,
    EnsembleState,
    PredictionSnapshot,
    bootstrap_target,
    closed_form_target,
    ensemble_prediction,
    save_state,
    selc_loss,
    update_targets,
)


def random_probs(rng, n, c):
    return softmax(rng.standard_normal((n, c)))


def test_initial_state_selc_is_one_hot():
    labels = np.array([0, 2, 1])
    state = EnsembleState.initial(labels, 3, alpha=0.9, mode=MODE_SELC)
    assert np.array_equal(state.targets, one_hot(labels, 3))
    assert state.epoch_k == 0


def test_initial_state_ensemble_only_is_zero():
    state = EnsembleState.initial(np.array([0, 1]), 2, alpha=0.9, mode=MODE_ENSEMBLE_ONLY)
    assert np.all(state.targets == 0.0)


def test_update_single_step_arithmetic():
    state = EnsembleState.initial(np.array([0]), 2, alpha=0.9, mode=MODE_SELC)
    update_targets(state, PredictionSnapshot(np.array([[0.5, 0.5]])))
    assert np.allclose(state.targets, [[0.95, 0.05]], atol=1e-12)
    assert state.epoch_k == 1


def test_update_alpha_zero_full_replacement():
    state = EnsembleState.initial(np.array([0]), 2, alpha=0.0, mode=MODE_SELC)
    p = np.array([[0.3, 0.7]])
    update_targets(state, PredictionSnapshot(p))
    assert np.allclose(state.targets, p)


def test_constant_prediction_geometric_form():
    rng = stream(8, "geo")
    p = random_probs(rng, 4, 3)
    labels = np.array([0, 1, 2, 0])
    state = EnsembleState.initial(labels, 3, alpha=0.9, mode=MODE_SELC)
    for _ in range(12):
        update_targets(state, PredictionSnapshot(p))
    expected = 0.9 ** 12 * one_hot(labels, 3) + (1 - 0.9 ** 12) * p
    assert np.allclose(state.targets, expected, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 0.99])
def test_iterative_matches_closed_form(alpha):
    rng = stream(int(alpha * 100), "closed")
    for _ in range(5):
        c = int(rng.integers(2, 6))
        k = int(rng.integers(0, 200))
        labels = rng.integers(0, c, size=3)
        history = [random_probs(rng, 3, c) for _ in range(k)]
        state = EnsembleState.initial(labels, c, alpha=alpha, mode=MODE_SELC)
        for p in history:
            update_targets(state, PredictionSnapshot(p))
        onehot = one_hot(labels, c)
        for i in range(3):
            expected = closed_form_target(onehot[i], [p[i] for p in history], alpha)
            assert np.max(np.abs(state.targets[i] - expected)) < 1e-12


def test_simplex_preserved_across_updates():
    rng = stream(21, "simplex")
    state = EnsembleState.initial(rng.integers(0, 4, size=10), 4, alpha=0.85, mode=MODE_SELC)
    for _ in range(50):
        update_targets(state, PredictionSnapshot(random_probs(rng, 10, 4)))
        assert np.allclose(state.targets.sum(axis=1), 1.0, atol=1e-9)
        assert state.targets.min() >= 0.0


def test_supervision_weight_decays_as_alpha_power():
    # target minus ensemble part leaves exactly alpha^k on the noisy label
    rng = stream(33, "decay")
    onehot = np.array([0.0, 1.0, 0.0])
    history = [random_probs(rng, 1, 3)[0] for _ in range(22)]
    t = closed_form_target(onehot, history, 0.9)
    tail = ensemble_prediction(history, 0.9)
    assert np.allclose(t - tail, 0.9 ** 22 * onehot, atol=1e-12)
    assert 0.9 ** 22 == pytest.approx(0.0985, abs=5e-4)


def test_ensemble_prediction_base_and_single():
    assert np.array_equal(ensemble_prediction([], 0.9, num_classes=3), np.zeros(3))
    out = ensemble_prediction([np.array([0.2, 0.8])], 0.9)
    assert np.allclose(out, [0.02, 0.08], atol=1e-12)
    with pytest.raises(ParameterError):
        ensemble_prediction([], 0.9)


def test_ensemble_prediction_mass_identity():
    rng = stream(41, "mass")
    for k in (1, 3, 17, 60):
        history = [random_probs(rng, 1, 5)[0] for _ in range(k)]
        out = ensemble_prediction(history, 0.9)
        assert out.sum() == pytest.approx(1 - 0.9 ** k, abs=1e-10)


def test_snapshot_validation():
    with pytest.raises(ParameterError):
        PredictionSnapshot(np.array([[0.5, 0.6]]))


def test_update_rejects_mismatched_snapshot():
    state = EnsembleState.initial(np.array([0, 1]), 2, alpha=0.9, mode=MODE_SELC)
    with pytest.raises(MissingPredictionError):
        update_targets(state, PredictionSnapshot(np.array([[1.0, 0.0]])))


def test_selc_loss_reduces_to_ce_at_k0():
    rng = stream(5, "loss")
    labels = rng.integers(0, 4, size=8)
    state = EnsembleState.initial(labels, 4, alpha=0.9, mode=MODE_SELC)
    probs = random_probs(rng, 8, 4)
    per, mean = selc_loss(state, PredictionSnapshot(probs))
    ce, ce_mean = soft_ce_loss(one_hot(labels, 4), probs)
    assert np.allclose(per, ce, atol=1e-12)
    assert mean == pytest.approx(ce_mean)


def test_selc_loss_entropy_at_self_consistency():
    probs = np.array([[0.25, 0.25, 0.25, 0.25]])
    state = EnsembleState.initial(np.array([0]), 4, alpha=0.0, mode=MODE_SELC)
    update_targets(state, PredictionSnapshot(probs))
    per, _ = selc_loss(state, PredictionSnapshot(probs))
    assert per[0] == pytest.approx(math.log(4), abs=1e-12)


def test_selc_loss_matches_closed_form_oracle():
    rng = stream(6, "oracle")
    labels = rng.integers(0, 3, size=5)
    state = EnsembleState.initial(labels, 3, alpha=0.8, mode=MODE_SELC)
    history = [random_probs(rng, 5, 3) for _ in range(7)]
    for p in history:
        update_targets(state, PredictionSnapshot(p))
    probs = random_probs(rng, 5, 3)
    per, _ = selc_loss(state, PredictionSnapshot(probs))
    onehot = one_hot(labels, 3)
    for i in range(5):
        t = closed_form_target(onehot[i], [p[i] for p in history], 0.8)
        expected = -float(t @ np.log(np.maximum(probs[i], 1e-12)))
        assert per[i] == pytest.approx(expected, abs=1e-12)


def test_bootstrap_target():
    onehot = np.array([[1.0, 0.0]])
    p = np.array([[0.6, 0.4]])
    assert np.allclose(bootstrap_target(onehot, p, 1.0), onehot)
    assert np.allclose(bootstrap_target(onehot, p, 0.0), p)
    assert np.allclose(bootstrap_target(onehot, p, 0.8), [[0.92, 0.08]], atol=1e-12)
    with pytest.raises(ParameterError):
        bootstrap_target(onehot, p, 1.2)


def test_state_checkpoint_roundtrip(tmp_path):
    rng = stream(11, "ckpt")
    labels = rng.integers(0, 3, size=6)
    state = EnsembleState.initial(labels, 3, alpha=0.9, mode=MODE_SELC)
    for _ in range(4):
        update_targets(state, PredictionSnapshot(random_probs(rng, 6, 3)))
    path = tmp_path / "state.txt"
    save_state(state, path)
    with open(path) as fh:
        assert fh.readline().split() == [repr(state.alpha), str(state.epoch_k), state.mode]
    rows = np.loadtxt(path, skiprows=1)
    assert np.array_equal(rows[:, 0], np.arange(6))
    assert rows[:, 1:].tobytes() == state.targets.tobytes()

