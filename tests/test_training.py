from dataclasses import replace

import numpy as np
import pytest

from selc_lab.data import BlobSpec, TrainView, generate_blobs
from selc_lab.errors import DimensionError, ParameterError, TrainingDivergenceError
from selc_lab.mlp import init_mlp, make_optimizer, one_hot, predict_proba
from selc_lab.rng import stream
from selc_lab.targets import MODE_ENSEMBLE_ONLY
from selc_lab.training import (
    SelcRunConfig,
    default_activation_epoch,
    mixup_batch,
    run_selc_plus,
    run_training,
)


def fresh_model(view, hidden=(32,), seed=7, activation="tanh"):
    dims = [view.features.shape[1], *hidden, view.num_classes]
    return init_mlp(dims, stream(seed, "init"), activation=activation)


def clean_view(n=240, dim=6, c=3, seed=2):
    feats, labels = generate_blobs(BlobSpec(n=n, dim=dim, num_classes=c, cluster_std=0.3, seed=seed))
    return TrainView(features=feats, noisy_labels=labels, num_classes=c), labels


def weights_equal(a, b):
    return all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)) and \
        all(np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases))


def test_config_validation():
    with pytest.raises(ParameterError):
        SelcRunConfig(total_epochs=0)
    with pytest.raises(ParameterError):
        SelcRunConfig(total_epochs=10, activation_epoch=-1)
    with pytest.raises(ParameterError):
        SelcRunConfig(total_epochs=10, alpha=1.0)
    with pytest.raises(ParameterError):
        SelcRunConfig(total_epochs=10, bootstrap_beta=1.5)
    with pytest.raises(ParameterError):
        SelcRunConfig(total_epochs=10, mixup_beta_param=0.0)


def test_default_activation_epoch():
    assert default_activation_epoch(60) == 50
    assert default_activation_epoch(11) == 1
    assert default_activation_epoch(5) == 1
    assert default_activation_epoch(1) == 1


def test_ce_learns_clean_blobs():
    view, _ = clean_view()
    model = fresh_model(view)
    opt = make_optimizer(model, base_lr=0.1, weight_decay=0.0)
    cfg = SelcRunConfig(total_epochs=25, activation_epoch=25)
    events = []
    model, state, epochs = run_training(view, model, opt, cfg, "ce", 32, seed=3,
                                        epoch_hook=events.append)
    assert state is None
    assert epochs == range(25)
    assert len(events) == 25
    assert events[-1].train_acc >= 0.99
    # loss should come down substantially from the first epoch
    assert events[-1].train_loss < 0.5 * events[0].train_loss


def test_run_is_deterministic_per_seed():
    view, _ = clean_view(n=120)
    out = []
    for _ in range(2):
        model = fresh_model(view)
        opt = make_optimizer(model, base_lr=0.05)
        cfg = SelcRunConfig(total_epochs=4, activation_epoch=1)
        losses = []
        model, _, _ = run_training(view, model, opt, cfg, "selc", 32, seed=9,
                                   epoch_hook=lambda event: losses.append(event.train_loss))
        out.append((model, losses))
    assert weights_equal(out[0][0], out[1][0])
    assert out[0][1] == out[1][1]

    model = fresh_model(view)
    opt = make_optimizer(model, base_lr=0.05)
    cfg = SelcRunConfig(total_epochs=4, activation_epoch=1)
    model, _, _ = run_training(view, model, opt, cfg, "selc", 32, seed=10)
    assert not weights_equal(out[0][0], model)


def test_never_activating_matches_plain_ce_bitwise():
    view, _ = clean_view(n=120)
    runs = {}
    for method, activation in (("ce", 0), ("selc", 6)):
        model = fresh_model(view)
        opt = make_optimizer(model, base_lr=0.05)
        cfg = SelcRunConfig(total_epochs=6, activation_epoch=activation)
        seen = []
        model, state, _ = run_training(
            view, model, opt, cfg, method, 32, seed=4,
            epoch_hook=lambda event: seen.append((event.train_loss, event.train_acc)))
        runs[method] = (model, state, seen)
    assert weights_equal(runs["ce"][0], runs["selc"][0])
    assert runs["ce"][2] == runs["selc"][2]
    # the state exists but was never updated
    assert runs["selc"][1].epoch_k == 0


def test_bootstrap_beta_one_matches_ce_bitwise():
    view, _ = clean_view(n=120)
    out = {}
    for method in ("ce", "bootstrap"):
        model = fresh_model(view)
        opt = make_optimizer(model, base_lr=0.05)
        cfg = SelcRunConfig(total_epochs=3, bootstrap_beta=1.0)
        model, _, _ = run_training(view, model, opt, cfg, method, 32, seed=4)
        out[method] = model
    assert weights_equal(out["ce"], out["bootstrap"])


def test_correcting_epoch_count_and_mode(small_noisy_view):
    view, _ = small_noisy_view
    model = fresh_model(view)
    opt = make_optimizer(model, base_lr=0.05)
    cfg = SelcRunConfig(total_epochs=8, activation_epoch=5)
    _, state, _ = run_training(view, model, opt, cfg, "selc", 64, seed=1)
    assert state.epoch_k == 3
    # supervision weight on the original labels is alpha**k exactly
    noisy = one_hot(view.noisy_labels, view.num_classes)
    floor = (0.9 ** 3) * noisy
    assert np.all(state.targets + 1e-12 >= floor)


def test_resumed_run_matches_one_run_bitwise(small_noisy_view):
    """A run stopped after epoch 2 and resumed at epoch 3, with the same
    model and optimizer and correction active from there, trains what one
    run activating at epoch 3 trains, across a learning-rate milestone."""
    view, _ = small_noisy_view
    runs = []
    for stop in (None, 2):
        model = fresh_model(view)
        opt = make_optimizer(model, base_lr=0.05, milestones=[5])
        cfg = SelcRunConfig(total_epochs=7, activation_epoch=3)
        seen = []

        def hook(event):
            seen.append((event.epoch, event.lr, event.train_loss, event.train_acc))
            return event.epoch == stop

        trained = range(0)
        if stop is not None:
            _, _, trained = run_training(view, model, opt, replace(cfg, activation_epoch=7),
                                         "selc", 64, seed=1, epoch_hook=hook)
        _, state, _ = run_training(view, model, opt, cfg, "selc", 64, seed=1,
                                   epoch_hook=hook, first_epoch=len(trained))
        runs.append((model, state, seen))
    assert [epoch for epoch, *_ in runs[1][2]] == list(range(7))
    assert weights_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1].targets, runs[1][1].targets)
    assert runs[0][1].epoch_k == runs[1][1].epoch_k == 4
    assert runs[0][2] == runs[1][2]


def test_resuming_past_the_last_epoch_trains_nothing(small_noisy_view):
    view, _ = small_noisy_view
    model = fresh_model(view)
    before = [w.copy() for w in model.weights]
    opt = make_optimizer(model, base_lr=0.05)
    cfg = SelcRunConfig(total_epochs=3, activation_epoch=1)
    _, state, epochs = run_training(view, model, opt, cfg, "selc", 64, seed=1, first_epoch=3)
    assert epochs == range(3, 3)
    assert state.epoch_k == 0
    assert all(np.array_equal(a, b) for a, b in zip(before, model.weights))


def test_option1_targets_stay_substochastic(small_noisy_view):
    view, _ = small_noisy_view
    model = fresh_model(view)
    opt = make_optimizer(model, base_lr=0.05)
    cfg = SelcRunConfig(total_epochs=6, activation_epoch=2)
    _, state, _ = run_training(view, model, opt, cfg, "option1", 64, seed=1)
    assert state.mode == MODE_ENSEMBLE_ONLY
    assert state.epoch_k == 4
    mass = 1.0 - 0.9 ** 4
    assert np.allclose(state.targets.sum(axis=1), mass, atol=1e-9)


def test_correction_recovers_true_labels(small_noisy_view):
    view, true_labels = small_noisy_view
    model = fresh_model(view, hidden=(32,))
    opt = make_optimizer(model, base_lr=0.1, weight_decay=0.0)
    cfg = SelcRunConfig(total_epochs=30, activation_epoch=10, alpha=0.9)
    _, state, _ = run_training(view, model, opt, cfg, "selc", 32, seed=6)
    corrected = state.targets.argmax(axis=1)
    noisy_agree = float(np.mean(view.noisy_labels == true_labels))
    corrected_agree = float(np.mean(corrected == true_labels))
    assert corrected_agree > noisy_agree + 0.1


def test_epoch_hook_sees_events_and_can_stop():
    view, _ = clean_view(n=90)
    seen = []

    def hook(event):
        seen.append((event.epoch, event.lr))
        assert event.probs.shape == (len(view.features), view.num_classes)
        assert event.targets is None
        return event.epoch == 2

    model = fresh_model(view)
    opt = make_optimizer(model, base_lr=0.05, milestones=[2], decay_factor=10.0)
    cfg = SelcRunConfig(total_epochs=50, activation_epoch=50)
    _, _, epochs = run_training(view, model, opt, cfg, "ce", 32, seed=2, epoch_hook=hook)
    assert [e for e, _ in seen] == [0, 1, 2]
    assert epochs == range(3)
    # lr schedule is visible through the hook
    assert seen[0][1] == pytest.approx(0.05)
    assert seen[2][1] == pytest.approx(0.005)


def test_method_and_batch_validation(small_noisy_view):
    view, _ = small_noisy_view
    model = fresh_model(view)
    opt = make_optimizer(model)
    cfg = SelcRunConfig(total_epochs=1)
    with pytest.raises(ParameterError):
        run_training(view, model, opt, cfg, "fancy", 32, seed=0)
    with pytest.raises(ParameterError):
        run_training(view, model, opt, cfg, "ce", 0, seed=0)


def test_divergence_is_reported(small_noisy_view):
    view, _ = small_noisy_view
    model = fresh_model(view, activation="relu")
    opt = make_optimizer(model, base_lr=1e9, weight_decay=0.0)
    cfg = SelcRunConfig(total_epochs=10)
    with pytest.raises(TrainingDivergenceError):
        run_training(view, model, opt, cfg, "ce", 32, seed=0)


def test_train_view_carries_no_true_labels(small_noisy_view):
    view, _ = small_noisy_view
    assert not hasattr(view, "true_labels")


def test_mixup_batch_examples():
    x1 = np.array([[1.0, 0.0], [0.0, 2.0]])
    x2 = np.array([[3.0, 4.0], [1.0, 1.0]])
    t1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    t2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    mx, mt = mixup_batch(x1, t1, x2, t2, 1.0)
    assert np.array_equal(mx, x1) and np.array_equal(mt, t1)
    mx, mt = mixup_batch(x1, t1, x2, t2, 0.5)
    assert np.allclose(mx, [[2.0, 2.0], [0.5, 1.5]])
    assert np.allclose(mt, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ParameterError):
        mixup_batch(x1, t1, x2, t2, 1.2)


def test_mixup_targets_stay_on_simplex(rng):
    for _ in range(20):
        lam = float(rng.uniform())
        t1 = rng.dirichlet(np.ones(4), size=6)
        t2 = rng.dirichlet(np.ones(4), size=6)
        _, mt = mixup_batch(rng.standard_normal((6, 3)), t1, rng.standard_normal((6, 3)), t2, lam)
        assert np.allclose(mt.sum(axis=1), 1.0, atol=1e-12)
        assert mt.min() >= 0.0


def test_selc_plus_learns_clean_targets():
    view, labels = clean_view(n=240)
    targets = one_hot(labels, view.num_classes)

    plus = fresh_model(view, seed=21)
    opt = make_optimizer(plus, base_lr=0.1, weight_decay=0.0)
    cfg = SelcRunConfig(total_epochs=30)
    plus, epochs = run_selc_plus(view.features, targets, plus, opt, cfg, 32, seed=8)
    assert epochs == range(30)
    acc = float(np.mean(predict_proba(plus, view.features).argmax(axis=1) == labels))

    base = fresh_model(view, seed=21)
    opt = make_optimizer(base, base_lr=0.1, weight_decay=0.0)
    base, _, _ = run_training(view, base, opt, cfg, "ce", 32, seed=8)
    base_acc = float(np.mean(predict_proba(base, view.features).argmax(axis=1) == labels))
    # mixup jitters the fit but should land within a point of plain CE here
    assert acc >= base_acc - 0.01


def test_selc_plus_is_deterministic_and_label_free():
    view, labels = clean_view(n=120)
    targets = one_hot(labels, view.num_classes)
    models = []
    for _ in range(2):
        model = fresh_model(view, seed=3)
        opt = make_optimizer(model, base_lr=0.05)
        cfg = SelcRunConfig(total_epochs=4)
        model, _ = run_selc_plus(view.features, targets, model, opt, cfg, 32, seed=5)
        models.append(model)
    assert weights_equal(models[0], models[1])


def test_selc_plus_validation():
    view, labels = clean_view(n=60)
    targets = one_hot(labels, view.num_classes)
    model = fresh_model(view)
    opt = make_optimizer(model)
    with pytest.raises(DimensionError):
        run_selc_plus(view.features[:10], targets, model, opt, SelcRunConfig(total_epochs=1), 32, seed=0)
    with pytest.raises(ParameterError):
        run_selc_plus(view.features, targets, model, opt, SelcRunConfig(total_epochs=1), 0, seed=0)
