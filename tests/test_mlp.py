import copy
import math

import numpy as np
import pytest

import selc_lab.mlp as mlp
from selc_lab.errors import DimensionError, ParameterError, TrainingDivergenceError
from selc_lab.mlp import (
    MlpModel,
    backward,
    forward,
    init_mlp,
    lr_at,
    make_optimizer,
    one_hot,
    predict_proba,
    sgd_step,
    soft_ce_loss,
    softmax,
)
from selc_lab.rng import stream


def zero_model(dims, activation="tanh"):
    weights = [np.zeros((dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(d) for d in dims[1:]]
    return MlpModel(layer_dims=list(dims), weights=weights, biases=biases,
                    activation=activation)


def test_forward_zero_model_gives_zero_logits():
    model = zero_model([3, 4, 2])
    logits = forward(model, np.ones((5, 3)))
    assert logits.shape == (5, 2)
    assert np.all(logits == 0.0)


def test_forward_identity_layer():
    model = zero_model([3, 3])
    model.weights[0] = np.eye(3)
    logits = forward(model, np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(logits, [[1.0, 2.0, 3.0]])


def test_forward_matches_hand_computed_product():
    model = init_mlp([3, 4, 2], stream(9, "init"), activation="tanh")
    x = stream(9, "input").standard_normal((6, 3))
    # independent recomputation with raw numpy ops
    hidden = np.tanh(x @ model.weights[0] + model.biases[0])
    expected = hidden @ model.weights[1] + model.biases[1]
    assert np.allclose(forward(model, x), expected, atol=1e-12)


def test_forward_shape_errors():
    model = zero_model([3, 2])
    with pytest.raises(DimensionError):
        forward(model, np.ones((4, 5)))
    with pytest.raises(DimensionError):
        forward(model, np.ones(3))


def test_softmax_symmetry_and_stability():
    assert np.allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])
    out = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 0.999999
    exact = softmax(np.log(np.array([[1.0, 2.0, 3.0]])))
    assert np.allclose(exact, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


def test_softmax_rows_sum_to_one_large_entries():
    rng = stream(3, "softmax")
    for _ in range(50):
        logits = rng.standard_normal((8, 5)) * 1e3
        assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-9)


def test_soft_ce_loss_values():
    one = np.array([[0.0, 1.0]])
    per, mean = soft_ce_loss(one, np.array([[0.0, 1.0]]))
    assert per[0] == pytest.approx(0.0, abs=1e-9)
    per, _ = soft_ce_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
    assert per[0] == pytest.approx(math.log(2), abs=1e-12)
    t = one_hot(np.array([3]), 10)
    per, _ = soft_ce_loss(t, np.full((1, 10), 0.1))
    assert per[0] == pytest.approx(math.log(10), abs=1e-12)


def test_soft_ce_loss_one_hot_equals_neg_log_prob():
    rng = stream(4, "celoss")
    probs = softmax(rng.standard_normal((20, 6)))
    labels = rng.integers(0, 6, size=20)
    per, _ = soft_ce_loss(one_hot(labels, 6), probs)
    assert np.allclose(per, -np.log(probs[np.arange(20), labels]), atol=1e-12)


def test_soft_ce_loss_shape_error():
    with pytest.raises(DimensionError):
        soft_ce_loss(np.ones((2, 3)), np.ones((2, 4)))


def test_backward_zero_gradient_at_match():
    model = zero_model([3, 2])
    x = np.ones((4, 3))
    probs = predict_proba(model, x)
    grads, _ = backward(model, x, probs)
    for g in grads.weights + grads.biases:
        assert np.allclose(g, 0.0, atol=1e-12)


def test_backward_single_linear_layer_hand_oracle():
    model = zero_model([3, 2])
    model.weights[0] = stream(5, "w").standard_normal((3, 2))
    x = np.array([[0.5, -1.0, 2.0]])
    t = np.array([[1.0, 0.0]])
    p = predict_proba(model, x)
    grads, _ = backward(model, x, t)
    assert np.allclose(grads.weights[0], x.T @ (p - t), atol=1e-12)
    assert np.allclose(grads.biases[0], (p - t)[0], atol=1e-12)


def _finite_difference_check(model, x, t, h=1e-5, tol=1e-4):
    grads, _ = backward(model, x, t)
    params = list(model.weights) + list(model.biases)
    analytic = list(grads.weights) + list(grads.biases)
    for param, grad in zip(params, analytic):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            _, up = soft_ce_loss(t, predict_proba(model, x))
            flat[j] = orig - h
            _, down = soft_ce_loss(t, predict_proba(model, x))
            flat[j] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[j]), 1e-8)
            assert abs(fd - gflat[j]) / denom < tol


@pytest.mark.parametrize("dims,activation", [
    ([4, 6, 3], "tanh"),
    ([3, 5, 5, 2], "tanh"),
    ([4, 8, 3], "relu"),
])
def test_backward_matches_finite_differences(dims, activation):
    rng = stream(sum(dims), "fdcheck")
    model = init_mlp(dims, rng, activation=activation)
    x = rng.standard_normal((5, dims[0]))
    raw = rng.random((5, dims[-1]))
    t = raw / raw.sum(axis=1, keepdims=True)
    _finite_difference_check(model, x, t)


def test_backward_handles_sub_stochastic_targets():
    # targets with mass < 1 must still have exact gradients
    rng = stream(17, "fdsub")
    model = init_mlp([3, 6, 3], rng, activation="tanh")
    x = rng.standard_normal((4, 3))
    raw = rng.random((4, 3))
    t = 0.4 * raw / raw.sum(axis=1, keepdims=True)
    _finite_difference_check(model, x, t)


def test_init_mlp_glorot_bounds_and_zero_biases():
    model = init_mlp([10, 20, 5], stream(2, "init"))
    for w, (fan_in, fan_out) in zip(model.weights, [(10, 20), (20, 5)]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0.1 * bound
    for b in model.biases:
        assert np.all(b == 0.0)
    assert model.num_parameters == 10 * 20 + 20 + 20 * 5 + 5


def test_init_mlp_rejects_bad_dims_and_activation():
    with pytest.raises(ParameterError):
        init_mlp([4], stream(0, "init"))
    with pytest.raises(ParameterError):
        init_mlp([4, 2], stream(0, "init"), activation="sigmoid")


def test_lr_schedule_milestone_drop_values():
    model = init_mlp([2, 2], stream(0, "init"))
    opt = make_optimizer(model, base_lr=0.02, milestones=(40, 80), decay_factor=10.0)
    assert lr_at(opt, 39) == pytest.approx(0.02)
    assert lr_at(opt, 40) == pytest.approx(0.002)
    assert lr_at(opt, 80) == pytest.approx(0.0002)


def test_lr_schedule_positive_nonincreasing():
    model = init_mlp([2, 2], stream(0, "init"))
    opt = make_optimizer(model, base_lr=0.05, milestones=(3, 7, 9), decay_factor=5.0)
    lrs = [lr_at(opt, e) for e in range(15)]
    assert all(lr > 0 for lr in lrs)
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_sgd_vanilla_step():
    model = zero_model([2, 2])
    model.weights[0] = np.ones((2, 2))
    opt = make_optimizer(model, base_lr=1.0, momentum=0.0, weight_decay=0.0)
    from selc_lab.mlp import Gradients

    g = Gradients(weights=[np.full((2, 2), 0.25)], biases=[np.zeros(2)])
    sgd_step(model, g, opt, epoch=0)
    assert np.allclose(model.weights[0], 0.75)


def test_sgd_momentum_two_step_displacement():
    # v1 = g, v2 = 0.9 g + g = 1.9 g, total displacement 2.9 g
    model = zero_model([2, 2])
    start = model.weights[0].copy()
    opt = make_optimizer(model, base_lr=1.0, momentum=0.9, weight_decay=0.0)
    from selc_lab.mlp import Gradients

    g = Gradients(weights=[np.full((2, 2), 0.1)], biases=[np.zeros(2)])
    sgd_step(model, g, opt, epoch=0)
    sgd_step(model, g, opt, epoch=0)
    assert np.allclose(model.weights[0], start - 2.9 * 0.1, atol=1e-12)


def test_sgd_nonfinite_gradient_raises():
    model = zero_model([2, 2])
    opt = make_optimizer(model)
    from selc_lab.mlp import Gradients

    g = Gradients(weights=[np.array([[np.nan, 0.0], [0.0, 0.0]])], biases=[np.zeros(2)])
    with pytest.raises(TrainingDivergenceError):
        sgd_step(model, g, opt, epoch=0)


def test_optimizer_state_validation():
    model = zero_model([2, 2])
    with pytest.raises(ParameterError):
        make_optimizer(model, momentum=1.0)
    with pytest.raises(ParameterError):
        make_optimizer(model, base_lr=0.0)
    with pytest.raises(ParameterError):
        make_optimizer(model, weight_decay=-0.1)


def test_one_hot():
    out = one_hot(np.array([0, 2]), 3)
    assert np.array_equal(out, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ParameterError):
        one_hot(np.array([3]), 3)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_predict_proba_is_bit_identical_to_softmax_of_forward(activation):
    model = init_mlp([16, 64, 64, 4], stream(8, "ws", activation), activation=activation)
    results = []
    # each shape twice, the second call on the reused workspace
    for rows in (4000, 37, 4000, 37):
        x = stream(rows, "ws-x").standard_normal((rows, 16))
        probs = predict_proba(model, x)
        assert np.array_equal(probs, softmax(forward(model, x)))
        results.append(probs)
    # a returned array is the caller's, not a workspace the next call overwrites
    assert np.array_equal(results[0], results[2])
    assert results[0] is not results[2]


def test_predict_proba_keeps_one_buffer_per_layer_width(monkeypatch):
    monkeypatch.setattr(mlp, "_WORKSPACE", {})
    model = init_mlp([16, 64, 64, 4], stream(10, "ws"), activation="relu")
    # grown from 37 rows to 4000, then its leading 1000 rows reused
    for rows in (37, 4000, 1000):
        x = stream(rows, "ws-rows").standard_normal((rows, 16))
        assert predict_proba(model, x).tobytes() == softmax(forward(model, x)).tobytes()
    assert {key: buf.shape for key, buf in mlp._WORKSPACE.items()} == {
        (0, 64): (4000, 64), (1, 64): (4000, 64), (2, 4): (4000, 4)}


def test_predict_proba_rejects_wrong_width():
    model = init_mlp([3, 4, 2], stream(9, "ws"))
    with pytest.raises(DimensionError):
        predict_proba(model, np.zeros((5, 4)))


def _reference_backward(model, x, t):
    """The backward pass as first written: pre-activations kept, a fresh
    array for every intermediate."""
    acts, pre = [x], []
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pre.append(z)
        if l == last:
            h = z
        else:
            h = np.tanh(z) if model.activation == "tanh" else np.maximum(z, 0.0)
        acts.append(h)
    p = softmax(acts[-1])
    losses = -(t * np.log(np.maximum(p, 1e-12))).sum(axis=-1)
    delta = (t.sum(axis=1, keepdims=True) * p - t) / x.shape[0]
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            upstream = delta @ model.weights[l].T
            if model.activation == "tanh":
                delta = upstream * (1.0 - acts[l] ** 2)
            else:
                delta = upstream * (pre[l - 1] > 0)
    return grads_w, grads_b, losses


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("rows,mass", [(32, 1.0), (7, 0.4), (1, 1.0)])
def test_backward_bit_identical_to_reference(activation, rows, mass):
    rng = stream(rows, "bw-ref", activation)
    model = init_mlp([16, 64, 64, 4], rng, activation=activation)
    make_optimizer(model)  # gradients through the bound views, as in training
    x = rng.standard_normal((rows, 16))
    t = mass * rng.dirichlet(np.ones(4), size=rows)
    x_before, t_before = x.copy(), t.copy()
    grads, losses = backward(model, x, t)
    ref_w, ref_b, ref_losses = _reference_backward(model, x, t)
    assert all(np.array_equal(a, b) for a, b in zip(grads.weights, ref_w))
    assert all(np.array_equal(a, b) for a, b in zip(grads.biases, ref_b))
    assert np.array_equal(losses, ref_losses)
    # the in-place passes leave the caller's batch and targets alone
    assert np.array_equal(x, x_before) and np.array_equal(t, t_before)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_sgd_steps_bit_identical_to_per_layer_reference(activation):
    rng = stream(50, "sgd-ref", activation)
    model = init_mlp([16, 64, 64, 4], rng, activation=activation)
    ref = copy.deepcopy(model)
    ref_vel = [np.zeros_like(a) for a in ref.weights + ref.biases]
    opt = make_optimizer(model, base_lr=0.05, momentum=0.9, weight_decay=1e-3,
                         milestones=(20, 40), decay_factor=10.0)
    for step in range(50):
        epoch = step  # crosses both milestones
        x = rng.standard_normal((32, 16))
        t = rng.dirichlet(np.ones(4), size=32)
        grads, _ = backward(model, x, t)
        sgd_step(model, grads, opt, epoch)
        ref_w, ref_b, _ = _reference_backward(ref, x, t)
        lr = lr_at(opt, epoch)
        for p, g, v in zip(ref.weights + ref.biases, ref_w + ref_b, ref_vel):
            v *= 0.9
            v += g + 1e-3 * p
            p -= lr * v
    for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(opt.velocity, np.concatenate(ref_vel, axis=None))


def test_make_optimizer_binds_model_to_one_vector():
    model = init_mlp([3, 5, 2], stream(1, "bind"))
    values = [a.copy() for a in model.weights + model.biases]
    opt = make_optimizer(model)
    assert opt.params.size == model.num_parameters
    # weights in layer order, then biases, with the values they had
    assert np.array_equal(opt.params, np.concatenate(values, axis=None))
    for a, v in zip(model.weights + model.biases, values):
        assert np.shares_memory(a, opt.params) and np.array_equal(a, v)
    opt.params[:] = 0.0
    assert all(np.all(a == 0.0) for a in model.weights + model.biases)


def test_nonfinite_bias_gradient_updates_nothing():
    rng = stream(3, "nan-step")
    model = init_mlp([4, 6, 3], rng, activation="relu")
    opt = make_optimizer(model, momentum=0.9, weight_decay=1e-3)
    x = rng.standard_normal((8, 4))
    t = rng.dirichlet(np.ones(3), size=8)
    for _ in range(3):
        grads, _ = backward(model, x, t)
        sgd_step(model, grads, opt, epoch=0)
    params, velocity = opt.params.copy(), opt.velocity.copy()
    assert np.any(velocity != 0.0)
    grads, _ = backward(model, x, t)
    grads.biases[-1][-1] = np.nan
    with pytest.raises(TrainingDivergenceError):
        sgd_step(model, grads, opt, epoch=0)
    assert np.array_equal(opt.params, params)
    assert np.array_equal(opt.velocity, velocity)


def test_sgd_step_refuses_a_rebound_model():
    rng = stream(4, "rebind")
    model = init_mlp([4, 6, 3], rng)
    opt = make_optimizer(model)
    grads, _ = backward(model, rng.standard_normal((5, 4)), np.full((5, 3), 1 / 3))
    model.weights[0] = model.weights[0].copy()
    with pytest.raises(ParameterError):
        sgd_step(model, grads, opt, epoch=0)
    # binding again adopts the current values
    opt = make_optimizer(model)
    sgd_step(model, grads, opt, epoch=0)
