"""Small dense feed-forward classifier with manual backpropagation.

Everything is float64 numpy. Models here are a few thousand parameters at
most, so the code favors clarity and exactness over throughput, with two
exceptions where the per-call overhead outweighs the arithmetic:

- ``predict_proba`` runs over the full training set every epoch (the
  prediction snapshot): it writes each layer into a workspace buffer kept
  per (layer, width), as many rows as the largest batch seen, and reused
  across calls, instead of allocating and freeing megabyte temporaries
  each time.
- Training runs thousands of tiny steps. ``make_optimizer`` copies the
  model's weights and biases into one flat float64 vector that the
  optimizer owns, and binds the model to it: ``model.weights[l]`` and
  ``model.biases[l]`` become reshaped views of that vector. ``sgd_step``
  then updates every parameter with a handful of whole-vector operations,
  and refuses to run if a model array was rebound after binding. The
  backward pass applies biases, activations and the softmax in place, and
  writes every layer's gradient into views of one flat vector laid out as
  the optimizer's, which ``sgd_step`` reads as it is.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, TrainingDivergenceError

LOG_EPS = 1e-12

ACTIVATIONS = ("tanh", "relu")


@dataclass
class MlpModel:
    """Fully connected net: linear layers with tanh or relu between them.

    weights[l] has shape (layer_dims[l], layer_dims[l+1]); biases[l] has
    shape (layer_dims[l+1],). The last layer is linear (logits). Once
    ``make_optimizer`` has run, the arrays are views of the optimizer's
    parameter vector.
    """

    layer_dims: list
    weights: list
    biases: list
    activation: str = "tanh"

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class Gradients:
    """Per-layer gradients, shaped exactly like the model parameters.

    ``weights[l]`` and ``biases[l]`` are views of ``flat``, one float64
    vector laid out as ``OptimizerState.params``: the weights of each layer
    in order, then the biases. Built without ``flat``, the gradients are
    copied into a new one.
    """

    weights: list
    biases: list
    flat: np.ndarray | None = None

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.concatenate(self.weights + self.biases, axis=None, dtype=np.float64)
            self.weights, self.biases = _views_like(self.flat, self.weights, self.biases)


def _views_like(vector: np.ndarray, weights: list, biases: list):
    """Views of consecutive slices of ``vector``, shaped like ``weights``
    and then ``biases``; returns (weight views, bias views)."""
    views = []
    offset = 0
    for a in weights + biases:
        views.append(vector[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    return views[:len(weights)], views[len(weights):]


def init_mlp(layer_dims, rng: "np.random.Generator", activation: str = "tanh") -> MlpModel:
    """Build a model with per-layer uniform init in +-sqrt(6/(fan_in+fan_out))."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ParameterError(f"layer_dims must list at least input and output sizes, got {layer_dims}")
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, activation=activation)


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-D batch, got shape {x.shape}")
    return x


def _activate_inplace(model: MlpModel, z: np.ndarray) -> None:
    if model.activation == "tanh":
        np.tanh(z, out=z)
    else:
        np.maximum(z, 0.0, out=z)


def _forward_cached(model: MlpModel, x: np.ndarray):
    """Forward pass keeping each layer's output for backprop: ``acts[0]``
    is the batch, ``acts[-1]`` the logits. Every array after the first is
    fresh, so the caller may overwrite it."""
    if x.shape[1] != model.input_dim:
        raise DimensionError(f"batch has {x.shape[1]} columns, model expects {model.input_dim}")
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if l < last:
            _activate_inplace(model, h)
        acts.append(h)
    return acts


def forward(model: MlpModel, batch) -> np.ndarray:
    """Logits for a batch, shape (batch, num_classes)."""
    return _forward_cached(model, _as_batch(batch))[-1]


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# (layer, width) -> reused forward buffer of predict_proba, as many rows as
# the largest batch seen
_WORKSPACE = {}


def _workspace(layer: int, rows: int, width: int) -> np.ndarray:
    # the leading rows of a C-contiguous buffer are C-contiguous, so a
    # matmul into them is the same BLAS call as into a buffer of that size
    buf = _WORKSPACE.get((layer, width))
    if buf is None or buf.shape[0] < rows:
        buf = _WORKSPACE[(layer, width)] = np.empty((rows, width))
    return buf[:rows]


def predict_proba(model: MlpModel, batch) -> np.ndarray:
    """Class probabilities for a batch, bit-identical to
    ``softmax(forward(model, batch))``.

    The per-layer activations go to the leading rows of buffers reused
    across calls with the same layer widths, so the full-set snapshot and
    the test eval every epoch allocate only their results.
    """
    x = _as_batch(batch)
    if x.shape[1] != model.input_dim:
        raise DimensionError(f"batch has {x.shape[1]} columns, model expects {model.input_dim}")
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = _workspace(l, x.shape[0], w.shape[1])
        np.matmul(h, w, out=z)
        z += b
        if l < last:
            _activate_inplace(model, z)
        h = z
    # softmax, as in ``softmax``: the shift and exp in place, the division
    # into a new array the caller may keep
    h -= h.max(axis=-1, keepdims=True)
    np.exp(h, out=h)
    return h / h.sum(axis=-1, keepdims=True)


def soft_ce_loss(targets, probs):
    """Cross entropy of soft targets against predicted probabilities.

    Returns (per_sample_losses, mean). Probabilities are clamped below at
    1e-12 before the log, so degenerate inputs stay finite.
    """
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if t.shape != p.shape:
        raise DimensionError(f"targets shape {t.shape} != probs shape {p.shape}")
    losses = -(t * np.log(np.maximum(p, LOG_EPS))).sum(axis=-1)
    return losses, float(losses.mean())


def backward(model: MlpModel, batch, targets):
    """Gradients of the mean soft cross entropy over the batch.

    Returns (Gradients, per_sample_losses). The logit gradient is
    (sum(t) * p - t) / batch_size, which reduces to (p - t) / batch_size
    for targets on the simplex but stays the true gradient for
    sub-stochastic targets as well.
    """
    x = _as_batch(batch)
    t = np.asarray(targets, dtype=np.float64)
    acts = _forward_cached(model, x)
    # softmax, clamped log and logit gradient in place over the logits,
    # each the same elementwise operation as ``softmax`` and ``soft_ce_loss``;
    # the reductions call the ufuncs that ``ndarray.max`` and ``sum`` wrap
    p = acts[-1]
    if t.shape != p.shape:
        raise DimensionError(f"targets shape {t.shape} != logits shape {p.shape}")
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    log_p = np.maximum(p, LOG_EPS)
    np.log(log_p, out=log_p)
    log_p *= t
    losses = np.add.reduce(log_p, axis=-1)
    np.negative(losses, out=losses)
    delta = p
    delta *= np.add.reduce(t, axis=1, keepdims=True)
    delta -= t
    delta /= x.shape[0]
    flat = np.empty(model.num_parameters)
    grads_w, grads_b = _views_like(flat, model.weights, model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            # acts[l] is this layer's input, not needed past this point
            upstream = delta @ model.weights[l].T
            if model.activation == "tanh":
                deriv = np.square(acts[l], out=acts[l])
                np.subtract(1.0, deriv, out=deriv)
                upstream *= deriv
            else:
                # relu(z) > 0 exactly where z > 0
                upstream *= acts[l] > 0
            delta = upstream
    return Gradients(weights=grads_w, biases=grads_b, flat=flat), losses


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ParameterError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass
class OptimizerState:
    """SGD with momentum, weight decay, and a step learning-rate schedule.

    lr(epoch) = base_lr / decay_factor ** (number of milestones <= epoch).

    ``params`` holds every model parameter in one vector, the weights of
    each layer in order and then the biases; the model's arrays are views
    of it (``bound``, in the same order). ``velocity`` is the momentum
    buffer over the same vector and ``scratch`` a work vector of its size.
    """

    momentum: float
    weight_decay: float
    base_lr: float
    milestones: list
    decay_factor: float
    params: np.ndarray
    velocity: np.ndarray
    scratch: np.ndarray
    bound: tuple

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ParameterError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.base_lr <= 0.0 or self.decay_factor <= 0.0:
            raise ParameterError("base_lr and decay_factor must be positive")


def make_optimizer(model: MlpModel, base_lr: float = 0.02, momentum: float = 0.9,
                   weight_decay: float = 0.001, milestones=(), decay_factor: float = 10.0) -> OptimizerState:
    """Build the optimizer and bind the model to its parameter vector.

    The model's current weights and biases are copied into ``params`` and
    ``model.weights[l]`` / ``model.biases[l]`` are replaced by views of it,
    so from here on the optimizer owns the parameters. Rebinding a model
    array afterwards detaches it; ``sgd_step`` then raises.
    """
    params = np.concatenate(model.weights + model.biases, axis=None, dtype=np.float64)
    model.weights[:], model.biases[:] = _views_like(params, model.weights, model.biases)
    return OptimizerState(
        momentum=momentum,
        weight_decay=weight_decay,
        base_lr=base_lr,
        milestones=sorted(int(m) for m in milestones),
        decay_factor=decay_factor,
        params=params,
        velocity=np.zeros_like(params),
        scratch=np.empty_like(params),
        bound=tuple(model.weights + model.biases),
    )


def lr_at(state: OptimizerState, epoch: int) -> float:
    drops = bisect.bisect_right(state.milestones, epoch)
    return state.base_lr / state.decay_factor ** drops


def sgd_step(model: MlpModel, grads: Gradients, state: OptimizerState, epoch: int) -> None:
    """One in-place update: buffer <- mom * buffer + (grad + wd * param),
    param <- param - lr(epoch) * buffer, over the whole parameter vector.

    Raises ``TrainingDivergenceError`` on a nonfinite gradient, before
    anything is updated, and ``ParameterError`` if the model's arrays are no
    longer the views ``make_optimizer`` bound.
    """
    arrays = model.weights + model.biases
    if len(arrays) != len(state.bound) or any(a is not b for a, b in zip(arrays, state.bound)):
        raise ParameterError("model parameters were rebound after make_optimizer; "
                             "the optimizer would update a stale copy")
    g = grads.flat
    if g.shape != state.params.shape:
        raise DimensionError(f"gradients hold {g.size} values, the model {state.params.size}")
    if not np.isfinite(g).all():
        raise TrainingDivergenceError(f"nonfinite gradient at epoch {epoch}")
    lr = lr_at(state, epoch)
    w, v, tmp = state.params, state.velocity, state.scratch
    # the per-array expression order of the plain update, so the bits match
    v *= state.momentum
    np.multiply(state.weight_decay, w, out=tmp)
    np.add(g, tmp, out=tmp)
    v += tmp
    np.multiply(lr, v, out=tmp)
    w -= tmp
