"""Minimal deterministic feed-forward classifier engine.

Dense layers (``MLPModel``), exact analytic gradients (``backward_batch``)
and SGD with momentum (``train``). Every random draw comes from an ``rng``
stream, so a (seed, config, dataset) triple always reproduces the same
trained weights, bit for bit. Batches are row-major ``(n, dim)`` float64
arrays, weights ``(fan_in, fan_out)``, biases ``(fan_out,)`` and labels
int64; a stack of M same-shape models (``stack_models``) adds a leading
member axis to each. ``forward_batch`` runs training steps and
``forward_into`` evaluation, both through the one layer loop
``_layers_into``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .rng import STREAM_INIT, STREAM_SHUFFLE, stream_rng
from .tables import check_fields

# float64 elements of the widest layer's output in one evaluation block:
# 2 MB, one core's L2 on the Xeon this was measured on
BLOCK_ELEMENTS = 2 ** 18


class DimensionError(ValueError):
    """Array shapes do not chain or do not match the model."""


@dataclass
class Layer:
    """One dense layer, ``x @ weights + bias``, or a stack of M such layers
    with a leading member axis."""

    weights: np.ndarray  # (fan_in, fan_out), stacked (M, fan_in, fan_out)
    bias: np.ndarray     # (fan_out,), stacked (M, fan_out)

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if self.weights.ndim not in (2, 3):
            raise DimensionError("layer weights must be 2-D, or 3-D for a stack")
        if self.bias.shape != self.weights.shape[:-2] + self.weights.shape[-1:]:
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match weights "
                f"{self.weights.shape}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[-2]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[-1]


@dataclass
class MLPModel:
    """Ordered dense layers: relu after each but the last, raw logits."""

    layers: List[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise DimensionError(
                    f"layer dims do not chain: {prev.fan_out} -> {nxt.fan_in}")
            if prev.weights.shape[:-2] != nxt.weights.shape[:-2]:
                raise DimensionError("stacked layers disagree on the member count")

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def num_classes(self) -> int:
        return self.layers[-1].fan_out

    @property
    def stack_size(self) -> Optional[int]:
        """M for a stack of M models, None for a single model."""
        weights = self.layers[0].weights
        return weights.shape[0] if weights.ndim == 3 else None

    def member(self, j: int) -> "MLPModel":
        """Model j of a stack, as live views of the stacked parameters. The
        views skip ``Layer``'s checks, so a member that diverged comes back
        unchecked, as ``train`` returns a diverged single model."""
        layers = []
        for layer in self.layers:
            view = copy.copy(layer)
            view.weights, view.bias = layer.weights[j], layer.bias[j]
            layers.append(view)
        return MLPModel(layers)

    def parameter_count(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)


def stack_models(models: Sequence[MLPModel]) -> MLPModel:
    """One stack of same-shape models; member j holds a copy of ``models[j]``."""
    shapes = [l.weights.shape for l in models[0].layers]
    for m in models[1:]:
        if [l.weights.shape for l in m.layers] != shapes:
            raise DimensionError("stacked models must share layer shapes")
    return MLPModel([Layer(np.stack([l.weights for l in layers]),
                           np.stack([l.bias for l in layers]))
                     for layers in zip(*(m.layers for m in models))])


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyper-parameters; the learning rate at epoch t is
    ``learning_rate * lr_decay_factor ** (t // lr_decay_every)``. The default
    rate, fixed by a one-time calibration on the reference task, is the
    largest (with momentum 0.9) at which the squared-logit distillation
    objective trains stably from a fresh init."""

    learning_rate: float = 0.003
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 30
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 10
    seed: int = 0
    weight_init: str = "glorot_uniform"

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.weight_init != "glorot_uniform":
            raise ValueError(f"weight_init must be 'glorot_uniform', "
                             f"got {self.weight_init!r}")

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * self.lr_decay_factor ** (epoch // self.lr_decay_every)


@dataclass
class BatchCache:
    """A batch of rows and each layer's output, relu applied (no
    pre-activations: the backward masks on the relu output)."""

    x: np.ndarray
    activations: List[np.ndarray]

    @property
    def logits(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class TrainResult:
    """What ``train`` returns: the trained model or stack."""
    model: MLPModel


# Objective protocol: (batch_logits (B, K), batch_indices (B,)) -> (loss, dlogits).
# dlogits is the gradient of the scalar batch loss w.r.t. the logits, so any
# batch averaging must already be folded in. Training a stack passes
# (M, B, K) logits with (M, B) indices, and member m's gradient must equal
# that of its own 2-D call.
Objective = Callable[[np.ndarray, np.ndarray], tuple]


def init_model(dims: Sequence[int], seed: int) -> MLPModel:
    """An MLP with layer sizes ``[input, h1, ..., K]``, deterministic in
    ``seed``: glorot_uniform weights, drawn from +-sqrt(6 / (fan_in +
    fan_out)), and zero biases."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise DimensionError("need at least input and output dims")
    if any(d < 1 for d in dims):
        raise DimensionError(f"all layer dims must be >= 1, got {dims}")
    if dims[-1] < 2:
        raise ValueError("need at least 2 output classes")
    rng = stream_rng(seed, STREAM_INIT)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(w, np.zeros(fan_out)))
    return MLPModel(layers)


def _layers_into(model: MLPModel, a: np.ndarray,
                 outs: List[Optional[np.ndarray]]) -> List[np.ndarray]:
    """Run rows ``a`` through the layers and return ``outs``: layer i
    writes ``a @ weights + bias`` into ``outs[i]``, a fresh array where
    that is None, then relu in place unless it is the last, and its output
    is the next layer's input."""
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        a = outs[i] = np.matmul(a, layer.weights, out=outs[i])
        a += layer.bias[..., None, :]
        if i < last:
            np.maximum(a, 0.0, out=a)
    return outs


def forward_batch(model: MLPModel, x: np.ndarray) -> BatchCache:
    """Forward pass over a batch ``(n, input_dim)``, or ``(M, n, input_dim)``
    for a stack of M, by ``_layers_into`` into fresh arrays that it caches."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    lead = model.layers[0].weights.shape[:-2]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead \
            or x.shape[-1] != model.input_dim:
        raise DimensionError(
            f"expected batch of shape {lead + ('n', model.input_dim)}, "
            f"got {x.shape}")
    return BatchCache(x, _layers_into(model, x, [None] * len(model.layers)))


def batch_logits(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """``forward_batch(model, x).logits``."""
    return forward_batch(model, x).logits


def predict_batch(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(forward_batch(model, x).logits, axis=1)


class Workspace:
    """Reusable float64 output buffers for evaluation forwards.

    ``get(key, shape)`` returns a view of the leading elements of one flat
    buffer per key, which grows to the largest request and never shrinks,
    so repeated requests of the same or a smaller size allocate nothing.
    A larger request releases the smaller buffer before it allocates the
    new one, so the two are never both held by the workspace. A view stays
    valid until the next request under its key."""

    def __init__(self):
        self.buffers: Dict[object, np.ndarray] = {}

    def get(self, key, shape: Sequence[int]) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(key)
        if buf is None or buf.size < size:
            self.buffers[key] = buf = None
            buf = self.buffers[key] = np.empty(size)
        return buf[:size].reshape(shape)


def block_cuts(n: int, widest: int) -> List[int]:
    """Cuts ``[c_0, ..., c_q]`` of n rows into q = max(1, n // R) blocks,
    R = max(1, ``BLOCK_ELEMENTS`` // ``widest``), with c_b = n * b // q. Block
    sizes differ by at most one row, so no block holds more than ceil(n / q)
    rows, and when n >= R every block holds R to 2R - 1 rows."""
    blocks = max(1, n // max(1, BLOCK_ELEMENTS // widest))
    return [n * b // blocks for b in range(blocks + 1)]


def forward_into(model: MLPModel, x: np.ndarray, workspace: Workspace) -> np.ndarray:
    """Logits of one (unstacked) model over ``(n, input_dim)`` rows.

    The rows run through ``_layers_into`` in the blocks of ``block_cuts(n,
    widest fan_out)``. Hidden layer i writes into ``workspace``'s buffer
    ``i``, one block (ceil(n / q) rows) long; the logits go into the last
    layer's buffer, all n rows, a view that the workspace's next forward
    overwrites. Each block's logits are bit for bit ``forward_batch`` logits
    of that block's rows, and equal those of one ``forward_batch`` over all
    the rows wherever OpenBLAS rounds a row the same at any row count, as
    the tests check for hidden widths 32, 64 and 256; at some other widths,
    478 for one, a logit can differ in the last bit."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if model.stack_size is not None or x.ndim != 2 \
            or x.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected one model and rows of shape (n, {model.input_dim}), "
            f"got {x.shape}")
    n, last = x.shape[0], len(model.layers) - 1
    cuts = block_cuts(n, max(l.fan_out for l in model.layers))
    rows = cuts[-1] - cuts[-2]  # the last block is one of the longest
    hidden = [workspace.get(i, (rows, layer.fan_out))
              for i, layer in enumerate(model.layers[:last])]
    logits = workspace.get(last, (n, model.num_classes))
    for start, stop in zip(cuts, cuts[1:]):
        _layers_into(model, x[start:stop],
                     [h[:stop - start] for h in hidden] + [logits[start:stop]])
    return logits


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)`` of a 2-D array, bit for bit, since max is exact.
    Reducing a transposed copy runs one vectorised maximum per column
    instead of a short inner loop per row: 6 against 22 us at 320 x 10 on
    one core of a 2-vCPU Xeon VM."""
    return np.ascontiguousarray(x.T).max(axis=0)


def ce_rows(logits: np.ndarray, m: np.ndarray, at: np.ndarray) -> tuple:
    """Per-row cross-entropy and softmax probabilities of ``(n, K)`` logits,
    as (losses, probs); callers reuse probs to assemble the gradient
    softmax(logits) - onehot(label). ``m`` is the logits' row max as a
    column and ``at`` the labels' flat positions ``label_positions(labels,
    K)``. Labels must lie in [0, K): the flat gather does not check them."""
    e = np.subtract(logits, m)
    np.exp(e, out=e)
    s = e.sum(axis=1, keepdims=True)
    losses = m[:, 0] + np.log(s[:, 0])
    losses -= logits.take(at)
    e /= s
    return losses, e


def label_positions(labels: np.ndarray, k: int) -> np.ndarray:
    """Flat positions ``arange(n) * k + labels`` of each row's label in
    ``(n, k)`` rows: one 1-D index, cheaper than ``[arange(n), labels]``."""
    at = np.arange(labels.shape[0]) * k
    at += labels
    return at


def backward_batch(model: MLPModel, cache: BatchCache, dlogits: np.ndarray,
                   out: List[tuple]) -> List[tuple]:
    """Exact gradients of the scalar loss whose logit gradient is given,
    one ``(dW, db)`` pair per layer, written into ``out``'s arrays (``train``
    passes views of its flat gradient buffer) and returned as ``out``. The
    gradient reaching a relu layer passes where its output is positive,
    which is exactly where its input was (NaN and +-0.0 fail both tests)."""
    dlogits = np.ascontiguousarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.logits.shape:
        raise DimensionError(
            f"dlogits shape {dlogits.shape} != logits shape {cache.logits.shape}")
    dz = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        a_prev = cache.x if i == 0 else cache.activations[i - 1]
        dw, db = out[i]
        np.matmul(a_prev.swapaxes(-1, -2), dz, out=dw)
        _bias_grad(dz, db)
        if i > 0:
            dz = dz @ model.layers[i].weights.swapaxes(-1, -2)
            dz *= cache.activations[i - 1] > 0.0
    return out


def _bias_grad(dz: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``dz.sum(axis=-2)`` into ``out``, bit for bit (see ``_train_epoch``)."""
    if dz.shape[-1] == 1:
        return dz.sum(axis=-2, out=out)
    return np.einsum("...bf->...f", dz, out=out)


def sgd_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
             config: TrainConfig, epoch: int) -> None:
    """In-place momentum update over flat arrays of one layout:
    v <- mu*v - lr_t*g; p <- p + v. ``grads`` is scaled by lr_t in place,
    so the step allocates no temporary."""
    if grads.shape != params.shape or velocity.shape != params.shape:
        raise DimensionError("gradient shapes do not match model parameters")
    velocity *= config.momentum
    grads *= config.lr_at(epoch)
    velocity -= grads
    params += velocity


def _views(flat: np.ndarray, model: MLPModel) -> List[tuple]:
    """One ``(weights, bias)`` pair of views of ``flat`` per layer, shaped
    like ``model``'s, laid out layer by layer."""
    views, at = [], 0
    for layer in model.layers:
        pair = []
        for shape in (layer.weights.shape, layer.bias.shape):
            size = math.prod(shape)
            pair.append(flat[at:at + size].reshape(shape))
            at += size
        views.append(tuple(pair))
    return views


def _flat_copy(model: MLPModel) -> tuple:
    """A copy of ``model`` whose parameters are views of one flat buffer,
    returned with it."""
    flat = np.empty(model.parameter_count())
    layers = []
    for layer, (w, b) in zip(model.layers, _views(flat, model)):
        w[...] = layer.weights
        b[...] = layer.bias
        layers.append(Layer(w, b))
    return MLPModel(layers), flat


def train(model: MLPModel, features: np.ndarray, labels: np.ndarray,
          objective: Objective, config: TrainConfig,
          on_epoch_end: Optional[Callable[[int, MLPModel], None]] = None,
          ) -> TrainResult:
    """Mini-batch SGD on a copy of ``model``; the input model is untouched.

    ``model`` is one model or a stack of M, whose members train in lockstep,
    one step per mini-batch. Member j of a stack shuffles with seed
    ``config.seed + j``: epoch t visits the rows in the order of the
    counter-based stream (seed + j, t), gathered as ``features[order[:,
    s:e]]``, so member j ends bit for bit as training it alone under that
    seed would leave it, whatever the global RNG state.
    ``on_epoch_end(epoch, model)`` fires once per epoch with the whole live
    model or stack."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":  # int64 would truncate 0.5 to 0
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise DimensionError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if labels.shape != (n,):
        raise DimensionError("labels must be 1-D and match the feature rows")
    if features.shape[1] != model.input_dim:
        raise DimensionError(
            f"features have dim {features.shape[1]}, model expects {model.input_dim}")
    if not np.isfinite(features).all():  # a NaN would spread to every weight
        raise ValueError("features must be finite, got nan or inf")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError("labels out of range for the model's class count")

    model, params = _flat_copy(model)
    grads, velocity = np.empty_like(params), np.zeros_like(params)
    for epoch in range(config.epochs):
        _train_epoch(model, features, objective, params, grads, velocity,
                     config, epoch)
        if on_epoch_end is not None:
            on_epoch_end(epoch, model)
    return TrainResult(model)


def _train_epoch(model: MLPModel, features: np.ndarray, objective: Objective,
                 params: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
                 config: TrainConfig, epoch: int) -> None:
    """One epoch of steps; the stacked shuffle and the last batch's arrays
    die on return, before ``on_epoch_end`` runs. ``params`` is the flat
    buffer that the model's layers view, and ``grads`` and ``velocity`` are
    flat buffers of the same layout: ``backward_batch`` writes each step's
    gradients into views of ``grads``, and ``sgd_step`` runs its three
    in-place ops over the whole buffers, per element the same arithmetic as
    one update per array.

    Bias gradients are the einsum ``"...bf->...f"``. For fan_out F >= 2,
    ``dz.sum(axis=-2)`` adds the rows one after another, and so does the
    einsum, bit for bit, in about a third of the time at 64 rows. At F = 1
    the rows are contiguous, so ``sum`` adds them in pairwise order, which
    the einsum does not follow; that case keeps ``sum``."""
    grad_views = _views(grads, model)
    n = features.shape[0]
    size = model.stack_size
    if size is None:
        order = stream_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
    else:
        order = np.stack([stream_rng(config.seed + j, STREAM_SHUFFLE, epoch)
                          .permutation(n) for j in range(size)])
    bs = config.batch_size
    for start in range(0, n, bs):
        idx = order[..., start:start + bs]
        cache = forward_batch(model, features.take(idx, axis=0))
        _, dlogits = objective(cache.logits, idx)
        backward_batch(model, cache, dlogits, out=grad_views)
        sgd_step(params, grads, velocity, config, epoch)
