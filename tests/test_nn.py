"""Model engine: init, forward/backward, and the SGD training loop.

The backward pass is checked against central finite differences, and one
full optimizer step is checked against a from-scratch recomputation that
follows the documented shuffle and update rules.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (ce_objective, copy_model, cross_entropy, error_rate,
                     forward_per_array, per_step_objective, softmax,
                     train_per_array, zero_model, zeros_like_params)
from pctlab import nn
from pctlab.losses import (DistanceSpec, OldModelOracle, PCLossConfig,
                           make_ce_objective, make_objective)
from pctlab.rng import STREAM_SHUFFLE, stream_rng


def _blobs(n_per: int = 40, seed: int = 5):
    """Two well-separated Gaussian blobs in 2-D."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2)) * 0.3 + [3.0, 0.0]
    b = rng.standard_normal((n_per, 2)) * 0.3 + [-3.0, 0.0]
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    return x, y


# ---------------------------------------------------------------------------
# construction


def test_init_model_is_deterministic():
    m1 = nn.init_model([4, 8, 3], seed=9)
    m2 = nn.init_model([4, 8, 3], seed=9)
    m3 = nn.init_model([4, 8, 3], seed=10)
    for l1, l2 in zip(m1.layers, m2.layers):
        np.testing.assert_array_equal(l1.weights, l2.weights)
        np.testing.assert_array_equal(l1.bias, l2.bias)
    assert any(not np.array_equal(l1.weights, l3.weights)
               for l1, l3 in zip(m1.layers, m3.layers))


def test_init_model_glorot_bounds_and_zero_bias():
    model = nn.init_model([6, 10, 4], seed=0)
    for layer in model.layers:
        limit = math.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        assert np.abs(layer.weights).max() <= limit
        np.testing.assert_array_equal(layer.bias, 0.0)
    # the hidden layer is relu and the last emits raw logits
    x = np.random.default_rng(0).standard_normal((50, 6))
    cache = nn.forward_batch(model, x)
    pre_activations = forward_per_array(model, x).pre_activations
    assert (pre_activations[0] < 0.0).any()
    assert (cache.activations[0] >= 0.0).all()
    assert (cache.logits < 0.0).any()
    assert model.parameter_count() == 6 * 10 + 10 + 10 * 4 + 4


def test_stream_rng_takes_seeds_of_one_philox_key_word():
    stream_rng(2**64 - 1, STREAM_SHUFFLE)
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), "
                                             rf"got {seed}$"):
            stream_rng(seed, STREAM_SHUFFLE)


def test_a_zero_model_learns_only_its_output_bias():
    """Why ``weight_init`` takes only glorot_uniform: from all-zero weights
    every hidden output is 0 and so is every weight above it, so only the
    output bias gets a gradient, and it stays that way step after step."""
    model = zero_model([3, 4, 2])
    np.testing.assert_array_equal(model.layers[0].weights, 0.0)
    x = np.random.default_rng(0).standard_normal((5, 3))
    cache = nn.forward_batch(model, x)
    dlogits = np.random.default_rng(1).standard_normal((5, 2))
    (dw1, db1), (dw2, db2) = nn.backward_batch(model, cache, dlogits,
                                                zeros_like_params(model))
    for grad in (dw1, db1, dw2):
        np.testing.assert_array_equal(grad, 0.0)
    assert (db2 != 0.0).all()


@pytest.mark.parametrize("dims", [[4], [4, 0, 3], [4, 5, 1]])
def test_init_model_rejects_bad_dims(dims):
    with pytest.raises((nn.DimensionError, ValueError)):
        nn.init_model(dims, seed=0)


def test_model_rejects_non_chaining_layers():
    good = nn.init_model([3, 5, 2], seed=0)
    with pytest.raises(nn.DimensionError):
        nn.MLPModel([good.layers[0],
                     nn.Layer(np.zeros((4, 2)), np.zeros(2))])


def test_model_copy_is_deep():
    """The oracle's copy, which ``train_per_array`` trains, shares no
    array with its input."""
    model = nn.init_model([3, 4, 2], seed=1)
    clone = copy_model(model)
    clone.layers[0].weights[0, 0] += 1.0
    assert model.layers[0].weights[0, 0] != clone.layers[0].weights[0, 0]


def test_layer_rejects_nonfinite_parameters():
    with pytest.raises(ValueError, match="finite"):
        nn.Layer(np.array([[np.nan]]), np.zeros(1))


# ---------------------------------------------------------------------------
# forward / predict


def test_forward_rejects_wrong_input_dim():
    model = nn.init_model([5, 3], seed=0)
    with pytest.raises(nn.DimensionError):
        nn.forward_batch(model, np.zeros((2, 4)))
    with pytest.raises(nn.DimensionError):
        nn.forward_batch(model, np.zeros(5))
    stack = nn.stack_models([model, model])
    with pytest.raises(nn.DimensionError):
        nn.forward_batch(stack, np.zeros((2, 5)))
    with pytest.raises(nn.DimensionError):
        nn.forward_batch(stack, np.zeros((3, 2, 5)))


# relu inputs at and around the kink: the mask must read the same bits
RELU_SPECIALS = np.array([-np.inf, -2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0,
                          np.inf, np.nan, np.copysign(np.nan, -1.0)])


def test_relu_output_is_positive_exactly_where_its_input_is():
    """``backward_batch`` masks on the relu output: ``max(z, 0) > 0``, with
    the relu in place, is ``z > 0`` element for element, for negatives,
    -0.0, +0.0, either NaN and +-inf."""
    z = np.random.default_rng(2).choice(RELU_SPECIALS, size=(7, 40))
    z[0, :RELU_SPECIALS.size] = RELU_SPECIALS
    want = z > 0.0
    np.testing.assert_array_equal(np.maximum(z, 0.0, out=z) > 0.0, want)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_forward_batch_equals_the_per_array_forward_bit_for_bit(lead):
    """Activations with relu in place are the oracle's fresh relu outputs
    in every bit, and their mask is the oracle's pre-activation mask, on
    rows whose first-layer pre-activations hold negatives, +0.0, NaN and
    +-inf. (The -0.0 case is checked on arrays above: OpenBLAS's gemm
    starts its sums at +0.0, so it writes no -0.0.)"""
    rng = np.random.default_rng(12)
    dims = [4, 6, 5, 3]
    models = [nn.init_model(dims, seed=s) for s in range(math.prod(lead))]
    model = nn.stack_models(models) if lead else models[0]
    x = rng.standard_normal(lead + (60, dims[0]))
    hit = rng.random(x.shape) < 0.05
    x[hit] = rng.choice(RELU_SPECIALS, size=hit.sum())
    x[..., 0, :] = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        got = nn.forward_batch(model, x)
        want = forward_per_array(model, x)
    first = want.pre_activations[0]
    assert np.isnan(first).any() and (first == 0.0).any()
    assert (first == np.inf).any() and (first == -np.inf).any()
    assert (first < 0.0).any() and (first > 0.0).any()
    for a, w, z in zip(got.activations, want.activations, want.pre_activations):
        np.testing.assert_array_equal(a.view(np.uint64), w.view(np.uint64))
        np.testing.assert_array_equal(a > 0.0, z > 0.0)


def test_forward_batch_holds_one_array_per_layer():
    """A forward allocates its layers' outputs and no pre-activation:
    under tracemalloc, one ``forward_batch`` of ``[20, 256, 256, 10]`` at
    512 rows peaks at most 128 KiB above its activations' bytes, room for
    one ufunc buffer (``np.getbufsize()`` = 8,192 float64s, 64 KiB) that
    the bias add uses. A forward that also kept each hidden pre-activation
    peaked 2 MB above them. tracemalloc counts numpy's data allocations
    themselves, so the bound does not depend on the allocator."""
    model = nn.init_model([20, 256, 256, 10], seed=0)
    x = np.random.default_rng(0).standard_normal((512, 20))
    tracemalloc.start()
    try:
        cache = nn.forward_batch(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sum(a.nbytes for a in cache.activations) + 128 * 1024


def test_workspace_releases_a_buffer_before_it_grows():
    """Growing a key allocates its new buffer after the workspace lets go of
    the old one: under tracemalloc, growing key 0 from 1,077 to 1,333 rows
    of 256 (a ``wide`` hidden block) peaks at most 64 KiB above the new
    buffer's bytes. Holding both peaked at their sum, 2.2 MB higher. A view
    taken before the growth keeps the old buffer alive and still reads its
    values."""
    ws = nn.Workspace()
    tracemalloc.start()
    try:
        ws.get(0, (1077, 256))
        tracemalloc.reset_peak()
        grown = ws.get(0, (1333, 256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grown.nbytes + 64 * 1024
    old = ws.get(0, (1333, 256))
    old[:] = 3.0
    ws.get(0, (1400, 256))[:] = 4.0
    assert (old == 3.0).all()
    assert ws.buffers[0].size == 1400 * 256


# Row counts as (multiple of the block rows R, offset): both sides of 2R,
# whole blocks and a remainder block.
ROW_BLOCKS = ((5, 1), (3.5, 0), (2, 37), (2, 0), (2, -1))


@pytest.mark.parametrize("dims, sizes, whole", [
    ([6, 4], ((0, 300), (0, 70)), True),
    ([6, 9, 4], ((0, 300), (0, 70)), True),
    ([6, 9, 7, 5, 4], ((0, 300), (0, 70)), True),
    ([20, 256, 256, 10], ((0, 14000),) + ROW_BLOCKS, True),
    ([20, 256, 256, 5], ROW_BLOCKS, True),
    ([20, 32, 10], ROW_BLOCKS, True),
    ([20, 32, 5], ROW_BLOCKS, True),
    ([20, 32, 4], ROW_BLOCKS, True),
    ([20, 64, 64, 10], ROW_BLOCKS, True),
    ([20, 64, 64, 5], ROW_BLOCKS, True),
    ([6, 16, 16, 4], ROW_BLOCKS, True),
    ([8, 32, 5], ROW_BLOCKS, True),
    # OpenBLAS rounds a 478-wide layer differently at different row counts,
    # so only the per-block contract holds
    ([7, 478, 11], ((2, 5),), False),
], ids=[f"dims{i}" for i in range(13)])
def test_forward_into_equals_batch_logits_in_reused_buffers(dims, sizes, whole):
    """Workspace logits are the cached forward of each row block bit for
    bit and, for the shapes the package and its benchmark build, of all the
    rows at once. n rows run as q = max(1, n // R) blocks whose sizes
    differ by at most one row, each hidden buffer holds exactly the longest
    block of any input, ceil(n / q) rows, and a second round of forwards
    reuses every buffer."""
    rng = np.random.default_rng(4)
    model = nn.stack_models([nn.init_model(dims, seed=s) for s in (1, 2)]).member(1)
    for layer in model.layers:
        layer.bias += rng.standard_normal(layer.bias.shape)
    block = max(1, nn.BLOCK_ELEMENTS // max(dims[1:]))
    xs = [rng.standard_normal((int(m * block) + o, dims[0])) for m, o in sizes]
    ws = nn.Workspace()
    for round_ in range(2):
        for x in xs:
            n = len(x)
            got = nn.forward_into(model, x, ws)
            q = max(1, n // block)
            cuts = [n * b // q for b in range(q + 1)]
            assert cuts == nn.block_cuts(n, max(dims[1:]))
            want = np.concatenate([nn.batch_logits(model, x[a:b])
                                   for a, b in zip(cuts, cuts[1:])])
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            if whole:
                np.testing.assert_array_equal(
                    got.view(np.uint64), nn.batch_logits(model, x).view(np.uint64))
        if round_ == 0:
            first = {k: b.ctypes.data for k, b in ws.buffers.items()}
    assert {k: b.ctypes.data for k, b in ws.buffers.items()} == first
    assert sorted(first) == list(range(len(dims) - 1))
    longest = max(-(-len(x) // max(1, len(x) // block)) for x in xs)
    for i, fan_out in enumerate(dims[1:-1]):
        assert ws.buffers[i].size == longest * fan_out
    assert ws.buffers[len(dims) - 2].size == max(map(len, xs)) * dims[-1]
    with pytest.raises(nn.DimensionError):
        nn.forward_into(model, np.zeros((2, dims[0] + 1)), ws)
    with pytest.raises(nn.DimensionError):
        nn.forward_into(nn.stack_models([model, model]), np.zeros((2, dims[0])), ws)


def test_row_max_equals_max_axis1_bit_for_bit():
    """The transposed-copy max equals ``max(axis=1)`` in every bit, for
    K = 2..128 and rows holding +inf, -inf and NaN (a diverged run feeds
    NaN logits through ``ce_rows``)."""
    rng = np.random.default_rng(11)
    specials = np.array([np.inf, -np.inf, np.nan])
    for k in range(2, 129):
        x = rng.standard_normal((40, k)) * 10
        hit = rng.random((40, k)) < 0.05
        x[hit] = rng.choice(specials, size=hit.sum())
        x[0] = -np.inf
        x[1, :] = np.nan
        x[2, -1] = np.inf
        x[3, 0] = np.nan
        got, want = nn.row_max(x), x.max(axis=1)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_predict_ties_resolve_to_lowest_index():
    model = zero_model([3, 4])
    np.testing.assert_array_equal(nn.predict_batch(model, np.ones((2, 3))), 0)


def test_softmax_vector_sums_to_one():
    p = softmax(np.array([1.0, 2.0, 3.0]))
    assert p.shape == (3,)
    assert abs(p.sum() - 1.0) < 1e-12
    assert p.argmax() == 2


def test_cross_entropy_uniform_logits_is_log_k():
    assert cross_entropy(np.zeros(7), 3) == pytest.approx(math.log(7), rel=1e-14)


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(IndexError):
        cross_entropy(np.zeros(3), 3)


# ---------------------------------------------------------------------------
# gradients


def test_backward_matches_central_differences():
    model = nn.init_model([4, 6, 5, 3], seed=7)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5).astype(np.int64)
    objective = make_ce_objective(y)
    idx = np.arange(5)

    def loss_at() -> float:
        return objective(nn.forward_batch(model, x).logits, idx)[0]

    cache = nn.forward_batch(model, x)
    _, dlogits = objective(cache.logits, idx)
    grads = nn.backward_batch(model, cache, dlogits, zeros_like_params(model))

    h = 1e-6
    for layer, (dw, db) in zip(model.layers, grads):
        for arr, grad in ((layer.weights, dw), (layer.bias, db)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_at()
                flat[i] = keep - h
                down = loss_at()
                flat[i] = keep
                fd = (up - down) / (2 * h)
                assert abs(fd - gflat[i]) <= 1e-6 + 1e-5 * abs(fd)


def _bits(x: np.ndarray) -> np.ndarray:
    """The bits of ``x``, with every NaN as the one positive quiet NaN."""
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


@pytest.mark.parametrize("lead", [(), (1,), (3,), (16,)])
def test_bias_gradient_equals_row_sum_bit_for_bit(lead):
    """``backward_batch``'s bias gradient equals ``dz.sum(axis=-2)`` in
    every bit, sign of zero included, with +-inf, NaN, -0.0 and values near
    1e+-300 among the rows. At F = 1 the einsum adds the rows in another
    order than ``sum``'s pairwise one (checked on plain rows below), so the
    match there shows that F = 1 goes through ``sum``. A numpy upgrade that
    changes either order fails here.

    A NaN compares as NaN, whatever its sign bit: inf - inf makes a NaN
    with the sign bit set, and when it meets a NaN without it, the sum's
    SIMD add and the einsum keep different operands. No result reads the
    sign of a NaN."""
    rng = np.random.default_rng(31)
    specials = np.array([np.inf, -np.inf, np.nan, -0.0,
                         1e300, -1e300, 1e-300, -1e-300])
    einsum_differs_at_f1 = False
    for b in (1, 2, 7, 8, 9, 64, 512):
        for f in (1, 2, 3, 10, 32, 256):
            model = nn.MLPModel([nn.Layer(np.zeros(lead + (1, f)),
                                          np.zeros(lead + (f,)))])
            cache = nn.forward_batch(model, np.zeros(lead + (b, 1)))
            plain = rng.standard_normal(lead + (b, f))
            dz = plain * 10.0 ** rng.integers(-300, 300, size=plain.shape)
            hit = rng.random(dz.shape) < 0.05
            dz[hit] = rng.choice(specials, size=hit.sum())
            dz[..., 0] = -0.0
            for rows in (plain, dz):
                with np.errstate(all="ignore"):
                    (_, got), = nn.backward_batch(model, cache, rows,
                                                 zeros_like_params(model))
                    want = rows.sum(axis=-2)
                np.testing.assert_array_equal(_bits(got), _bits(want))
            if f == 1:
                einsum_differs_at_f1 |= not np.array_equal(
                    np.einsum("...bf->...f", plain), plain.sum(axis=-2))
    assert einsum_differs_at_f1


def _step_case(method: str, class_map):
    """Labels, objective and its per-array oracle for one method, on 50
    rows (three batches of 16 and a ragged one of 2) and 5 new classes.
    ``class_map`` sends the old model's 4 classes to new labels, as a
    class-increment update does, or is None for 5 shared classes."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((50, 4))
    y = rng.integers(0, 5, size=50).astype(np.int64)
    if method == "ce":
        return x, y, make_ce_objective(y), ce_objective(y)
    old = nn.init_model([4, 6, 5 if class_map is None else 4], seed=3)
    oracle = OldModelOracle.from_model(old, x, y, class_map=class_map)
    cfg = {"naive": PCLossConfig(mode="naive", lam=0.7),
           "fd_kl": PCLossConfig(mode="focal", lam=1.0,
                                 distance=DistanceSpec("kl", 2.0)),
           "fd_lm": PCLossConfig(mode="focal", lam=1.0,
                                 distance=DistanceSpec("logit_match"))}[method]
    return x, y, make_objective(y, oracle, cfg), per_step_objective(y, oracle, cfg)


@pytest.mark.parametrize("members", [None, 1, 5])
@pytest.mark.parametrize("method,class_map,dims", [
    ("ce", None, [4, 8, 5]),
    ("ce", None, [4, 6, 1, 5]),
    ("naive", None, [4, 8, 5]),
    ("fd_kl", None, [4, 8, 5]),
    ("fd_kl", [4, 0, 2, 1], [4, 8, 5]),
    ("fd_lm", None, [4, 8, 5]),
    ("fd_lm", [4, 0, 2, 1], [4, 8, 5]),
])
def test_train_equals_the_per_array_step_bit_for_bit(members, method,
                                                     class_map, dims):
    """Flat parameter, gradient and velocity buffers, einsum bias gradients
    and the trimmed objectives end every weight where the per-array step of
    ``tests/oracles.py`` ends it, bit for bit: for one model and stacks of
    1 and 5, under CE, naive, fd_kl and fd_lm, through a class-increment
    ``logit_index``, a 1-wide hidden layer and a ragged last batch, across a
    learning-rate step."""
    x, y, objective, oracle = _step_case(method, class_map)
    models = [nn.init_model(dims, seed=s) for s in range(members or 1)]
    model = models[0] if members is None else nn.stack_models(models)
    cfg = nn.TrainConfig(learning_rate=0.05, epochs=3, batch_size=16,
                         lr_decay_every=2, seed=7)
    got = nn.train(model, x, y, objective, cfg).model
    want = train_per_array(model, x, oracle, cfg)
    for g, w in zip(got.layers, want.layers):
        np.testing.assert_array_equal(g.weights.view(np.uint64),
                                      w.weights.view(np.uint64))
        np.testing.assert_array_equal(g.bias.view(np.uint64),
                                      w.bias.view(np.uint64))


def test_backward_rejects_mismatched_dlogits():
    model = nn.init_model([3, 2], seed=0)
    cache = nn.forward_batch(model, np.zeros((2, 3)))
    with pytest.raises(nn.DimensionError):
        nn.backward_batch(model, cache, np.zeros((2, 5)),
                          zeros_like_params(model))


# ---------------------------------------------------------------------------
# training loop


def test_train_calls_the_step_functions_once_per_batch(monkeypatch):
    """nn.train reaches forward_batch, backward_batch and sgd_step through
    module globals, once per mini-batch, so a wrapper set there sees every
    step."""
    x, y = _blobs(10)
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("forward_batch", "backward_batch", "sgd_step"):
        monkeypatch.setattr(nn, name, counting(name, getattr(nn, name)))
    cfg = nn.TrainConfig(epochs=3, batch_size=8)
    nn.train(nn.init_model([2, 3, 2], seed=0), x, y, make_ce_objective(y), cfg)
    steps = math.ceil(len(x) / cfg.batch_size) * cfg.epochs
    assert steps == 9
    assert counts == {"forward_batch": steps, "backward_batch": steps,
                      "sgd_step": steps}


def test_lr_schedule_steps_down():
    cfg = nn.TrainConfig(learning_rate=0.1, lr_decay_factor=0.5,
                         lr_decay_every=2, epochs=6)
    assert [cfg.lr_at(e) for e in range(6)] == [0.1, 0.1, 0.05, 0.05, 0.025, 0.025]


def test_train_config_validation():
    with pytest.raises(ValueError):
        nn.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        nn.TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        nn.TrainConfig(epochs=-1)
    for init in ("ones", "zeros"):
        with pytest.raises(ValueError, match=f"^weight_init must be "
                                             f"'glorot_uniform', got '{init}'$"):
            nn.TrainConfig(weight_init=init)


def test_train_is_deterministic_and_leaves_input_untouched():
    x, y = _blobs()
    model = nn.init_model([2, 6, 2], seed=1)
    before = [l.weights.copy() for l in model.layers]
    cfg = nn.TrainConfig(epochs=3, batch_size=16, seed=5)
    objective = make_ce_objective(y)
    r1 = nn.train(model, x, y, objective, cfg)
    r2 = nn.train(model, x, y, objective, cfg)
    for l1, l2 in zip(r1.model.layers, r2.model.layers):
        np.testing.assert_array_equal(l1.weights, l2.weights)
        np.testing.assert_array_equal(l1.bias, l2.bias)
    for layer, w in zip(model.layers, before):
        np.testing.assert_array_equal(layer.weights, w)


def test_train_zero_epochs_returns_unchanged_copy():
    x, y = _blobs(10)
    model = nn.init_model([2, 4, 2], seed=3)
    result = nn.train(model, x, y, make_ce_objective(y),
                      nn.TrainConfig(epochs=0))
    for l1, l2 in zip(result.model.layers, model.layers):
        np.testing.assert_array_equal(l1.weights, l2.weights)
    assert result.model is not model


def test_train_epoch_callback_sequence():
    x, y = _blobs(8)
    seen = []
    nn.train(nn.init_model([2, 2], seed=0), x, y, make_ce_objective(y),
             nn.TrainConfig(epochs=4, batch_size=8),
             on_epoch_end=lambda e, m: seen.append(e))
    assert seen == [0, 1, 2, 3]


def test_one_full_batch_step_matches_manual_recomputation():
    """One epoch at full batch size reproduces the documented update rule."""
    x, y = _blobs(12, seed=8)
    n = x.shape[0]
    cfg = nn.TrainConfig(learning_rate=0.2, momentum=0.0, batch_size=n,
                         epochs=1, seed=17)
    model = nn.init_model([2, 3, 2], seed=4)
    objective = make_ce_objective(y)
    trained = nn.train(model, x, y, objective, cfg).model

    order = stream_rng(cfg.seed, STREAM_SHUFFLE, 0).permutation(n)
    cache = nn.forward_batch(model, x[order])
    _, dlogits = objective(cache.logits, order)
    grads = nn.backward_batch(model, cache, dlogits, zeros_like_params(model))
    for layer, got, (dw, db) in zip(model.layers, trained.layers, grads):
        np.testing.assert_array_equal(got.weights, layer.weights - 0.2 * dw)
        np.testing.assert_array_equal(got.bias, layer.bias - 0.2 * db)


def test_train_learns_separable_blobs():
    x, y = _blobs(50, seed=2)
    model = nn.init_model([2, 8, 2], seed=0)
    cfg = nn.TrainConfig(epochs=10, batch_size=16, learning_rate=0.05, seed=1)
    trained = nn.train(model, x, y, make_ce_objective(y), cfg).model
    assert error_rate(trained, x, y) < 0.05


def test_train_validates_inputs():
    x, y = _blobs(5)
    model = nn.init_model([2, 2], seed=0)
    cfg = nn.TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="empty"):
        nn.train(model, np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                 make_ce_objective(y), cfg)
    with pytest.raises(nn.DimensionError):
        nn.train(model, x, y[:-1], make_ce_objective(y), cfg)
    bad = y.copy()
    bad[0] = 9
    with pytest.raises(ValueError, match="range"):
        nn.train(model, x, bad, make_ce_objective(bad), cfg)


def test_train_rejects_features_that_are_not_2_d():
    # one row per sample: a 1-D array of as many values as labels once
    # failed with an IndexError
    x, y = _blobs(5)
    with pytest.raises(nn.DimensionError, match=re.escape(
            "features must be 2-D, got shape (10,)")):
        nn.train(nn.init_model([2, 2], seed=0), x[:, 0], y,
                 make_ce_objective(y), nn.TrainConfig(epochs=1))


def test_train_rejects_labels_that_are_not_integers():
    # int64 would truncate them: 0.5 and 1.5 once trained as 0 and 1
    x, y = _blobs(5)
    with pytest.raises(ValueError, match=re.escape(
            "labels must be integers, got dtype float64")):
        nn.train(nn.init_model([2, 2], seed=0), x, y + 0.5,
                 make_ce_objective(y), nn.TrainConfig(epochs=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_features_that_are_not_finite(monkeypatch, bad):
    # one NaN once spread to every weight in two epochs, and the model then
    # predicted class 0 on every row
    x, y = _blobs(20)
    x[3, 1] = bad

    def must_not_step(*args, **kwargs):
        raise AssertionError("stepped on features that are not finite")

    monkeypatch.setattr(nn, "forward_batch", must_not_step)
    with pytest.raises(ValueError, match="^features must be finite, got nan "
                                         "or inf$"):
        nn.train(nn.init_model([2, 3, 2], seed=0), x, y,
                 make_ce_objective(y), nn.TrainConfig(epochs=2))
