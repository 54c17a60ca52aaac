"""Oracle checks of the per-layer math of the numpy engine.

Each operation is checked through the public ``pctlab.nn`` function that
holds it: affine and relu in ``forward_batch``, their gradients in
``backward_batch``, the row softmax and cross-entropy in ``ce_rows``, the
momentum update in ``sgd_step`` and the row argmax in ``predict_batch``.
Each is compared against a naive loop or closed-form numpy oracle. The 1-D
``softmax`` and ``cross_entropy`` of ``tests/oracles.py`` are checked here
too, because other tests lean on them.
"""

import numpy as np
import pytest

from oracles import (cross_entropy, forward_per_array, softmax,
                     zeros_like_params)
from pctlab import nn


@pytest.fixture(autouse=True, params=["numpy"])
def engine(request):
    """numpy is the only engine; the ``[numpy]`` test ids are kept from when
    the engine had a second backend, so these checks keep their names."""
    return request.param


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(1000 + tag)


def _single_layer(w: np.ndarray, b: np.ndarray) -> nn.MLPModel:
    return nn.MLPModel([nn.Layer(w, b)])


def _identity_model(k: int) -> nn.MLPModel:
    """One layer with unit weights: the logits are the inputs."""
    return _single_layer(np.eye(k), np.zeros(k))


def test_affine_matches_loop_oracle():
    rng = _rng(1)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    z = nn.forward_batch(_single_layer(w, b), x).logits
    expect = np.empty((5, 3))
    for i in range(5):
        for j in range(3):
            expect[i, j] = sum(x[i, t] * w[t, j] for t in range(4)) + b[j]
    np.testing.assert_allclose(z, expect, rtol=1e-12, atol=1e-12)


def test_relu_and_backward():
    w2 = _rng(7).standard_normal((3, 2))
    model = nn.MLPModel([nn.Layer(np.eye(3), np.zeros(3)),
                         nn.Layer(w2, np.zeros(2))])
    z = np.array([[-1.5, 0.0, 2.0], [3.0, -0.1, 0.5]])
    cache = nn.forward_batch(model, z)
    pre_activations = forward_per_array(model, z).pre_activations
    np.testing.assert_array_equal(pre_activations[0], z)
    np.testing.assert_array_equal(cache.activations[0], np.where(z > 0, z, 0.0))
    dlogits = np.array([[1.0, -2.0], [0.5, 0.25]])
    (dw1, db1), _ = nn.backward_batch(model, cache, dlogits,
                                      zeros_like_params(model))
    # gradient passes only where the pre-activation was strictly positive
    dz1 = (dlogits @ w2.T) * (z > 0)
    np.testing.assert_array_equal(db1, dz1.sum(axis=0))
    np.testing.assert_array_equal(dw1, z.T @ dz1)


def test_affine_backward_matches_loop_oracle():
    rng = _rng(2)
    x = rng.standard_normal((6, 4))
    w1 = rng.standard_normal((4, 3))
    w2 = rng.standard_normal((3, 2))
    dlogits = rng.standard_normal((6, 2))
    # the hidden layer is relu; a bias of 100 keeps every pre-activation
    # positive, so its mask passes everything
    model = nn.MLPModel([nn.Layer(w1, np.full(3, 100.0)),
                         nn.Layer(w2, np.zeros(2))])
    cache = nn.forward_batch(model, x)
    pre_activations = forward_per_array(model, x).pre_activations
    assert (pre_activations[0] > 0).all()
    (dw1, db1), (dw2, db2) = nn.backward_batch(model, cache, dlogits,
                                                zeros_like_params(model))
    np.testing.assert_allclose(dw2, cache.activations[0].T @ dlogits,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(db2, dlogits.sum(axis=0), rtol=1e-12, atol=1e-12)
    # the hidden layer's dz is the top layer's dx
    dz = dlogits @ w2.T
    np.testing.assert_allclose(dw1, x.T @ dz, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(db1, dz.sum(axis=0), rtol=1e-12, atol=1e-12)


def test_softmax_rows_simplex_and_shift_invariance():
    rng = _rng(3)
    logits = rng.standard_normal((8, 5)) * 3
    p = np.array([softmax(row) for row in logits])
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    shifted = np.array([softmax(row) for row in logits + 123.0])
    np.testing.assert_allclose(p, shifted, rtol=1e-12, atol=1e-15)


def test_softmax_rows_stable_for_large_logits():
    p = softmax(np.array([1e4, 0.0, -1e4]))
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)
    p = softmax(np.full(3, -1e4))
    np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-12)


def test_ce_rows_matches_logsumexp_oracle():
    rng = _rng(4)
    logits = rng.standard_normal((7, 4)) * 2
    labels = rng.integers(0, 4, size=7).astype(np.int64)
    expect = np.logaddexp.reduce(logits, axis=1) - logits[np.arange(7), labels]
    losses, grad = nn.ce_rows(logits, labels)
    np.testing.assert_allclose(losses, expect, rtol=1e-12, atol=1e-12)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    onehot = np.eye(4)[labels]
    np.testing.assert_allclose(grad, e / e.sum(axis=1, keepdims=True) - onehot,
                               rtol=1e-12, atol=1e-15)
    for row, label, want in zip(logits, labels, expect):
        assert cross_entropy(row, int(label)) == pytest.approx(want, rel=1e-12)
    assert np.all(losses > 0)


def test_sgd_update_matches_formula_exactly():
    """The update runs over flat buffers: here one (4, 3) layer's weights
    and bias, laid out as ``train`` lays them out."""
    rng = _rng(5)
    layer = nn.Layer(rng.standard_normal((4, 3)), rng.standard_normal(3))
    params = np.concatenate([layer.weights.ravel(), layer.bias])
    before = params.copy()
    velocity = np.concatenate([rng.standard_normal(12), rng.standard_normal(3)])
    v_before = velocity.copy()
    grads = np.concatenate([rng.standard_normal(12), rng.standard_normal(3)])
    g_before = grads.copy()
    lr, mu = 0.05, 0.9
    nn.sgd_step(params, grads, velocity,
                nn.TrainConfig(learning_rate=lr, momentum=mu), epoch=0)
    v_expect = mu * v_before - lr * g_before
    np.testing.assert_array_equal(velocity, v_expect)
    np.testing.assert_array_equal(params, before + v_expect)
    with pytest.raises(nn.DimensionError):
        nn.sgd_step(params, grads[:-1], velocity, nn.TrainConfig(), epoch=0)


def test_argmax_rows_ties_resolve_to_lowest_index():
    logits = np.array([[0.0, 0.0, 0.0],
                       [1.0, 2.0, 2.0],
                       [0.1, 0.9, 0.3]])
    np.testing.assert_array_equal(nn.predict_batch(_identity_model(3), logits),
                                  [0, 1, 1])
