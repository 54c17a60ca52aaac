"""Logit-averaged ensembles: member math, blockwise scoring of every prefix,
and training reproducibility."""

from dataclasses import replace

import numpy as np
import pytest

from pctlab import nn
from pctlab.datasets import SPLIT_TRAIN, SyntheticSpec, generate
from pctlab.ensembles import Ensemble, train_ensemble
from pctlab.losses import (DistanceSpec, OldModelOracle, PCLossConfig,
                           make_ce_objective, make_objective)

from oracles import mean_logits

SPEC = SyntheticSpec(num_classes=4, input_dim=5, samples_per_class=50,
                     cluster_spread=1.1, seed=21)
CFG = nn.TrainConfig(epochs=3, batch_size=32, seed=2)


@pytest.fixture(scope="module")
def data():
    return generate(SPEC)


@pytest.fixture(scope="module")
def train_xy(data):
    rows = data.rows_of_split(SPLIT_TRAIN)
    return data.features[rows], data.labels[rows]


def _models(n: int, seed0: int = 0):
    return [nn.init_model([5, 6, 4], seed=seed0 + j) for j in range(n)]


def test_ensemble_requires_homogeneous_members():
    with pytest.raises(ValueError, match="at least one"):
        Ensemble([])
    mixed = [_models(1)[0], nn.init_model([5, 6, 3], seed=9)]
    with pytest.raises(ValueError, match="share"):
        Ensemble(mixed)


def test_ensemble_rejects_a_stacked_member():
    # a stack once passed as one member, and its first predict_batch blamed
    # the rows: "expected one model and rows of shape (n, 5)"
    single, stack = _models(1)[0], nn.stack_models(_models(3))
    for members, j in (([stack], 0), ([single, stack], 1)):
        with pytest.raises(ValueError,
                           match=f"^member {j} is a stack of 3 models$"):
            Ensemble(members)


def test_mean_logits_is_member_mean():
    members = _models(3)
    ens = Ensemble(members)
    x = np.random.default_rng(0).standard_normal((7, 5))
    per = [nn.batch_logits(m, x) for m in members]
    np.testing.assert_allclose(mean_logits(ens, x),
                               (per[0] + per[1] + per[2]) / 3,
                               rtol=1e-13, atol=1e-15)
    assert ens.size == 3 and ens.num_classes == 4
    assert ens.parameter_count() == 3 * members[0].parameter_count()


def test_single_member_ensemble_equals_member_exactly():
    member = _models(1)[0]
    ens = Ensemble([member])
    x = np.random.default_rng(1).standard_normal((6, 5))
    np.testing.assert_array_equal(mean_logits(ens, x),
                                  nn.batch_logits(member, x))
    np.testing.assert_array_equal(ens.predict_batch(x, nn.Workspace()),
                                  nn.predict_batch(member, x))


def test_predict_batch_takes_argmax_of_member_sum():
    """The sum keeps apart two classes that dividing by L rounds to a tie.

    Class 1's summed logit is larger, but both mean logits round to
    1.179062162902959, whose argmax is class 0. One exact rule, the summed
    argmax, then scores the old and the new side alike.
    """
    biases = ([3.5371864887088766, 3.537186488708877, -1.0], [0.0] * 3,
              [0.0] * 3)
    members = [nn.MLPModel([nn.Layer(np.zeros((5, 3)), np.array(b))])
               for b in biases]
    ens = Ensemble(members)
    x = np.random.default_rng(3).standard_normal((4, 5))
    mean = mean_logits(ens, x)
    assert mean[0, 0] == mean[0, 1] == 1.179062162902959
    np.testing.assert_array_equal(ens.predict_batch(x, nn.Workspace()), 1)


@pytest.mark.parametrize("blocks", [2.5, 3.5])
def test_blockwise_scoring_equals_whole_row_member_sums(blocks):
    """On the ``wide`` shape, at 2.5R and 3.5R rows (R the block rows of a
    256-wide layer), ``predict_batch`` and the sweep's per-size predictions
    of L = 1 and 3 equal the argmax of the member-order sum of whole-row
    ``batch_logits``, bit for bit. Only the predictions span all the rows:
    afterwards no workspace buffer holds more than one block."""
    dims = [20, 256, 256, 10]
    rng = np.random.default_rng(5)
    members = [nn.init_model(dims, seed=s) for s in (3, 4, 5)]
    for member in members:
        for layer in member.layers:
            layer.bias += rng.standard_normal(layer.bias.shape)
    block = nn.BLOCK_ELEMENTS // 256
    x = rng.standard_normal((int(blocks * block), dims[0]))
    logits = [nn.batch_logits(m, x) for m in members]
    want = [np.argmax(logits[0], axis=1),
            np.argmax(logits[0] + logits[1] + logits[2], axis=1)]
    assert not np.array_equal(want[0], want[1])

    ws = nn.Workspace()
    np.testing.assert_array_equal(
        Ensemble(members).predictions([x], [1, 3], ws), [want])
    np.testing.assert_array_equal(Ensemble(members[:1]).predict_batch(x, ws),
                                  want[0])
    np.testing.assert_array_equal(Ensemble(members).predict_batch(x, ws),
                                  want[1])
    longest = -(-len(x) // (len(x) // block))
    widths = {0: 256, 1: 256, 2: 10, "sum": 10}
    assert sorted(map(str, ws.buffers)) == sorted(map(str, widths))
    for key, buf in ws.buffers.items():
        assert buf.size <= longest * widths[key] < len(x) * widths[key]
    for sizes in ([], [0], [2, 1], [4]):
        with pytest.raises(ValueError, match="ascend"):
            Ensemble(members).predictions([x], sizes, ws)


class _CountingWorkspace(nn.Workspace):
    """A workspace that records the key and size of each allocation."""

    def __init__(self):
        super().__init__()
        self.allocated = []

    def get(self, key, shape):
        before = self.buffers.get(key)
        view = super().get(key, shape)
        if self.buffers[key] is not before:
            self.allocated.append((key, self.buffers[key].size))
        return view


@pytest.mark.parametrize("order", [(2.5, 3.5), (3.5, 2.5)],
                         ids=["longest_first", "longest_last"])
def test_one_call_sizes_each_buffer_once_for_every_row_set(order):
    """On the ``wide`` shape, one call over 2.5R and 3.5R rows, whose
    longest blocks hold 1,280 and 1,195 rows, allocates each buffer once, at
    1,280 rows, in either order: the buffers are sized for every set before
    the first forward. Each set's predictions equal a single-set call's."""
    dims = [20, 256, 256, 10]
    members = [nn.init_model(dims, seed=s) for s in (3, 4, 5)]
    block = nn.BLOCK_ELEMENTS // 256
    rng = np.random.default_rng(6)
    row_sets = [rng.standard_normal((int(b * block), dims[0])) for b in order]
    ensemble = Ensemble(members)
    ws = _CountingWorkspace()
    preds = ensemble.predictions(row_sets, [1, 3], ws)
    assert len(ws.allocated) == 4 and dict(ws.allocated) == {
        0: 1280 * 256, 1: 1280 * 256, 2: 1280 * 10, "sum": 1280 * 10}
    for x, got in zip(row_sets, preds):
        (want,) = ensemble.predictions([x], [1, 3], nn.Workspace())
        np.testing.assert_array_equal(got, want)


def test_prediction_is_permutation_invariant():
    members = _models(4)
    x = np.random.default_rng(2).standard_normal((10, 5))
    a = mean_logits(Ensemble(members), x)
    b = mean_logits(Ensemble(members[::-1]), x)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def test_train_ensemble_member_j_matches_individual_run(train_xy):
    """Lockstep members equal solo 2-D runs bit for bit, fresh and
    fine-tuned, with no hidden layer, one or two hidden layers, and a last
    mini-batch of a single row."""
    x, y = train_xy
    assert len(x) == 140 and 129 % CFG.batch_size == 1
    cases = (([5, 8, 4], 140), ([5, 4], 140), ([5, 8, 6, 4], 140),
             ([5, 8, 4], 129))
    for dims, n in cases:
        xs, ys = x[:n], y[:n]
        starts = [nn.init_model(dims, seed=90 + j) for j in range(3)]
        for init in (None, starts):
            seen, last = [], {}

            def hook(epoch, stack):
                seen.append((epoch, stack.stack_size))
                last["logits"] = sum(nn.batch_logits(stack.member(j), xs)
                                     for j in range(stack.stack_size))

            ens = train_ensemble(dims, xs, ys, CFG, size=3, base_seed=40,
                                 init=init)
            fresh = [nn.init_model(dims, seed=40 + j) for j in range(3)]
            nn.train(nn.stack_models(fresh if init is None else init), xs, ys,
                     make_ce_objective(ys), replace(CFG, seed=40),
                     on_epoch_end=hook)
            for j, member in enumerate(ens.members):
                start = fresh[j] if init is None else init[j]
                solo = nn.train(start, xs, ys, make_ce_objective(ys),
                                replace(CFG, seed=40 + j)).model
                for la, lb in zip(member.layers, solo.layers):
                    np.testing.assert_array_equal(la.weights, lb.weights)
                    np.testing.assert_array_equal(la.bias, lb.bias)
            # the hook runs once per epoch, in order, on the whole stack
            assert seen == [(epoch, 3) for epoch in range(CFG.epochs)]
            # its last view is the returned ensemble, not a stale copy
            np.testing.assert_array_equal(
                last["logits"], sum(nn.batch_logits(m, xs) for m in ens.members))


def test_train_ensemble_with_an_objective_and_a_hook_equals_nn_train(train_xy):
    """Under a focal objective, from given start models and with a per-epoch
    hook, ``train_ensemble`` is ``nn.train`` on the stacked start models
    under the first seed, bit for bit in every member's weights; the hook
    fires once per epoch with the live stack, whose views are returned."""
    x, y = train_xy
    dims = [5, 8, 4]
    old = nn.train(nn.init_model(dims, seed=7), x, y, make_ce_objective(y),
                   replace(CFG, seed=7)).model
    objective = make_objective(
        y, OldModelOracle.from_model(old, x, y),
        PCLossConfig(mode="focal", distance=DistanceSpec("logit_match")))
    init = [nn.init_model(dims, seed=60 + j) for j in range(3)]

    def recorder(log):
        def hook(epoch, stack):
            log.append((epoch, stack, [(l.weights.copy(), l.bias.copy())
                                       for l in stack.layers]))
        return hook

    got, want = [], []
    ens = train_ensemble(dims, x, y, CFG, size=3, base_seed=40, init=init,
                         objective=objective, on_epoch_end=recorder(got))
    ref = nn.train(nn.stack_models(init), x, y, objective, replace(CFG, seed=40),
                   on_epoch_end=recorder(want)).model
    for j, member in enumerate(ens.members):
        for la, lb in zip(member.layers, ref.member(j).layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
    epochs = list(range(CFG.epochs))
    assert [e for e, _, _ in got] == [e for e, _, _ in want] == epochs
    for (_, _, a), (_, _, b) in zip(got, want):
        for (wa, ba), (wb, bb) in zip(a, b):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)
    live = got[0][1]
    assert live.stack_size == 3 and all(stack is live for _, stack, _ in got)
    for j, member in enumerate(ens.members):
        for la, lb in zip(member.layers, live.member(j).layers):
            assert np.shares_memory(la.weights, lb.weights)
    # the objective is used: plain CE from the same start ends elsewhere
    plain = train_ensemble(dims, x, y, CFG, size=3, base_seed=40, init=init)
    assert not np.array_equal(plain.members[0].layers[0].weights,
                              ens.members[0].layers[0].weights)


def test_train_ensemble_rejects_bad_size(train_xy):
    x, y = train_xy
    with pytest.raises(ValueError):
        train_ensemble([5, 4], x, y, CFG, size=0, base_seed=0)
    with pytest.raises(ValueError, match="one model per member"):
        train_ensemble([5, 4], x, y, CFG, size=2, base_seed=0,
                       init=[nn.init_model([5, 4], seed=0)])
    with pytest.raises(nn.DimensionError, match="share layer shapes"):
        train_ensemble([5, 4], x, y, CFG, size=2, base_seed=0,
                       init=[nn.init_model([5, 4], seed=0),
                             nn.init_model([5, 6, 4], seed=1)])


def test_train_ensemble_rejects_init_of_other_dims(train_xy):
    # it once trained and returned members of the init's dims
    x, y = train_xy
    init = [nn.init_model([5, 8, 4], seed=j) for j in range(2)]
    for dims in ([5, 64, 64, 4], [5, 8, 3], [5, 4]):
        with pytest.raises(nn.DimensionError, match=r"init has dims \[5, 8, 4\]"):
            train_ensemble(dims, x, y, CFG, size=2, base_seed=0, init=init)


def test_member_seeds_past_2_64_raise_a_named_error():
    x = np.random.default_rng(0).standard_normal((4, 3))
    y = np.array([0, 1, 0, 1])
    top = 2**64 - 1
    # member 1's init seed, and with init given its shuffle seed, is 2**64
    for init in (None, [nn.init_model([3, 2], seed=0)] * 2):
        with pytest.raises(ValueError, match=f"got {2**64}$"):
            train_ensemble([3, 2], x, y, nn.TrainConfig(epochs=1, seed=top), 2,
                           top, init=init)
    train_ensemble([3, 2], x, y, nn.TrainConfig(epochs=1, seed=top), 1, top)
