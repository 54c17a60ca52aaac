"""Spans around pctlab's public functions, for the traced pass only.

``install`` replaces module attributes of pctlab in the current process
with wrappers that open a span, call the original and close the span.
Nothing under ``src/`` changes; the wrappers live here. Spans are kept in
memory (name, start, end, parent) and written out when the pass ends.

The eight ``kernels`` functions are not wrapped: each takes a few
microseconds, so a span around it would distort the step. Their work is
reported as counts computed from layer shapes instead (``kernels.*``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Dict, List, Sequence

from stats import summarize

# Per-layer metrics of the traced pass, in BENCHMARK.json order.
PER_LAYER = (
    ("nn.train.calls", "count"),
    ("nn.step.count", "count"),
    ("nn.step.us", "us"),
    ("nn.forward.us", "us"),
    ("nn.backward.us", "us"),
    ("nn.update.us", "us"),
    ("nn.gather_loop.us", "us"),
    ("nn.eval_forward.s", "s"),
    ("losses.objective.us", "us"),
    ("rng.shuffle.us", "us"),
    ("harness.eval.s", "s"),
    ("harness.eval.ms_per_epoch", "ms"),
    ("flips.report.us", "us"),
    ("ensembles.train_ensemble.s", "s"),
    ("ensembles.eval.s", "s"),
    ("harness.old_side.s", "s"),
    ("datasets.generate.s", "s"),
    ("scenarios.build.s", "s"),
    ("losses.oracle.s", "s"),
    ("reports.write.s", "s"),
    ("reports.bytes", "bytes"),
    ("reports.files", "count"),
    ("kernels.step_mflop", "MFLOP"),
    ("kernels.step_mb", "MB"),
    ("kernels.step_gflops", "GFLOP/s"),
    ("kernels.eval_mflop_per_epoch", "MFLOP"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

# New-model seeds start this far above the base train seed (harness layout).
OLD_SIDE_SEEDS = 1000


class Tracer:
    """Nested spans of one thread, in parallel lists for low overhead."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.attrs: Dict[int, tuple] = {}
        self._stack: List[int] = []
        self._clock = time.perf_counter_ns

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(self._clock())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = self._clock()
        self._stack.pop()

    def parent_name(self, i: int) -> str:
        p = self.parents[i]
        return self.names[p] if p >= 0 else ""

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return traced

    def write(self, path: str) -> None:
        names = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(names)}
        spans = [[ids[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter_ns", "names": names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))


def _dims(model) -> List[int]:
    return [layer.fan_in for layer in model.layers] + [model.num_classes]


def install(tracer: Tracer) -> None:
    """Wrap the public pctlab calls the workloads reach, in this process."""
    from pctlab import ensembles, harness, losses, nn, reports
    from pctlab.rng import STREAM_SHUFFLE

    plain = [
        (nn, "backward_batch", "nn.backward"),
        (nn, "sgd_step", "nn.update"),
        (harness, "predict_batch", "nn.predict"),
        (harness, "batch_logits", "nn.logits"),
        (ensembles, "batch_logits", "nn.logits"),
        (losses, "batch_logits", "nn.logits"),
        (harness, "report_from_arrays", "flips.report"),
        (ensembles, "report_from_arrays", "flips.report"),
        (harness, "generate", "datasets.generate"),
        (harness, "build_scenario", "scenarios.build"),
        (ensembles, "train_ensemble", "ensembles.train_ensemble"),
        (harness, "sweep_ensemble_size", "ensembles.sweep"),
        (harness, "prepare_scenario", "harness.prepare_scenario"),
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "sweep_ensemble", "harness.sweep_ensemble"),
        (reports, "write_experiment", "reports.write"),
        (reports, "write_ensemble_sweep", "reports.write"),
    ]
    for module, attr, name in plain:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    forward_batch = nn.forward_batch

    def forward(model, x):
        i = tracer.begin("nn.forward")
        if tracer.parent_name(i) != "nn.train":    # evaluation rows
            tracer.attrs[i] = (_dims(model), len(x))
        try:
            return forward_batch(model, x)
        finally:
            tracer.end(i)

    nn.forward_batch = forward

    stream_rng = nn.stream_rng

    class ShuffleStream:
        """Defers the generator so one span covers seeding and permutation."""

        def __init__(self, args):
            self.args = args

        def permutation(self, n):
            i = tracer.begin("rng.shuffle")
            try:
                return stream_rng(*self.args).permutation(n)
            finally:
                tracer.end(i)

    def traced_stream_rng(seed, stream, index=0):
        if stream == STREAM_SHUFFLE:
            return ShuffleStream((seed, stream, index))
        return stream_rng(seed, stream, index)

    nn.stream_rng = traced_stream_rng

    def wrap_train(train):
        def traced_train(model, features, labels, objective, config,
                         on_epoch_end=None):
            i = tracer.begin("nn.train")
            tracer.attrs[i] = (config.seed, _dims(model), len(features),
                               config.batch_size, config.epochs)
            if on_epoch_end is not None:
                on_epoch_end = tracer.wrap("harness.eval", on_epoch_end)
            try:
                return train(model, features, labels, objective, config,
                             on_epoch_end=on_epoch_end)
            finally:
                tracer.end(i)
        return traced_train

    harness.train = wrap_train(harness.train)
    ensembles.train = wrap_train(ensembles.train)

    def wrap_factory(factory):
        def traced_factory(*args, **kwargs):
            return tracer.wrap("losses.objective", factory(*args, **kwargs))
        return traced_factory

    harness.make_objective = wrap_factory(harness.make_objective)
    harness.make_ce_objective = wrap_factory(harness.make_ce_objective)
    ensembles.make_ce_objective = wrap_factory(ensembles.make_ce_objective)

    from_model = losses.OldModelOracle.from_model.__func__
    losses.OldModelOracle.from_model = classmethod(
        tracer.wrap("losses.oracle", from_model))


# ---------------------------------------------------------------------------
# computed operation counts (from shapes; they ignore caches and temporaries)


def forward_flops_per_row(dims: Sequence[int]) -> int:
    """gemm, bias and relu flops of one row's forward pass."""
    layers = list(zip(dims[:-1], dims[1:]))
    return sum(2 * a * b + b for a, b in layers) + sum(dims[1:-1])


def training_counts(dims: Sequence[int], n: int, batch: int, epochs: int) -> tuple:
    """(flops, bytes) of forward, backward and update over a training run.

    Backward computes dW, db and dx for every layer and masks the relu
    gradient; the momentum update does four flops per parameter. Bytes
    assume each operand is read or written once, 8 bytes per value.
    """
    layers = list(zip(dims[:-1], dims[1:]))
    hidden = dims[1:-1]
    params = sum(a * b + b for a, b in layers)
    steps = -(-n // batch) * epochs
    rows = n * epochs
    bwd_row = sum(4 * a * b + b for a, b in layers) + 2 * sum(hidden)
    flops = rows * (forward_flops_per_row(dims) + bwd_row) + steps * 4 * params
    act_row = (sum(a + b for a, b in layers) + 2 * sum(hidden)          # forward
               + sum(2 * a + 3 * b for a, b in layers) + 3 * sum(hidden))  # backward
    weights_step = (params                                # forward reads
                    + sum(2 * a * b + b for a, b in layers)   # backward
                    + 5 * params)                         # update
    return flops, 8 * (rows * act_row + steps * weights_step)


# ---------------------------------------------------------------------------
# aggregation


def layer_metrics(tracer: Tracer, base_seed: int) -> Dict:
    """Per-layer metrics plus the self-time table of one traced child.

    Covers set-up and pass alike. Self time is a span's duration minus the
    durations of its direct children; summed over all spans it equals the
    root spans' total, so nothing is dropped (``trace.unattributed_s`` is
    the roots' own self time).
    """
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    self_ns = [d - c for d, c in zip(dur, child)]

    total = defaultdict(int)
    count = defaultdict(int)
    self_total = defaultdict(int)
    samples = defaultdict(list)
    for i, name in enumerate(names):
        key = name
        if name == "nn.forward" and i in tracer.attrs:   # evaluation rows
            key = "nn.forward(eval)"
        total[key] += dur[i]
        count[key] += 1
        self_total[name] += self_ns[i]
        samples[key].append(dur[i])

    trains = [i for i, n in enumerate(names) if n == "nn.train"]
    steps = count["nn.update"]
    train_ns = sum(dur[i] for i in trains)
    train_self_ns = sum(self_ns[i] for i in trains)
    old_side_ns = sum(dur[i] for i in trains
                      if base_seed <= tracer.attrs[i][0] < base_seed + OLD_SIDE_SEEDS)

    flops = bytes_ = 0
    for i in trains:
        _, dims, n, batch, epochs = tracer.attrs[i]
        f, b = training_counts(dims, n, batch, epochs)
        flops += f
        bytes_ += b

    def in_epoch_eval(i):
        while i >= 0 and names[i] != "harness.eval":
            i = parents[i]
        return i >= 0

    eval_flops = sum(forward_flops_per_row(tracer.attrs[i][0]) * tracer.attrs[i][1]
                     for i, n in enumerate(names)
                     if n == "nn.forward" and i in tracer.attrs and in_epoch_eval(i))

    sweep_ns = sum(dur[i] for i, n in enumerate(names) if n == "ensembles.sweep")
    sweep_train_ns = sum(dur[i] for i, n in enumerate(names)
                         if n == "ensembles.train_ensemble"
                         and names[parents[i]] == "ensembles.sweep")
    step_kernel_ns = total["nn.forward"] + total["nn.backward"] + total["nn.update"]
    roots = [i for i, p in enumerate(parents) if p < 0]

    def per(key, scale=1e-3):
        return total[key] * scale / count[key] if count[key] else 0.0

    metrics = {
        "nn.train.calls": len(trains),
        "nn.step.count": steps,
        "nn.step.us": (train_ns - total["harness.eval"]) / 1e3 / steps if steps else 0.0,
        "nn.forward.us": per("nn.forward"),
        "nn.backward.us": per("nn.backward"),
        "nn.update.us": per("nn.update"),
        "nn.gather_loop.us": train_self_ns / 1e3 / steps if steps else 0.0,
        "nn.eval_forward.s": total["nn.forward(eval)"] / 1e9,
        "losses.objective.us": per("losses.objective"),
        "rng.shuffle.us": per("rng.shuffle"),
        "harness.eval.s": total["harness.eval"] / 1e9,
        "harness.eval.ms_per_epoch": per("harness.eval", 1e-6),
        "flips.report.us": per("flips.report"),
        "ensembles.train_ensemble.s": total["ensembles.train_ensemble"] / 1e9,
        "ensembles.eval.s": (sweep_ns - sweep_train_ns) / 1e9,
        "harness.old_side.s": old_side_ns / 1e9,
        "datasets.generate.s": total["datasets.generate"] / 1e9,
        "scenarios.build.s": total["scenarios.build"] / 1e9,
        "losses.oracle.s": total["losses.oracle"] / 1e9,
        "reports.write.s": total["reports.write"] / 1e9,
        "kernels.step_mflop": flops / 1e6 / steps if steps else 0.0,
        "kernels.step_mb": bytes_ / 1e6 / steps if steps else 0.0,
        "kernels.step_gflops": flops / step_kernel_ns if step_kernel_ns else 0.0,
        "kernels.eval_mflop_per_epoch":
            eval_flops / 1e6 / count["harness.eval"] if count["harness.eval"] else 0.0,
        "trace.wall_s": sum(dur[i] for i in roots) / 1e9,
        "trace.unattributed_s": sum(self_ns[i] for i in roots) / 1e9,
    }
    spans = {key: dict(summarize([d / 1e3 for d in samples[key]]),
                       unit="us", total_s=total[key] / 1e9)
             for key in sorted(samples)}
    self_s = {name: ns / 1e9 for name, ns in sorted(self_total.items())}
    return {"metrics": metrics, "spans": spans, "self_s": self_s}
