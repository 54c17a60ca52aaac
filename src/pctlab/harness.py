"""Config-driven experiment runner.

An experiment fixes a synthetic task, an update scenario, a training
schedule, and one update method. Running it trains the old side once,
trains the new side under the method's objective (repeated across seeds),
and scores the new side against the old side after every epoch.
Every rate is a ``flips.FlipReport`` field, and ``old_side(L).score`` makes
each comparison: it scores L new members as one ``Ensemble``, the argmax of
their logits summed in member order, against the old side's cached
predictions. It returns the epoch's ``EpochMetrics``, whose ``er_train``
and ``nfr_train`` come from the training rows' report, and the held-out
report. A run keeps its rows and its last held-out report, whose
``er_old`` is ``ExperimentResult.er_old``: every run shares one old side.

``run_experiment`` holds the one run loop for all five methods. Each
repetition is a group of L members, L = ``ensemble_size`` for ``ensemble``
and 1 for every other method, scored into a plain list after every epoch,
or once on its init when there are no epochs. A weight stack holds one
ensemble repetition, or up to ``REPETITION_STACK`` repetitions of a
single-model method. Its member seeds are consecutive, so
``ensembles.train_ensemble``, the trainer of every weight stack, old sides
included, trains it in lockstep from its first seed.

A ``ScenarioState`` holds the dataset, the plan and the old sides, one per
member count L, each trained on first use under the state's
``TrainConfig``. The plan's jobs hold row indices, so each side's training
features are gathered from the dataset where they are needed, and every
prediction is scored in the new model's label space. L = 1 is the single
old model; the ``ensemble`` method at size 1 reuses it, since an ensemble
of one is that model.
``prepare_scenario`` trains L = 1 only for the four single-model methods,
so an ``ensemble`` run trains no old side it does not score against. A
state serves only configs with its dataset, scenario and training
schedule; ``run_experiment`` rejects any other, which would score the new
side against an old side trained on other data or another schedule.
An old side whose trained weights are not finite is a ValueError that
names the member, since every flip would be scored against a model that
predicts class 0.

Scoring runs its forwards in ``nn.Workspace`` buffers that live for one
epoch. ``run_experiment``'s epoch hook scores every group of the epoch in
one fresh workspace, which ``ensembles.scoring_workspace`` sizes for the
longest row block of the new job's rows and the held-out rows, so no
buffer grows while the epoch is scored; it dies when the hook returns.
The old side scores in a workspace of its own. So the scoring buffers and
the training steps' arrays take turns in the same heap memory instead of
both staying resident.
``Ensemble.predict_batch`` scores in even row blocks, each block through
every member in turn, so the hidden layers', the logits' and the member
sum's buffers all hold one block, a few MB whatever the row count; only
the integer predictions span every scored row.

``EpochMetrics``, ``MethodRow`` and ``FocalSweepRow`` are the row classes
of the epoch series, comparison and focal-sweep ``tables.Table``s.

Update methods
  no_treatment  plain cross-entropy
  naive         cross-entropy re-weighted on samples the old model got right
  fd_kl         focal distillation, softened-KL distance
  fd_lm         focal distillation, squared logit distance
  ensemble      both sides are logit-averaged ensembles trained under CE

Seed layout (relative to the configured base seed), all from ``model_seed``
  base + j                        old model (member j for ensembles)
  base + 1000 + r                 new model, repetition r
  base + 100000 + 1000*r + j      new ensemble member j, repetition r
The ranges stay disjoint because ExperimentConfig bounds ensemble sizes
below 1000 and repetitions to at most 99000, and ``sweep_ensemble`` bounds
its sizes below 1000 too, so old and new models never share an
initialisation or shuffle stream. The largest seed of the layout is
base + 99,099,999, so ExperimentConfig bounds the base seed to keep it
below 2**64, the range of a Philox key word.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import ensembles
from .datasets import Dataset, SyntheticSpec, generate
from .ensembles import Ensemble, sweep_ensemble_size
from .flips import FlipReport, report_from_arrays
# make_ce_objective, batch_logits, predict_batch and train are not called here;
# they stay importable because pctbench/tracing.py wraps them by name
from .losses import (FilterSpec, OldModelOracle, PCLossConfig, make_ce_objective,
                     make_objective)
from .nn import (MLPModel, TrainConfig, Workspace, batch_logits, predict_batch,
                 train)
from .rng import SEED_LIMIT
from .scenarios import (ScenarioKind, ScenarioPlan, UpdateScenario,
                        build_scenario, reference_scenario)
from .tables import Table

METHODS = ("no_treatment", "naive", "fd_kl", "fd_lm", "ensemble")

NEW_MODEL_SEED_OFFSET = 1000
ENSEMBLE_SEED_OFFSET = 100_000
ENSEMBLE_REP_STRIDE = 1000
MAX_REPETITIONS = ENSEMBLE_SEED_OFFSET - NEW_MODEL_SEED_OFFSET
# at most this many repetitions share one weight stack, so memory stays flat
# in the repetition count
REPETITION_STACK = 16


def model_seed(base_seed: int, role: str, rep: int = 0, member: int = 0) -> int:
    """Seed of one model in the module docstring's layout: role "old" (old
    member), "new" (new model of repetition ``rep``) or "new_member" (member
    of repetition ``rep``'s new ensemble). Member j of an ensemble trained
    from the member-0 seed gets the seed of ``member=j``."""
    if role == "old":
        return base_seed + member
    if role == "new":
        return base_seed + NEW_MODEL_SEED_OFFSET + rep
    if role == "new_member":
        return base_seed + ENSEMBLE_SEED_OFFSET + rep * ENSEMBLE_REP_STRIDE + member
    raise ValueError(f"unknown seed role {role!r}")


def pc_config_for_method(method: str, base: Optional[PCLossConfig] = None) -> PCLossConfig:
    """PC-loss settings implied by a method name, keeping base hyperparameters."""
    base = base if base is not None else PCLossConfig()
    if method in ("no_treatment", "ensemble"):
        return replace(base, mode="none")
    if method == "naive":
        return replace(base, mode="naive")
    if method == "fd_kl":
        return replace(base, mode="focal",
                       distance=replace(base.distance, kind="kl"))
    if method == "fd_lm":
        return replace(base, mode="focal",
                       distance=replace(base.distance, kind="logit_match"))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticSpec = field(default_factory=SyntheticSpec)
    scenario: UpdateScenario = field(
        default_factory=lambda: reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN))
    train: TrainConfig = field(default_factory=TrainConfig)
    method: str = "no_treatment"
    pc: PCLossConfig = field(default_factory=PCLossConfig)
    ensemble_size: int = 16
    repetitions: int = 1
    output_dir: Optional[str] = None

    def __post_init__(self):
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must be in [1, {MAX_REPETITIONS}]")
        if not 1 <= self.ensemble_size < ENSEMBLE_REP_STRIDE:
            raise ValueError(f"ensemble_size must be in [1, {ENSEMBLE_REP_STRIDE})")
        # the last member of the last repetition has the layout's largest seed
        top = model_seed(0, "new_member", MAX_REPETITIONS - 1,
                         ENSEMBLE_REP_STRIDE - 1)
        if self.train.seed >= SEED_LIMIT - top:
            raise ValueError(f"train.seed must be below 2**64 - {top}, the "
                             f"largest seed offset, got {self.train.seed}")
        # the method determines the PC mode; hyperparameters come from `pc`
        object.__setattr__(self, "pc", pc_config_for_method(self.method, self.pc))


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    er_train: float
    er_val: float
    nfr_val: float
    rel_nfr_val: Optional[float]
    nfr_train: float


@dataclass
class RunArtifacts:
    """One new-model training run: per-epoch series plus the final report."""
    repetition: int
    seed: int
    param_count: int
    epochs: List[EpochMetrics]
    final: FlipReport


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    er_old: float
    old_param_count: int
    runs: List[RunArtifacts]

    def summary(self) -> dict:
        finals = [r.final for r in self.runs]
        return {
            "method": self.config.method,
            "repetitions": len(self.runs),
            "er_old": self.er_old,
            "old_param_count": self.old_param_count,
            "new_param_count": self.runs[0].param_count,
            "er_new": _stats([f.er_new for f in finals]),
            "nfr": _stats([f.nfr for f in finals]),
            "pfr": _stats([f.pfr for f in finals]),
            "rel_nfr": _stats([f.rel_nfr for f in finals]),
        }


def _stats(values: Sequence[Optional[float]]) -> dict:
    if any(v is None for v in values):
        return {"median": None, "min": None, "max": None}
    vals = [float(v) for v in values]
    return {"median": float(statistics.median(vals)),
            "min": min(vals), "max": max(vals)}


@dataclass
class OldReference:
    """Frozen old side of an update: its ensemble plus cached predictions."""
    ensemble: Ensemble
    eval_preds: np.ndarray
    train_preds: np.ndarray
    oracle: Optional[OldModelOracle]

    def score(self, members: Sequence[MLPModel], x: np.ndarray,
              plan: ScenarioPlan, workspace: Workspace,
              epoch: int) -> Tuple[EpochMetrics, FlipReport]:
        """Epoch ``epoch``'s metrics and held-out report of ``members``,
        scored as one ensemble in ``workspace`` against this old side: on
        the new job's rows ``x`` and on the plan's eval set."""
        new = Ensemble(list(members))
        on_train = report_from_arrays(plan.new_job.labels, self.train_preds,
                                      new.predict_batch(x, workspace))
        ep = plan.eval_plan
        report = report_from_arrays(ep.labels, self.eval_preds,
                                    new.predict_batch(ep.features, workspace))
        return EpochMetrics(epoch + 1, on_train.er_new, report.er_new,
                            report.nfr, report.rel_nfr, on_train.nfr), report


@dataclass
class ScenarioState:
    """Shared per-scenario work: the dataset, the plan, and the old sides.

    Passing one state to several run_experiment calls guarantees every
    method is scored against the bit-identical old side. ``spec``,
    ``scenario`` and ``train`` record what the state was prepared with.
    ``old_sides`` maps a member count L to its old side, which
    ``old_side(L)`` trains on a miss.
    """
    dataset: Dataset
    plan: ScenarioPlan
    spec: SyntheticSpec
    scenario: UpdateScenario
    train: TrainConfig
    old_sides: Dict[int, OldReference] = field(default_factory=dict)

    def old_side(self, members: int = 1) -> OldReference:
        old = self.old_sides.get(members)
        if old is None:
            old = self.old_sides[members] = _build_old_reference(
                self.dataset, self.plan, self.train, members)
        return old

    def check(self, config: ExperimentConfig) -> None:
        """Raise ValueError unless ``config`` has this state's dataset,
        scenario and training schedule."""
        for name, mine, theirs in (("dataset", self.spec, config.dataset),
                                   ("scenario", self.scenario, config.scenario),
                                   ("train", self.train, config.train)):
            if mine != theirs:
                raise ValueError(f"config.{name} differs from the one the "
                                 "scenario state was prepared with")


def _build_old_reference(dataset: Dataset, plan: ScenarioPlan,
                         train_cfg: TrainConfig, members: int) -> OldReference:
    """Train the old side (`members` CE-trained models) on the old job's rows
    and cache its predictions, mapped by ``plan.old_to_new`` into the new
    model's label space, on the new job's rows and the eval set, evaluated
    in a workspace that dies on return. A single model also gets the oracle
    the PC objectives read; its predictions on the new job's rows are the
    oracle's."""
    old_job, new_job = plan.old_job, plan.new_job
    with np.errstate(all="ignore"):     # check_old_side reports a divergence
        old = ensembles.train_ensemble(
            old_job.dims, dataset.features[old_job.rows], old_job.labels,
            train_cfg, members, model_seed(train_cfg.seed, "old"))
    ensembles.check_old_side(old)

    xt, workspace = dataset.features[new_job.rows], Workspace()
    if members == 1:
        oracle = OldModelOracle.from_model(old.members[0], xt, new_job.labels,
                                           class_map=plan.old_to_new)
        train_preds = oracle.old_pred
    else:
        oracle = None
        train_preds = plan.old_to_new[old.predict_batch(xt, workspace)]

    ep = plan.eval_plan
    eval_preds = plan.old_to_new[old.predict_batch(ep.features, workspace)]
    return OldReference(old, eval_preds, train_preds, oracle)


def prepare_scenario(config: ExperimentConfig) -> ScenarioState:
    """Generate the dataset and resolve the scenario. The single old model
    trains here when ``config.method`` reads it (every method but
    ``ensemble``); any other old side trains on first use."""
    dataset = generate(config.dataset)
    plan = build_scenario(config.scenario, dataset)
    state = ScenarioState(dataset, plan, config.dataset, config.scenario,
                          config.train)
    if config.method != "ensemble":
        state.old_side(1)
    return state


def run_experiment(config: ExperimentConfig,
                   state: Optional[ScenarioState] = None) -> ExperimentResult:
    """Run one experiment; reuses `state` (dataset + old sides) when given,
    and raises ValueError if it was prepared for another dataset, scenario
    or training schedule.

    Repetition r is a group of L members (module docstring) with
    consecutive seeds: ``model_seed(base, "new", r)`` when L = 1, else
    ``model_seed(base, "new_member", r, j)`` for member j. A stack trains
    through ``ensembles.train_ensemble`` from its first member's seed, which
    gives stack member i that seed + i for its init and its shuffle, so every
    member ends bit for bit where training it alone would leave it.
    """
    if state is None:
        state = prepare_scenario(config)
    state.check(config)
    plan = state.plan
    if config.method == "ensemble":
        size, per_stack, role = config.ensemble_size, 1, "new_member"
    else:
        size, per_stack, role = 1, REPETITION_STACK, "new"
    old = state.old_side(size)
    x, y = state.dataset.features[plan.new_job.rows], plan.new_job.labels
    objective = make_objective(y, old.oracle, config.pc)

    runs = []
    for r0 in range(0, config.repetitions, per_stack):
        reps = range(r0, min(r0 + per_stack, config.repetitions))
        series = [[] for _ in reps]
        finals = [None] * len(reps)

        def score(epoch, members):
            # one workspace scores every group, and dies before the next epoch
            workspace = ensembles.scoring_workspace(
                members[0], len(x), len(plan.eval_plan.labels))
            for g in range(len(reps)):
                row, finals[g] = old.score(members[g * size:(g + 1) * size],
                                           x, plan, workspace, epoch)
                series[g].append(row)

        def hook(e, stack):
            score(e, [stack.member(j) for j in range(size * len(reps))])

        members = ensembles.train_ensemble(
            plan.new_job.dims, x, y, config.train, size * len(reps),
            model_seed(config.train.seed, role, r0), objective=objective,
            init=old.ensemble.members * len(reps) if plan.init_from_old else None,
            on_epoch_end=hook).members
        if config.train.epochs == 0:  # no epoch ends: score the init
            score(-1, members)
        for g, rep in enumerate(reps):
            group = members[g * size:(g + 1) * size]
            runs.append(RunArtifacts(rep, model_seed(config.train.seed, role, rep),
                                     Ensemble(group).parameter_count(),
                                     series[g], finals[g]))
    return ExperimentResult(config, runs[0].final.er_old,
                            old.ensemble.parameter_count(), runs)


# ---------------------------------------------------------------------------
# method comparison and sweeps


@dataclass(frozen=True)
class MethodRow:
    method: str
    er_old: float
    er_new: float
    nfr: float
    rel_nfr: Optional[float]
    param_count: int = field(metadata={"key": "n_params"})

    @classmethod
    def of(cls, result: ExperimentResult) -> "MethodRow":
        """The result's medians across repetitions."""
        s = result.summary()
        return cls(s["method"], s["er_old"], s["er_new"]["median"],
                   s["nfr"]["median"], s["rel_nfr"]["median"],
                   s["new_param_count"])


def compare_methods(config: ExperimentConfig,
                    methods: Sequence[str] = METHODS,
                    state: Optional[ScenarioState] = None) -> Table:
    """Run each method on the same scenario against the same old model.

    Medians across repetitions land in the table as ``MethodRow``s; full
    results stay in ``results`` keyed by method name.
    """
    methods = list(methods)
    if not methods or len(set(methods)) != len(methods):
        raise ValueError("methods must be non-empty and unique")
    # an unknown method fails here, before anything trains
    configs = [replace(config, method=m) for m in methods]
    if state is None:
        state = prepare_scenario(configs[0])

    results = {c.method: run_experiment(c, state) for c in configs}
    return Table([MethodRow.of(r) for r in results.values()], results)


@dataclass(frozen=True)
class FocalSweepRow:
    alpha: float
    beta: float
    er_new: float
    nfr: float
    rel_nfr: Optional[float]


def sweep_focal(config: ExperimentConfig,
                grid: Sequence[Tuple[float, float]],
                state: Optional[ScenarioState] = None) -> Table:
    """Re-run a focal-distillation experiment for each (alpha, beta) pair:
    one ``FocalSweepRow`` each, full results keyed by the pair."""
    if config.pc.mode != "focal":
        raise ValueError("focal sweep needs method fd_kl or fd_lm")
    grid = [(float(a), float(b)) for a, b in grid]
    if not grid or len(set(grid)) != len(grid):
        raise ValueError("grid must be non-empty and unique")
    # a bad pair fails here, before anything trains
    configs = [replace(config, pc=replace(config.pc, filter=FilterSpec(a, b)))
               for a, b in grid]
    if state is None:
        state = prepare_scenario(config)

    rows, results = [], {}
    for (a, b), cfg in zip(grid, configs):
        res = results[(a, b)] = run_experiment(cfg, state)
        s = res.summary()
        rows.append(FocalSweepRow(a, b, s["er_new"]["median"],
                                  s["nfr"]["median"], s["rel_nfr"]["median"]))
    return Table(rows, results)


def sweep_ensemble(config: ExperimentConfig, sizes: Sequence[int],
                   max_workers: int = 1) -> Table:
    """Flip metrics versus ensemble size, on the full training split.

    Both sides use the scenario's architectures and the full data so that
    size is the only variable. Sizes must be below ``ENSEMBLE_REP_STRIDE``,
    the bound ExperimentConfig puts on ``ensemble_size``, so both sides keep
    to the seed layout of the module docstring; a larger size raises
    ValueError before anything trains. Each side's members train in
    lockstep as one stack: ``max_workers`` is accepted and ignored, because
    pctbench/workloads.py still passes ``max_workers=1``.
    """
    if any(int(s) >= ENSEMBLE_REP_STRIDE for s in sizes):
        raise ValueError(f"ensemble sizes must be below {ENSEMBLE_REP_STRIDE}")
    dataset = generate(config.dataset)
    old_dims = config.scenario.old_model.dims(dataset.input_dim, dataset.num_classes)
    new_dims = config.scenario.new_model.dims(dataset.input_dim, dataset.num_classes)
    base = config.train.seed
    return sweep_ensemble_size(old_dims, new_dims, dataset, config.train, sizes,
                               model_seed(base, "old"),
                               model_seed(base, "new_member"))
