"""Config-driven experiment runner.

An ``ExperimentConfig`` fixes a synthetic task, an update scenario, a
training schedule and one of the update methods ``METHODS``:

  no_treatment  plain cross-entropy
  naive         cross-entropy re-weighted on samples the old model got right
  fd_kl         focal distillation, softened-KL distance
  fd_lm         focal distillation, squared logit distance
  ensemble      both sides are logit-averaged ensembles trained under CE

``prepare_scenario`` builds a ``ScenarioState``, whose old sides score
every new side, and ``run_experiment`` runs one experiment on it;
``compare_methods``, ``sweep_focal`` and ``sweep_ensemble`` run several.
The ensemble sweep runs on a ``ScenarioState`` of its own, so its L row is
the ``ensemble`` method's repetition 0 for a full-data scenario.
``model_seed`` lays out every seed. ``EpochMetrics``, ``MethodRow``,
``FocalSweepRow`` and ``SweepRow`` are the rows of the epoch series,
comparison, focal-sweep and ensemble-sweep tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import ensembles
from .datasets import SyntheticSpec, generate
from .ensembles import Ensemble
from .flips import FlipReport, report_from_arrays
# tracer-only imports: see tests/test_package.py::TRACER_ONLY_IMPORTS
from .losses import (FilterSpec, OldModelOracle, PCLossConfig, make_ce_objective,
                     make_objective)
from .nn import (MLPModel, TrainConfig, Workspace, batch_logits, predict_batch,
                 train)
from .rng import SEED_LIMIT
from .scenarios import (ScenarioKind, ScenarioPlan, UpdateScenario,
                        build_scenario, reference_scenario)
from .tables import Table, check_fields, check_value

METHODS = ("no_treatment", "naive", "fd_kl", "fd_lm", "ensemble")

NEW_MODEL_SEED_OFFSET = 1000
ENSEMBLE_SEED_OFFSET = 100_000
ENSEMBLE_REP_STRIDE = 1000
MAX_REPETITIONS = ENSEMBLE_SEED_OFFSET - NEW_MODEL_SEED_OFFSET
# at most this many repetitions share one weight stack, so memory stays flat
# in the repetition count
REPETITION_STACK = 16


def model_seed(base_seed: int, role: str, rep: int = 0, member: int = 0) -> int:
    """Seed of one model by role, for repetition ``rep`` and member j:

      "old"         base + j                       old model, or old member j
      "new"         base + 1000 + rep              new model
      "new_member"  base + 100000 + 1000*rep + j   new ensemble member j

    Within the bounds that ``ExperimentConfig`` enforces the ranges are
    disjoint, so old and new models never share an initialisation or
    shuffle stream. A stack trained from the member-0 seed gives member j
    the seed of ``member=j`` (``ensembles.train_ensemble``)."""
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
    """One experiment; ``method`` sets ``pc.mode`` (``pc_config_for_method``).
    The bounds keep ``model_seed``'s ranges disjoint and every seed below
    2**64: ``ensemble_size`` below ``ENSEMBLE_REP_STRIDE``, ``repetitions``
    at most ``MAX_REPETITIONS``, and ``train.seed`` below 2**64 minus the
    layout's largest offset, 99,099,999."""
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
        check_fields(self)
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
    """Every repetition's run, and the held-out error and parameter count
    of the one old side that every run scores against."""
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
    vals = sorted(float(v) for v in values)
    # statistics.median's rule; np.median would load numpy.ma
    mid = len(vals) // 2
    median = vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2
    return {"median": median, "min": min(vals), "max": max(vals)}


@dataclass
class OldReference:
    """An old side's predictions, mapped by ``plan.old_to_new`` into the new
    model's label space, on the eval set and on the new job's rows."""
    eval_preds: np.ndarray
    train_preds: np.ndarray

    @classmethod
    def of(cls, old: Ensemble, plan: ScenarioPlan,
           oracle: Optional[OldModelOracle]) -> "OldReference":
        """``old``'s predictions on ``plan``; on the new job's rows, those of
        ``oracle`` if given, so that a PC run forwards those rows once."""
        rows = [plan.eval_plan.features]
        if oracle is None:
            rows.insert(0, plan.new_job.features)
        preds = [plan.old_to_new[p] for (p,) in
                 old.predictions(rows, [old.size], Workspace())]
        return cls(preds[-1], preds[0] if oracle is None else oracle.old_pred)

    def score(self, members: Sequence[MLPModel], plan: ScenarioPlan,
              workspace: Workspace,
              epoch: int) -> Tuple[EpochMetrics, FlipReport]:
        """Epoch ``epoch``'s metrics and held-out report of ``members``,
        scored as one ensemble in ``workspace`` against this old side: on
        the new job's rows and on the plan's eval set."""
        new, job, ep = Ensemble(list(members)), plan.new_job, plan.eval_plan
        (on_job,), (on_eval,) = new.predictions([job.features, ep.features],
                                                [new.size], workspace)
        on_train = report_from_arrays(job.labels, self.train_preds, on_job)
        report = report_from_arrays(ep.labels, self.eval_preds, on_eval)
        return EpochMetrics(epoch + 1, on_train.er_new, report.er_new,
                            report.nfr, report.rel_nfr, on_train.nfr), report


@dataclass
class ScenarioState:
    """Shared per-scenario work: the plan, whose jobs hold each side's
    training rows, and the trained old sides, so that every method run on
    one state scores against the bit-identical old side. ``spec``,
    ``scenario`` and ``train`` record what the state was prepared with.
    ``old_sides`` maps a member count L to its old ``Ensemble``, which
    ``old_side(L)`` trains under ``train`` on a miss and checks with
    ``ensembles.check_old_side``; L = 1, the single old model, also serves
    the ``ensemble`` method at size 1."""
    plan: ScenarioPlan
    spec: SyntheticSpec
    scenario: UpdateScenario
    train: TrainConfig
    old_sides: Dict[int, Ensemble] = field(default_factory=dict)

    def old_side(self, members: int = 1) -> Ensemble:
        old = self.old_sides.get(members)
        if old is None:
            job = self.plan.old_job
            with np.errstate(all="ignore"):  # check_old_side reports a divergence
                old = ensembles.train_ensemble(
                    job.dims, job.features, job.labels, self.train, members,
                    model_seed(self.train.seed, "old"))
            ensembles.check_old_side(old)
            self.old_sides[members] = old
        return old

    def check(self, config: ExperimentConfig) -> None:
        """Raise ValueError unless ``config`` has this state's dataset,
        scenario and training schedule: any other would score the new side
        against an old side trained on other data or another schedule."""
        for name, mine, theirs in (("dataset", self.spec, config.dataset),
                                   ("scenario", self.scenario, config.scenario),
                                   ("train", self.train, config.train)):
            if mine != theirs:
                raise ValueError(f"config.{name} differs from the one the "
                                 "scenario state was prepared with")


def prepare_scenario(config: ExperimentConfig) -> ScenarioState:
    """Generate the dataset and resolve the scenario; the plan keeps each
    side's rows, and the dataset is freed on return. The single old model
    trains here when ``config.method`` reads it (every method but
    ``ensemble``); any other old side trains on first use, so an
    ``ensemble`` run trains no old side it does not score against. It
    builds no prediction and no oracle: each run builds its own."""
    plan = build_scenario(config.scenario, generate(config.dataset))
    state = ScenarioState(plan, config.dataset, config.scenario, config.train)
    if config.method != "ensemble":
        state.old_side(1)
    return state


def run_experiment(config: ExperimentConfig,
                   state: Optional[ScenarioState] = None) -> ExperimentResult:
    """Run one experiment on ``state``, which ``state.check`` must accept,
    or on a fresh ``prepare_scenario(config)``. It builds the
    ``OldReference`` it scores against and, in a PC mode only, the
    ``OldModelOracle`` its objective reads.

    Repetition r is a group of L members, L = ``ensemble_size`` for
    ``ensemble`` and 1 otherwise, seeded by ``model_seed``. One weight stack
    of consecutive seeds, trained by ``ensembles.train_ensemble``, holds one
    ensemble repetition or up to ``REPETITION_STACK`` others. Each group is
    scored after every epoch, or once on its init when there are no epochs,
    in a fresh ``Workspace`` per epoch, so that the scoring buffers die
    before the next epoch trains."""
    if state is None:
        state = prepare_scenario(config)
    state.check(config)
    plan = state.plan
    if config.method == "ensemble":
        size, per_stack, role = config.ensemble_size, 1, "new_member"
    else:
        size, per_stack, role = 1, REPETITION_STACK, "new"
    old = state.old_side(size)
    x, y = plan.new_job.features, plan.new_job.labels
    # a PC mode implies a single old model (pc_config_for_method)
    oracle = (OldModelOracle.from_model(old.members[0], x, y,
                                        class_map=plan.old_to_new)
              if config.pc.mode != "none" else None)
    reference = OldReference.of(old, plan, oracle)
    objective = make_objective(y, oracle, config.pc)

    runs = []
    for r0 in range(0, config.repetitions, per_stack):
        reps = range(r0, min(r0 + per_stack, config.repetitions))
        series = [[] for _ in reps]
        finals = [None] * len(reps)

        def score(epoch, members):
            workspace = Workspace()
            for g in range(len(reps)):
                row, finals[g] = reference.score(
                    members[g * size:(g + 1) * size], plan, workspace, epoch)
                series[g].append(row)

        def hook(e, stack):
            score(e, [stack.member(j) for j in range(size * len(reps))])

        members = ensembles.train_ensemble(
            plan.new_job.dims, x, y, config.train, size * len(reps),
            model_seed(config.train.seed, role, r0), objective=objective,
            init=old.members * len(reps) if config.scenario.init_from_old else None,
            on_epoch_end=hook).members
        if config.train.epochs == 0:  # no epoch ends: score the init
            score(-1, members)
        for g, rep in enumerate(reps):
            group = members[g * size:(g + 1) * size]
            runs.append(RunArtifacts(rep, model_seed(config.train.seed, role, rep),
                                     Ensemble(group).parameter_count(),
                                     series[g], finals[g]))
    return ExperimentResult(config, runs[0].final.er_old,
                            old.parameter_count(), runs)


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


def _run_each(name: str, keys: list, configs: List[ExperimentConfig],
              state: Optional[ScenarioState]) -> dict:
    """Run ``configs[i]`` under ``keys[i]`` on one state, ``state`` or one
    prepared for the first config, so that every run scores against the
    same old side; the results keyed in input order. An empty or repeated
    key list raises ValueError before anything trains."""
    if not keys or len(set(keys)) != len(keys):
        raise ValueError(f"{name} must be non-empty and unique")
    if state is None:
        state = prepare_scenario(configs[0])
    return {k: run_experiment(c, state) for k, c in zip(keys, configs)}


def compare_methods(config: ExperimentConfig,
                    methods: Sequence[str] = METHODS,
                    state: Optional[ScenarioState] = None) -> Table:
    """Run each method on one state: a ``MethodRow`` of medians each, and
    the full results keyed by method name."""
    # an unknown method fails here, before anything trains
    configs = [replace(config, method=m) for m in methods]
    results = _run_each("methods", [c.method for c in configs], configs, state)
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
    # a bad pair fails here, before anything trains
    filters = [FilterSpec(a, b) for a, b in grid]
    configs = [replace(config, pc=replace(config.pc, filter=f)) for f in filters]
    results = _run_each("grid", [(f.alpha, f.beta) for f in filters], configs,
                        state)
    medians = map(MethodRow.of, results.values())
    return Table([FocalSweepRow(a, b, m.er_new, m.nfr, m.rel_nfr)
                  for (a, b), m in zip(results, medians)], results)


@dataclass(frozen=True)
class SweepRow:
    size: int = field(metadata={"key": "L"})
    er_old: float
    er_new: float
    nfr: float
    rel_nfr: Optional[float]


def sweep_ensemble_size(state: ScenarioState, sizes: Sequence[int]) -> Table:
    """One ``SweepRow`` per size L of the strictly ascending ``sizes``. The
    old side is ``state.old_side(max(sizes))`` and the new side one stack
    of as many members, seeded as the ``ensemble`` method's repetition 0;
    each side's first L members are the ensemble that side trains at size
    L, and both are scored on the eval set at every L in one pass."""
    plan, top = state.plan, sizes[-1]
    old, job = state.old_side(top), plan.new_job
    new = ensembles.train_ensemble(job.dims, job.features, job.labels,
                                   state.train, top,
                                   model_seed(state.train.seed, "new_member"))
    ep, workspace = plan.eval_plan, Workspace()
    old_preds = plan.old_to_new[old.predictions([ep.features], sizes, workspace)[0]]
    (new_preds,) = new.predictions([ep.features], sizes, workspace)
    rows = []
    for size, old_row, new_row in zip(sizes, old_preds, new_preds):
        report = report_from_arrays(ep.labels, old_row, new_row)
        rows.append(SweepRow(size, report.er_old, report.er_new, report.nfr,
                             report.rel_nfr))
    return Table(rows)


def sweep_ensemble(config: ExperimentConfig, sizes: Sequence[int],
                   max_workers: int = 1) -> Table:
    """Flip metrics versus ensemble size: ``sweep_ensemble_size`` on a state
    prepared for the config's two architectures with full data on both
    sides and no fine-tune, so that size is the only variable. Sizes that
    are not ints, not strictly ascending, or outside ``ExperimentConfig``'s
    ``ensemble_size`` bound raise ValueError before anything trains.
    ``max_workers`` is ignored, since each side trains as one stack;
    pctbench/workloads.py still passes it."""
    sizes = list(check_value(Tuple[int, ...], list(sizes), "ensemble sizes"))
    if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending and >= 1")
    if sizes[-1] >= ENSEMBLE_REP_STRIDE:
        raise ValueError(f"ensemble sizes must be below {ENSEMBLE_REP_STRIDE}")
    s = config.scenario
    # build_scenario never reads the kind; this one accepts any two specs
    # on full data, which fine_tune and class_growth would reject
    full_data = UpdateScenario(ScenarioKind.ARCH_CHANGE, s.old_model, s.new_model)
    return sweep_ensemble_size(prepare_scenario(
        replace(config, method="ensemble", scenario=full_data)), sizes)
