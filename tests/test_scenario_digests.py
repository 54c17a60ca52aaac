"""Byte-identity of ``run``'s files for every scenario kind, at tiny size.

The bench gate (``test_bench_gate.py``) runs only ``same_arch_retrain`` and
``arch_change``. Here each of the six reference kinds, plus one custom
scenario with class subsets and different sample fractions on both sides
and two hidden layers, runs with ``fd_lm`` (one old model and the oracle's
class map) and with ``ensemble`` at size 3 (an old side of several
members). Every file that ``run`` writes is hashed and compared with
``tests/data/scenario_digests.json``.

Record the digests again only when an output is meant to move:
``PYTHONPATH=src python tests/test_scenario_digests.py --record``.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from pctlab import reports
from pctlab.datasets import SyntheticSpec
from pctlab.harness import ExperimentConfig, run_experiment
from pctlab.nn import TrainConfig
from pctlab.scenarios import (DataFilter, ModelSpec, ScenarioKind,
                              UpdateScenario, reference_scenario)

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "scenario_digests.json")
SPEC = SyntheticSpec(num_classes=6, samples_per_class=80)
TRAIN = TrainConfig(epochs=3, batch_size=32, seed=5)
CUSTOM = UpdateScenario(
    ScenarioKind.CLASS_GROWTH,
    old_model=ModelSpec(hidden_dims=(12, 8)),
    new_model=ModelSpec(hidden_dims=(16, 12)),
    old_data=DataFilter(sample_fraction=0.6, class_subset=(0, 2, 3),
                        subset_seed=4),
    new_data=DataFilter(sample_fraction=0.8, class_subset=(0, 1, 2, 3, 5),
                        subset_seed=9))
SCENARIOS = {**{kind.value: reference_scenario(kind, SPEC.num_classes)
                for kind in ScenarioKind},
             "custom_subsets": CUSTOM}
METHODS = ("fd_lm", "ensemble")
CASES = [f"{name}/{method}" for name in SCENARIOS for method in METHODS]


def _digests(case: str, out_dir: str) -> dict:
    """sha256 of every file ``run`` writes for ``case``, by file name."""
    name, method = case.split("/")
    config = ExperimentConfig(dataset=SPEC, scenario=SCENARIOS[name],
                              train=TRAIN, method=method, ensemble_size=3,
                              repetitions=2)
    files = reports.write_experiment(run_experiment(config), out_dir, "csv")
    digests = {}
    for path in files:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("case", CASES)
def test_run_outputs_match_recorded_digests(case, tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)[case]
    assert _digests(case, str(tmp_path)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_scenario_digests.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case: _digests(case, os.path.join(tmp, case))
                    for case in CASES}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
