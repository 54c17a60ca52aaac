"""Results do not depend on the BLAS thread count.

One small ``run`` config, with ``fd_lm`` and with ``ensemble`` at size 3,
runs in two fresh processes, one at ``OPENBLAS_NUM_THREADS=1`` and one at
2, and every file each writes must be byte-identical. OpenBLAS reads the
variable once, when numpy loads it, so each count needs its own process.
The hidden layers are 256 wide and the new side trains on 2,240 rows, over
2R for a 256-wide layer (R = ``nn.BLOCK_ELEMENTS`` // 256 = 1,024), so the
gemms are large enough to thread and each epoch's scoring of the training
rows spans two row blocks.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
CONFIG = """\
dataset: {k: 10, samples_per_class: 320, seed: 3}
scenario:
  kind: same_arch_retrain
  old_model: {hidden_dims: [256, 256]}
  new_model: {hidden_dims: [256, 256]}
train: {epochs: 2, batch_size: 128, lr_decay_every: 1, seed: 1}
ensemble_size: 3
"""
METHODS = ("fd_lm", "ensemble")
RUN = """\
import sys
from pctlab.cli import main
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    if main(["run", "--config", config, "--out", out]) != 0:
        sys.exit(1)
"""


def _files(root: str) -> dict:
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    args = []
    for method in METHODS:
        config = tmp_path / f"{method}.yaml"
        config.write_text(CONFIG + f"method: {method}\n", encoding="utf-8")
        args += [str(config), method]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", RUN, *args], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(_files(str(root)))
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert {name.split(os.sep)[0] for name in outputs[0]} == set(METHODS)
    for name, data in outputs[0].items():
        assert data == outputs[1][name], name
