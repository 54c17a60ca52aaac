"""Shared fixtures: a small, fast task for the unit tests, and the tiny
benchmark passes run beside them.

The reference-scale task (10 classes, 5000 samples, 30 epochs) only runs
in the acceptance suite; everything else uses this miniature so the whole
unit layer stays in the seconds range.

Each ``tiny_run`` test checks one ``pctbench/run.py --size tiny`` pass. A
pass runs in a process of its own, so every pass the session collects
starts when the session starts, on all cores but one, while the
in-process tests run on the core that is left; the ``tiny_run`` tests run
last.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pctlab.datasets import SyntheticSpec
from pctlab.harness import ExperimentConfig, prepare_scenario
from pctlab.nn import TrainConfig
from pctlab.scenarios import ScenarioKind, reference_scenario

SMALL_SPEC = SyntheticSpec(num_classes=5, input_dim=8, samples_per_class=80,
                           cluster_spread=1.2, seed=11)
SMALL_TRAIN = TrainConfig(epochs=6, batch_size=32, seed=3)


@pytest.fixture(scope="session")
def small_config():
    return ExperimentConfig(
        dataset=SMALL_SPEC,
        scenario=reference_scenario(ScenarioKind.SAME_ARCH_RETRAIN,
                                    SMALL_SPEC.num_classes),
        train=SMALL_TRAIN,
        method="fd_lm",
        repetitions=2,
    )


@pytest.fixture(scope="session")
def small_state(small_config):
    # one plan + old model shared by every harness-level test
    return prepare_scenario(small_config)


ROOT = Path(__file__).resolve().parent.parent


class CommandQueue:
    """Commands that run in the background, at most ``slots`` at once, each
    killed after ``timeout`` seconds. No thread watches them: ``pump``
    starts and reaps them, at each test's setup and teardown and while a
    test waits. Each command writes its output to files in ``log_dir``, so
    no pipe fills while nobody reads it."""

    def __init__(self, commands, cwd, log_dir, slots, timeout):
        self.queued = list(commands.items())  # (key, argv), in start order
        self.cwd, self.log_dir = cwd, log_dir
        self.slots, self.timeout = slots, timeout
        self.running = {}  # key -> (Popen, start time, stdout and stderr paths)
        self.done = {}  # key -> CompletedProcess, or TimeoutExpired if killed

    def pump(self):
        for key, (proc, started, logs) in list(self.running.items()):
            if proc.poll() is None and time.monotonic() - started < self.timeout:
                continue
            del self.running[key]
            if proc.returncode is None:
                proc.kill()
                proc.wait()
                self.done[key] = subprocess.TimeoutExpired(proc.args, self.timeout)
            else:
                out, err = (path.read_text() for path in logs)
                self.done[key] = subprocess.CompletedProcess(
                    proc.args, proc.returncode, out, err)
        while self.queued and len(self.running) < self.slots:
            key, argv = self.queued.pop(0)
            n = len(self.running) + len(self.done)
            logs = (self.log_dir / f"{n}.stdout", self.log_dir / f"{n}.stderr")
            with open(logs[0], "wb") as out, open(logs[1], "wb") as err:
                proc = subprocess.Popen(argv, cwd=self.cwd, stdout=out,
                                        stderr=err)
            self.running[key] = (proc, time.monotonic(), logs)

    def wait(self, key):
        """Command ``key``'s ``CompletedProcess``, once it has run. Raises
        ``TimeoutExpired`` if it was killed."""
        self.pump()
        while key not in self.done:
            time.sleep(0.01)
            self.pump()
        if isinstance(self.done[key], subprocess.TimeoutExpired):
            raise self.done[key]
        return self.done[key]

    def close(self):
        """Kill and reap every command still running; start no other."""
        self.queued.clear()
        for proc, _, _ in self.running.values():
            proc.kill()
            proc.wait()
        self.running.clear()


QUEUE = pytest.StashKey[CommandQueue]()


def _pass(item):
    """The ``tiny_run`` parameter of ``item``, or None."""
    spec = getattr(item, "callspec", None)
    return None if spec is None else spec.params.get("tiny_run")


def pytest_collection_modifyitems(items):
    # the tiny_run tests go last, so that their passes have the other tests'
    # run time to finish in
    items.sort(key=lambda item: _pass(item) is not None)


@pytest.fixture(scope="session", autouse=True)
def tiny_runs(request, tmp_path_factory):
    """The queue of every collected ``tiny_run`` test's pass, keyed by its
    parameter (workload, *extra arguments), each with an out dir of its
    own; None when no such test is collected."""
    passes = list(dict.fromkeys(filter(None, map(_pass, request.session.items))))
    if not passes:
        yield None
        return
    out = tmp_path_factory.mktemp("tiny_runs")
    commands = {key: [sys.executable, os.path.join("pctbench", "run.py"),
                      "--workload", key[0], "--size", "tiny", "--seconds", "1",
                      "--out-dir", str(out / str(i)), *key[1:]]
                for i, key in enumerate(passes)}
    queue = CommandQueue(commands, ROOT, out,
                         max(1, len(os.sched_getaffinity(0)) - 1), 300)
    request.config.stash[QUEUE] = queue
    queue.pump()
    try:
        yield queue
    finally:
        queue.close()
        del request.config.stash[QUEUE]


@pytest.fixture
def tiny_run(request, tiny_runs):
    """The finished pass of the test's parameter."""
    return tiny_runs.wait(request.param)


def _pump(item):
    queue = item.config.stash.get(QUEUE, None)
    if queue is not None:
        queue.pump()


def pytest_runtest_setup(item):
    _pump(item)


def pytest_runtest_teardown(item):
    _pump(item)
