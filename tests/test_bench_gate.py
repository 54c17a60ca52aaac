"""The benchmark's byte-identity gate on every workload, at tiny size.

Each ``pctbench/run.py`` pass hashes every report it writes and compares the
digests recorded from the reference sources, so a change that moves any
output byte of a workload fails here. The traced pass (``--trace 1``)
wraps pctlab functions by their module attribute names, so it also fails
when a name that ``pctbench/tracing.py`` wraps is renamed or removed.

Each test takes its pass from the ``tiny_run`` fixture of
``tests/conftest.py``, which starts every pass when the session starts.
"""

import json

import pytest

WORKLOADS = ["methods", "ensemble", "sweep", "wide"]


def _check(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("tiny_run", [(w,) for w in WORKLOADS], ids=WORKLOADS,
                         indirect=True)
def test_bench_outputs_match_reference_digests(tiny_run):
    _check(tiny_run)


@pytest.mark.parametrize("tiny_run", [(w, "--trace", "1") for w in WORKLOADS],
                         ids=WORKLOADS, indirect=True)
def test_traced_bench_pass_matches_reference_digests(tiny_run):
    _check(tiny_run)
