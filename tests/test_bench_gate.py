"""The benchmark's byte-identity gate on every workload, at tiny size.

Each ``pctbench/run.py`` pass hashes every report it writes and compares the
digests recorded from the reference sources, so a change that moves any
output byte of a workload fails here. The traced pass (``--trace 1``)
wraps pctlab functions by their module attribute names, so it also fails
when a name that ``pctbench/tracing.py`` wraps is renamed or removed.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["methods", "ensemble", "sweep", "wide"]


def _run_tiny(workload, out_dir, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join("pctbench", "run.py"), "--workload",
         workload, "--size", "tiny", "--seconds", "1", "--out-dir",
         str(out_dir), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_outputs_match_reference_digests(workload, tmp_path):
    _run_tiny(workload, tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bench_pass_matches_reference_digests(workload, tmp_path):
    _run_tiny(workload, tmp_path, "--trace", "1")
