"""Tests of the benchmark itself: names, percentile rule, gate, smoke runs.

    python3 -m pytest -q pctbench/tests

The smoke runs use ``--size tiny`` (miniature inputs with their own
committed reference digests), so the whole file runs in seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, out_dir):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "pctbench", "run.py"),
                           *args, "--out-dir", str(out_dir)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_use_only_allowed_characters():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]]
             + [n for n, _ in run.END_TO_END + tracing.PER_LAYER])
    bad = [n for n in names if not NAME.match(n)]
    assert not bad
    assert len(set(m["name"] for m in SPEC["per_layer"])) == len(SPEC["per_layer"])


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99), (10**7, 99.99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_rule_holds_for_every_count():
    ladder = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
    for n in range(0, 3000):
        p = tail_percentile(n)
        ok = [q for q in ladder if round(n * (100 - q) / 100, 6) >= 10]
        assert p == (max(ok) if ok else None)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100


def test_computed_counts_of_the_reference_step():
    dims = [20, 32, 10]
    # gemms 2*20*32 + 2*32*10, biases 32 + 10, relu 32
    assert tracing.forward_flops_per_row(dims) == 1994
    flops, bytes_ = tracing.training_counts(dims, n=64, batch=64, epochs=1)
    params = 20 * 32 + 32 + 32 * 10 + 10
    assert flops == 64 * (1994 + 4 * 20 * 32 + 32 + 4 * 32 * 10 + 10 + 2 * 32) \
        + 4 * params
    assert 0.3e6 < flops < 0.45e6 and bytes_ > 8 * 7 * params


def test_self_times_account_for_the_traced_wall():
    t = tracing.Tracer()
    root = t.begin("pass")
    ev = t.begin("harness.eval")
    fw = t.begin("nn.forward")
    t.attrs[fw] = ([4, 3, 2], 5)
    t.end(fw)
    t.end(ev)
    t.end(t.begin("flips.report"))
    t.end(root)
    out = tracing.layer_metrics(t, base_seed=0)
    m = out["metrics"]
    assert sum(out["self_s"].values()) == pytest.approx(m["trace.wall_s"], abs=1e-12)
    assert m["trace.unattributed_s"] == pytest.approx(out["self_s"]["pass"])
    assert m["kernels.eval_mflop_per_epoch"] == pytest.approx(
        5 * tracing.forward_flops_per_row([4, 3, 2]) / 1e6)


def test_normalise_scales_to_the_reference_speed_and_drops_sampler_time():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # two samples inside the window at half speed, one after it at full speed
    speed.samples = [(0.5, 9.0), (10.2, 2 * ref), (10.6, 2 * ref), (11.05, ref),
                     (11.1, 4 * ref)]
    raw = 1.0 + 4 * ref
    value, samples = speed.normalise(raw, 10.0, 11.0)
    assert samples == 2 and value == pytest.approx(0.5)
    value, samples = speed.normalise(raw, 10.0, 11.0, extra=1)
    assert samples == 3 and value == pytest.approx((0.5 + 0.5 + 1.0) / 3)


def test_gate_reports_a_flipped_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "report.json").write_bytes(b'{"nfr": 0.039}\n')
    (tmp_path / "summary.csv").write_bytes(b"method,nfr\nfd_lm,0.008\n")
    reference = gate.digest_dir(str(tmp_path))
    assert gate.compare(gate.digest_dir(str(tmp_path)), reference) == []
    flipped = gate.flip_byte(str(tmp_path))
    assert flipped.endswith("report.json")
    problems = gate.compare(gate.digest_dir(str(tmp_path)), reference)
    assert len(problems) == 1 and problems[0].startswith("sha256")


def test_flipped_byte_fails_every_pass_of_a_run(tmp_path):
    result = last_json(bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                             "--trace", "0", "--size", "tiny", "--flip-byte",
                             out_dir=tmp_path))
    # set-up probes write nothing; every pass must fail
    passes = result["attempted"] // (run.PROBES_PER_PASS + 1)
    assert passes >= 1
    assert result["failed"] == passes
    assert result["correct"] is False


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace, tmp_path):
    result = last_json(bench("--workload", workload, "--seed", "9", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny",
                             out_dir=tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["nn.step.count"] > 0
        assert values["reports.files"] > 0
        assert values["trace.unattributed_s"] < values["trace.wall_s"]
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "pctbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "methods", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path), out_dir=tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
