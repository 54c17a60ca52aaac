#!/usr/bin/env python3
"""pctlab benchmark: one workload, a closed loop of operations, gated outputs.

    python3 pctbench/run.py --workload methods --seed 0 --seconds 27 --trace 0

Run from the root of a source checkout (``src/pctlab`` beside ``pctbench``).
Each operation is one pass of the workload in a fresh child process
(``child.py``), started only after the previous one has returned: one
caller, one Python thread plus the BLAS pool. The loop starts another pass
while it is expected to end within half a pass of ``--seconds``, and runs
at least ``MIN_PASSES``. In an untraced run, each pass comes after
``PROBES_PER_PASS`` children that only set up and exit, so that ``setup_s``
is a median over more samples than a run has passes.

``--trace 0`` prints the end-to-end metrics, each the median over the
operations of the run that measure it. Times are at the reference host
speed (``hostspeed.py``); the raw seconds are printed beside them.
``--trace 1`` runs untraced passes for half the time, then one traced pass,
and prints the per-layer metrics of that pass; on ``methods`` it adds a traced pass at the other BLAS thread
count as a diagnostic that is printed and saved but not part of the metrics.

Every pass's output files are hashed and compared with the committed
reference digest for the input variant (``gate.py``). A pass fails if it
raises, reports a non-finite metric, misses the README table (``methods``
on the reference seeds) or writes different bytes. Failures are counted,
not fatal. The last stdout line is the JSON result; a full record goes to
``<out-dir>/<workload>/result_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

# Write no .pyc into the checkout, so that every child compiles alike
# whatever the caller's environment holds.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import gate  # noqa: E402
import tracing  # noqa: E402
from stats import summarize  # noqa: E402

MIN_PASSES = 2
# Set-up-only children before each untraced pass. setup_s drifts with the
# host like wall_s does, so its samples are spread over the whole run.
PROBES_PER_PASS = 2
RUN_LIMIT_S = 170.0     # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# Raw counterparts of the normalised times, kept in the record and printed.
RAW = {"setup_s": "raw_setup_s", "wall_s": "raw_wall_s", "cpu_s": "raw_cpu_s"}

# BLAS threads of every workload child. Interleaved passes on 2 vCPUs gave
# methods 7.05 s wall / 7.05 s CPU at one thread against 8.10 s / 16.0 s at
# two, and wide 4.79 s / 4.79 s against 3.47 s / 6.88 s; the pass-to-pass
# spread was no smaller either way. Three of the four workloads run the
# reference task, whose gemms are too small to split, so one thread it is.
# Traced `methods` runs add a pass at DIAGNOSTIC_THREADS to keep this visible.
BLAS_THREADS = 1
BLAS_REASON = ("reference-task steps are dispatch-bound: one thread per core "
               "made methods slower in wall time at 2.3x the CPU; only wide gains")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


DIAGNOSTIC_THREADS = nproc()


def child_env(threads: int) -> dict:
    """The caller's environment with every setting that moves results pinned."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(threads)
    env.pop("PCTLAB_BACKEND", None)        # the package default
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every import compiles alike
    return env


def git_state() -> dict:
    """SHA and dirty flag when the checkout is a git work tree, else nulls."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "blas_reason": BLAS_REASON,
        "blas_vars": {v: str(BLAS_THREADS) for v in BLAS_VARS},
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "git": git_state(),
    }


def run_child(args, variant: int, trace: int, threads: int, deadline: float,
              spans: str = None, setup_only: bool = False) -> dict:
    """One operation in a fresh process; returns its result (problems on failure)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--variant", str(variant),
           "--size", args.size, "--trace", str(trace),
           "--out-dir", os.path.join(args.out_dir, args.workload, "pass")]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    if args.flip_byte:
        cmd.append("--flip-byte")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(threads), cwd=ROOT, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    if "digest" in result:
        key = gate.reference_key(args.size, args.workload, variant)
        result["problems"] += gate.compare(result["digest"], args.references.get(key))
    result["blas_threads"] = threads
    return result


def run_loop(args, variant: int, budget: float, deadline: float, min_passes: int,
             probes_per_pass: int = 0):
    """Closed loop of rounds: ``probes_per_pass`` set-up-only children, then
    one untraced pass. Another round starts while it is expected to end
    within half a round of ``budget``. Returns every operation."""
    ops = []
    start = time.monotonic()
    passes = 0
    while True:
        t = time.monotonic()
        ops += [run_child(args, variant, 0, BLAS_THREADS, deadline, setup_only=True)
                for _ in range(probes_per_pass)]
        ops.append(run_child(args, variant, 0, BLAS_THREADS, deadline))
        passes += 1
        took = time.monotonic() - t
        if passes >= min_passes and time.monotonic() - start + took / 2 > budget:
            return ops
        if time.monotonic() + took > deadline:
            return ops


def median_of(passes, key):
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "pctlab", "__init__.py")):
        print(f"error: no pctlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    from workloads import VARIANTS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help=f"input variant is seed %% {VARIANTS}; 0 is the reference seeds")
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: miniature inputs for the benchmark's own tests")
    ap.add_argument("--out-dir", default=os.path.join(ROOT, ".pctbench_out"))
    ap.add_argument("--flip-byte", action="store_true",
                    help="corrupt one output byte per pass to prove the gate")
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    args.references = gate.load_references()
    variant = args.seed % VARIANTS
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(args.out_dir, args.workload), exist_ok=True)
    tag = f"seed{args.seed}_trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "variant": variant,
              "size": args.size, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}

    if not args.trace:
        ops = run_loop(args, variant, args.seconds, deadline, MIN_PASSES,
                       PROBES_PER_PASS)
        metrics = {name: {"value": median_of(ops, name), "unit": unit}
                   for name, unit in END_TO_END}
        record["timing"] = {name: summarize([p[name] for p in ops if name in p])
                            for name, _ in END_TO_END}
        record["raw_timing"] = {raw: summarize([p[raw] for p in ops if raw in p])
                                for raw in RAW.values()}
    else:
        ops = run_loop(args, variant, args.seconds / 2, deadline, 1)
        untraced_wall = median_of(ops, "raw_wall_s")
        spans = os.path.join(args.out_dir, args.workload, f"spans_{tag}.json")
        traced = run_child(args, variant, 1, BLAS_THREADS, deadline, spans)
        ops.append(traced)
        layer = traced.get("trace", {})
        values = dict(layer.get("metrics", {}))
        values["trace.overhead_s"] = layer.get("pass_wall_s", float("nan")) - untraced_wall
        metrics = {name: {"value": values.get(name, float("nan")), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        record["traced"] = layer
        if args.workload == "methods" and DIAGNOSTIC_THREADS != BLAS_THREADS:
            diag = run_child(args, variant, 1, DIAGNOSTIC_THREADS, deadline)
            ops.append(diag)
            record["diagnostic"] = {"blas_threads": DIAGNOSTIC_THREADS,
                                    "raw_setup_s": diag.get("raw_setup_s"),
                                    "raw_wall_s": diag.get("raw_wall_s"),
                                    "raw_cpu_s": diag.get("raw_cpu_s"),
                                    "metrics": diag.get("trace", {}).get("metrics")}

    failed = sum(1 for p in ops if p["problems"])
    record["metrics"] = metrics
    record["operations"] = ops
    with open(os.path.join(args.out_dir, args.workload, f"result_{tag}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} (variant {variant}, {args.size}) "
          f"operations={len(ops)} failed={failed} blas_threads={BLAS_THREADS} "
          f"nproc={env['nproc']} numpy={env['numpy']} {env['blas']} "
          f"numba={env['numba_imports']} git={env['git']['sha']} "
          f"dirty={env['git']['dirty']}")
    for p in ops:
        for problem in p["problems"]:
            print(f"# FAILED: {problem.strip()}")
    if args.trace:
        print("# per-layer metrics of the traced pass (attribution only; "
              "end-to-end numbers come from --trace 0)")
    else:
        print("# end-to-end metrics: median over passes and set-up probes")
    for name, m in metrics.items():
        extra = ""
        if not args.trace:
            t = record["timing"][name]
            extra = (f"  (n={t['n']}, tail p{t['tail_percentile']}={t['tail']})"
                     if t["tail_percentile"] else f"  (n={t['n']})")
        if name in RAW and not args.trace:
            extra += f"  raw median {record['raw_timing'][RAW[name]]['median']:.6g} s"
        print(f"{name:30s} {m['value']:.6g} {m['unit']}{extra}")
    if "diagnostic" in record:
        d = record["diagnostic"]
        print(f"# diagnostic, methods traced at {d['blas_threads']} BLAS threads: "
              f"raw_wall_s={d['raw_wall_s']} raw_cpu_s={d['raw_cpu_s']} against "
              f"raw_wall_s={traced.get('raw_wall_s')} "
              f"raw_cpu_s={traced.get('raw_cpu_s')} at "
              f"{BLAS_THREADS}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
