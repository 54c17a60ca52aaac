#!/usr/bin/env python3
"""Record the reference output digests that the gate compares against.

    python3 pctbench/record_references.py

Runs one untraced pass per (size, workload, input variant) at the pinned
BLAS setting and writes ``reference_digests.json``. If any pass fails a
check (non-finite metric, README mismatch, a raise), nothing is written.
Re-record only in a change that moves outputs on purpose and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
from gate import REFERENCE_FILE, reference_key
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    refs = {}
    out_dir = os.path.join(run.ROOT, ".pctbench_out")
    ok = True
    for size in ("tiny", "full"):
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                opts = argparse.Namespace(workload=workload, size=size,
                                          out_dir=out_dir, flip_byte=False,
                                          references={})
                result = run.run_child(opts, variant, 0, run.BLAS_THREADS,
                                       time.monotonic() + run.RUN_LIMIT_S)
                # the only expected problem is the missing reference itself
                problems = result["problems"][:-1] if "digest" in result \
                    else result["problems"]
                key = reference_key(size, workload, variant)
                if problems:
                    ok = False
                    print(f"{key}: failed: {problems}", file=sys.stderr)
                    continue
                refs[key] = result["digest"]
                print(f"{key}: {result['digest']} wall {result['wall_s']:.2f} s")
    if not ok:
        print(f"{REFERENCE_FILE} left unchanged", file=sys.stderr)
        return 1
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
