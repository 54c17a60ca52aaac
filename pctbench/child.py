"""One operation of a workload, in its own process: set-up, one timed pass.

Started by ``run.py`` with the BLAS thread variables and ``PYTHONPATH``
already pinned. Prints one JSON object as the last line of stdout:

  raw_setup_s  process start (``--t0``, CLOCK_MONOTONIC) until the pass can begin
  raw_wall_s   wall seconds of the pass, report writing included
  raw_cpu_s    user + system CPU seconds of the process over the pass
  setup_s, wall_s, cpu_s
               the same at the reference host speed (``hostspeed.py``);
               untraced children only
  speed_samples  host-speed samples behind ``wall_s``
  peak_rss_mb  peak resident memory of the process
  digest       sha256, file count and bytes of everything the pass wrote
  problems     failed checks (non-finite metrics, README mismatch, a raise)

With ``--setup-only`` the process exits after set-up and reports only its
set-up times. With ``--trace 1`` the tracer is installed after the import,
so set-up and pass are both spanned, and the per-layer metrics are added;
the host-speed sampler does not run, so that it adds nothing to any span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", default=None, help="where the traced pass writes its spans")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--flip-byte", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    result = {"problems": []}
    speed = None
    try:
        if not args.trace:
            from hostspeed import BURST, HostSpeed
            speed = HostSpeed()
            speed.start()
        import gate
        import tracing
        from workloads import WORKLOADS, seeds

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        workload = WORKLOADS[args.workload]
        cfg = workload.config(args.variant, args.size)

        setup_span = tracer.begin("setup") if tracer else None
        state = workload.prepare(cfg)
        if tracer:
            tracer.end(setup_span)
        setup_end = time.monotonic()
        result["raw_setup_s"] = setup_end - args.t0
        if speed:
            for _ in range(BURST):
                speed.sample()
            result["setup_s"] = speed.normalise(result["raw_setup_s"], args.t0,
                                                setup_end, BURST)[0]
        if args.setup_only:
            result["setup_only"] = True
            print(json.dumps(result))
            return 0

        shutil.rmtree(args.out_dir, ignore_errors=True)
        os.makedirs(args.out_dir)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        pass_span = tracer.begin("pass") if tracer else None
        out = workload.run(cfg, state, args.out_dir)
        if tracer:
            tracer.end(pass_span)
        end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["raw_wall_s"] = end - start
        result["raw_cpu_s"] = (after.ru_utime - before.ru_utime
                               + after.ru_stime - before.ru_stime)
        result["peak_rss_mb"] = after.ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux
        if speed:
            speed.stop()
            speed.sample()
            result["wall_s"], result["speed_samples"] = speed.normalise(
                result["raw_wall_s"], start, end, 1)
            result["cpu_s"] = speed.normalise(result["raw_cpu_s"], start, end, 1)[0]

        result["problems"] += workload.check(out, args.variant, args.size)
        if args.flip_byte:
            result["flipped"] = gate.flip_byte(args.out_dir)
        result["digest"] = gate.digest_dir(args.out_dir)
        if tracer:
            traced = tracing.layer_metrics(tracer, seeds(args.variant)[1])
            traced["metrics"]["reports.bytes"] = result["digest"]["bytes"]
            traced["metrics"]["reports.files"] = result["digest"]["files"]
            traced["pass_wall_s"] = (tracer.ends[pass_span]
                                    - tracer.starts[pass_span]) / 1e9
            result["trace"] = traced
            if args.spans:
                tracer.write(args.spans)
    except Exception:  # reported as a failed operation, never a crash
        result["problems"].append(traceback.format_exc())
    if speed:
        speed.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
