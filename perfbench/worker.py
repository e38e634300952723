"""One benchmark process: set up a workload, then measure it.

Started by ``perfbench/run.py``, never directly.  Prints a ``{"ready":
<epoch seconds>, "host_factor": <probe ÷ nominal>}`` line once set-up
is done (the launcher turns it into a set-up time), and, unless
``--setup-only``, the measured result as the last line of standard
output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro was imported from "
                         f"{repro.__file__}, not from {src}")
    from repro.perf.vec import kernel_backend_info

    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed,
                                                   quick=args.quick)
    ready = time.time()
    factor = workloads.host_factor(workloads.probe_host())
    print(json.dumps({"ready": ready, "host_factor": factor}), flush=True)
    if args.setup_only:
        return 0
    result = workloads.run(workload, args.seconds, bool(args.trace))
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    result["env"] = {
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": kernel_backend_info(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
