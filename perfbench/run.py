"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The launcher pins the numeric
environment (one BLAS/OpenMP thread: the quadratic placer's CG solve
gives thread-count-dependent layouts) for every process it starts, then
starts ``perfbench/worker.py`` in fresh interpreters: ``SETUP_SAMPLES -
1`` that only set up, and one that sets up and measures.  ``setup_s`` is
the median, over all of them, of the time from starting the interpreter
to the workload's inputs being ready.  ``setup_s`` and ``wall_s`` are
scaled to the host probe's nominal speed (``workloads.probe_host``).

Standard output ends with three JSON lines: the raw timings before that
scaling, the environment the run recorded (runs whose environments
differ must not be compared), and the result, ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The launcher exits
non-zero, printing no result, when the checkout has no program to
measure or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Fresh interpreters whose set-up is timed; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Every worker must have finished this long after the launcher started.
DEADLINE_S = 170.0


def _worker(argv, env, deadline: float):
    """Run one worker; return (set-up seconds, host factor, last line)."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, WORKER, *argv], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    ready = next(line for line in lines if "ready" in line)
    return ready["ready"] - started, ready["host_factor"], lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=("paper_tables", "synth_cover", "layout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum timed wall per run; whole passes "
                             "repeat until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shortened inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: {ROOT} has no src/repro to measure",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")
    # setup_s is an end-to-end metric; a traced run reports none.
    samples = 1 if args.trace else SETUP_SAMPLES
    setups = [_worker(common + ["--setup-only"], env, deadline)[:2]
              for _ in range(samples - 1)]
    setup_s, factor, result = _worker(
        common + ["--seconds", str(args.seconds),
                  "--trace", str(args.trace)], env, deadline)
    setups.append((setup_s, factor))

    metrics = result["metrics"]
    if not args.trace:
        # Set-up time at the host probe's nominal speed, as wall_s.
        metrics["setup_s"] = {
            "value": statistics.median(s / f for s, f in setups),
            "unit": "s"}
        result["raw"]["setup_s"] = [s for s, _ in setups]
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"raw": result["raw"]}, sort_keys=True))
    print(json.dumps({"env": result["env"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
