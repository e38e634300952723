"""Run-to-run spread of the benchmark, and set-to-set comparison.

    python3 perfbench/spread.py run --workload NAME --runs 10 --first-seed 1 \
        --out runs.json
    python3 perfbench/spread.py compare first.json second.json

``run`` launches ``perfbench/run.py`` once per seed (consecutive seeds from
``--first-seed``), keeps every run's environment record and result, and
prints each end-to-end metric's median and quartile spread (interquartile
range over median) next to its bound from ``BENCHMARK.json``.
``compare`` prints, per metric, how far the second set's median moved from
the first's in the metric's worse direction, against the bound.  It
refuses sets whose runs recorded different environments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc["end_to_end"]}, doc["run_seconds"]


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def run_set(workload: str, runs: int, first_seed: int, out: str) -> int:
    specs, seconds = _end_to_end()
    records = []
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        raw, env, result = (json.loads(line)
                            for line in proc.stdout.splitlines()[-3:])
        records.append({"seed": seed, "raw": raw["raw"], "env": env["env"],
                        "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"wall_s={result['metrics']['wall_s']['value']:.3f} "
              f"raw={raw['raw']['wall_s']:.3f} "
              f"host_factor={raw['raw']['host_factor']:.3f}", flush=True)
    with open(out, "w") as f:
        json.dump({"workload": workload, "runs": records}, f, indent=1)
    print(f"{'metric':<16}{'median':>14}{'spread':>9}{'bound':>7}")
    worst = 0.0
    for name, spec in specs.items():
        median, spread = _spread(
            [r["result"]["metrics"][name]["value"] for r in records])
        if name != "setup_s":
            worst = max(worst, spread / spec["bound"])
        print(f"{name:<16}{median:>14.6g}{spread:>9.4f}{spec['bound']:>7}")
    median, spread = _spread([r["raw"]["wall_s"] for r in records])
    print(f"{'(raw wall_s)':<16}{median:>14.6g}{spread:>9.4f}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0 if all(r["result"]["correct"] for r in records) else 1


def compare(first: str, second: str) -> int:
    specs, _ = _end_to_end()
    sets = []
    for path in (first, second):
        with open(path) as f:
            sets.append(json.load(f))
    envs = {json.dumps(r["env"], sort_keys=True)
            for s in sets for r in s["runs"]}
    if len(envs) != 1:
        print("refusing to compare: the runs recorded different "
              "environments", file=sys.stderr)
        return 2
    ok = True
    for name, spec in specs.items():
        a, b = (statistics.median(r["result"]["metrics"][name]["value"]
                                  for r in s["runs"]) for s in sets)
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        ok &= worse <= spec["bound"]
        print(f"{name:<16}{a:>14.6g}{b:>14.6g}{worse:>+9.4f}"
              f"{spec['bound']:>7}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-spread")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--runs", type=int, default=10)
    run_p.add_argument("--first-seed", type=int, default=1)
    run_p.add_argument("--out", required=True)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("first")
    cmp_p.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_set(args.workload, args.runs, args.first_seed, args.out)
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
