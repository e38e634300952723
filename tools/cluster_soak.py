"""Soak the sharded serving cluster: correctness, locality, overload.

Replays a deterministic mixed workload — Table 1 area jobs, Table 2
timing jobs (``big_1u`` + wire caps) and fuzz-adjacent raw-BLIF jobs —
against an N-shard :class:`repro.serve.cluster.ClusterRouter` from
many concurrent client threads, and asserts the whole operator
contract at once:

* **bit-identity** — every job's ``result_sha256`` equals a
  single-server reference run of the same spec (sharding must never
  change an answer);
* **warm locality** — the cluster-wide cache hit rate meets a floor
  (default 50%), because same-key jobs consistently route to the same
  shard;
* **overload** — with per-shard queues deliberately bounded, a unique
  burst makes shedding engage (``status: "overloaded"`` with a
  positive ``retry_after_s``) and back-off retries then land every
  shed job (recovery), with no shed job poisoning the cache;
* **failover** — killing a shard re-routes its keys and earlier
  results still answer bit-identically warm through the shared spill
  tier;
* **scrapeability** — after the replay, cluster-aggregate *and*
  per-shard ``serve.latency_s`` p50/p90/p99 are live in one
  ``metrics`` scrape, and the per-shard sample counts sum to the
  aggregate count.

Run from the repo root::

    PYTHONPATH=src python tools/cluster_soak.py --shards 4 --jobs 1000
    PYTHONPATH=src python tools/cluster_soak.py --shards 2 --jobs 64   # CI
    PYTHONPATH=src python tools/cluster_soak.py --synth 7:2000 --jobs 64

``--synth SEED:GATES`` (repeatable) mixes generated Rent's-rule
workloads (``repro.circuits.synth``) into the job pool next to the
suite circuits, so the soak also exercises serving of generator-scale
netlists.  ``--json OUT`` additionally writes the measured
rates/latencies as a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

#: Small, fast suite circuits — the soak is about serving behaviour,
#: not mapper runtime, so every job should map in well under a second.
FAST_CIRCUITS = ("misex1", "b9", "e64", "duke2", "apex7", "C432")


def fail(message: str) -> int:
    print(f"cluster soak FAILED: {message}")
    return 1


def fuzz_blif(rng: random.Random, index: int) -> str:
    """A tiny deterministic random netlist (fuzz-adjacent traffic)."""
    inputs = [f"i{k}" for k in range(rng.randint(2, 4))]
    lines = [f".model soak{index}", ".inputs " + " ".join(inputs),
             ".outputs out"]
    mid = f"n{index}"
    picks = rng.sample(inputs, 2)
    lines.append(f".names {picks[0]} {picks[1]} {mid}")
    lines.append("11 1" if rng.random() < 0.5 else "1- 1\n-1 1")
    lines.append(f".names {mid} {inputs[0]} out")
    lines.append("10 1" if rng.random() < 0.5 else "11 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def build_mix(jobs: int, seed: int, synth_specs=()):
    """The deterministic job list: ``jobs`` specs drawn (with heavy
    repetition — that is the warm traffic) from a small unique pool.
    ``synth_specs`` (``SEED:GATES`` strings) add generated Rent's-rule
    circuits to the pool; they survive the unique-pool cap."""
    from repro.flow.tables import TABLE2_WIRE_MODEL
    from repro.serve.jobs import JobSpec

    rng = random.Random(seed)
    pool = []
    for circuit in FAST_CIRCUITS:
        for flow in ("mis", "lily"):
            pool.append(JobSpec.from_dict(
                {"circuit": circuit, "flow": flow, "mode": "area"}))
        pool.append(JobSpec.from_dict(
            {"circuit": circuit, "flow": "lily", "mode": "timing",
             "library": "big_1u",
             "wire_cap": [TABLE2_WIRE_MODEL.ch_per_um,
                          TABLE2_WIRE_MODEL.cv_per_um]}))
    for index in range(max(4, jobs // 40)):
        pool.append(JobSpec.from_dict(
            {"blif": fuzz_blif(rng, index), "flow": "lily",
             "mode": "area"}))
    # Cap the unique pool so the requested job count repeats keys
    # enough to clear any sane hit-rate floor.
    max_unique = max(4, jobs // 3)
    if len(pool) > max_unique:
        pool = pool[:max_unique]
    for spec in synth_specs:
        pool.append(JobSpec.from_dict(
            {"circuit": f"synth:{spec}", "flow": "lily", "mode": "area"}))
    return [pool[rng.randrange(len(pool))] for _ in range(jobs)], pool


def reference_shas(pool, workers: int, timeout: float):
    """Single-server ground truth: spec index -> result_sha256."""
    from repro.serve import Client

    shas = {}
    with Client.in_process(workers=workers) as client:
        for index, spec in enumerate(pool):
            envelope = client.submit(spec, timeout=timeout)
            if not envelope.get("ok"):
                raise RuntimeError(
                    f"reference job {index} errored: "
                    f"{envelope.get('error')}")
            shas[id(spec)] = envelope["result_sha256"]
    return shas


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="cluster_soak")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=1000)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads per shard (default 2)")
    parser.add_argument("--seed", type=int, default=1991)
    parser.add_argument("--hit-floor", type=float, default=0.5,
                        help="minimum cluster cache hit rate (default 0.5)")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--synth", action="append", default=[],
                        metavar="SEED:GATES",
                        help="mix a generated Rent's-rule circuit into "
                             "the job pool (repeatable)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the measured summary as JSON")
    args = parser.parse_args(argv[1:])

    from repro.circuits.synth import parse_synth_spec
    from repro.serve import Client, ClusterConfig, ClusterRouter, JobSpec

    for spec in args.synth:
        parse_synth_spec(spec)  # fail fast on malformed specs
    mix, pool = build_mix(args.jobs, args.seed, synth_specs=args.synth)
    print(f"cluster soak: {args.jobs} jobs over {len(pool)} unique specs, "
          f"{args.shards} shards x {args.workers} workers")

    t0 = time.perf_counter()
    truth = reference_shas(pool, args.workers, args.timeout)
    t_reference = time.perf_counter() - t0
    print(f"reference: {len(pool)} unique jobs in {t_reference:.1f}s "
          f"(single server)")

    router = ClusterRouter(ClusterConfig(
        shards=args.shards, workers=args.workers,
        max_queue_depth=max(4, 2 * args.workers)))
    client = Client.wrap(router)
    summary = {"shards": args.shards, "jobs": args.jobs,
               "unique": len(pool)}
    try:
        # -- phase 1: concurrent replay with back-off retries ------------
        def run_one(spec):
            delay = 0.05
            for _ in range(60):
                envelope = client.submit(spec, timeout=args.timeout)
                if envelope.get("status") != "overloaded":
                    return envelope
                time.sleep(min(envelope.get("retry_after_s", delay), 2.0))
                delay *= 2
            return envelope

        fanout = 2 * args.shards * args.workers
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=fanout) as pool_exec:
            envelopes = list(pool_exec.map(run_one, mix))
        t_replay = time.perf_counter() - t0

        bad = [e for e in envelopes if not e.get("ok")]
        if bad:
            return fail(f"{len(bad)} jobs failed, first: "
                        f"{bad[0].get('status')}: {bad[0].get('error')}")
        wrong = sum(1 for spec, env in zip(mix, envelopes)
                    if env["result_sha256"] != truth[id(spec)])
        if wrong:
            return fail(f"{wrong}/{len(mix)} jobs differ from the "
                        f"single-server reference (bit-identity broken)")

        stats = client.stats()
        hits = stats["cache"]["hits"]
        hit_rate = hits / max(1, stats["counters"]["jobs"])
        print(f"replay: {len(mix)} jobs in {t_replay:.1f}s, "
              f"hit rate {hit_rate:.1%} (floor {args.hit_floor:.0%}), "
              f"{stats['counters'].get('shed', 0)} shed during replay")
        if hit_rate < args.hit_floor:
            return fail(f"hit rate {hit_rate:.1%} below the "
                        f"{args.hit_floor:.0%} floor")
        summary.update(replay_s=t_replay, reference_s=t_reference,
                       hit_rate=hit_rate)

        # -- phase 2: induced overload, then recovery --------------------
        burst = [JobSpec.from_dict(
            {"blif": fuzz_blif(random.Random(args.seed + 7 + k), 10_000 + k),
             "flow": "lily", "mode": "area"})
            for k in range(4 * args.shards * args.workers
                           + 4 * args.shards)]
        with ThreadPoolExecutor(max_workers=len(burst)) as pool_exec:
            burst_envs = list(pool_exec.map(
                lambda s: client.submit(s, timeout=args.timeout), burst))
        shed = [e for e in burst_envs if e.get("status") == "overloaded"]
        print(f"overload: burst of {len(burst)} unique jobs -> "
              f"{len(shed)} shed")
        if not shed:
            return fail("induced overload burst shed nothing "
                        "(bounded queues not engaging)")
        if any(not (e.get("retry_after_s", 0) > 0) for e in shed):
            return fail("a shed envelope lacks a positive retry_after_s")
        recovered = 0
        for spec, env in zip(burst, burst_envs):
            if env.get("status") == "overloaded":
                retry = run_one(spec)
                if not retry.get("ok"):
                    return fail(f"shed job failed to recover: "
                                f"{retry.get('status')}")
                if retry.get("cache_hit"):
                    return fail("a shed job answered as a cache hit — "
                                "shedding poisoned the cache")
                recovered += 1
            elif not env.get("ok"):
                return fail(f"burst job errored: {env.get('error')}")
        print(f"recovery: all {recovered} shed jobs answered on retry, "
              f"none from cache")
        summary.update(burst=len(burst), shed=len(shed),
                       recovered=recovered)

        # -- phase 3: shard death + warm failover ------------------------
        victim_spec = pool[0]
        victim = router.shard_for(victim_spec)
        router.shards[victim].kill()
        failover = client.submit(victim_spec, timeout=args.timeout)
        if not failover.get("ok"):
            return fail(f"failover job errored: {failover.get('error')}")
        if failover.get("shard") == victim:
            return fail("job still routed to the killed shard")
        if failover["result_sha256"] != truth[id(victim_spec)]:
            return fail("failover changed the result payload")
        if not failover.get("cache_hit"):
            return fail("failover re-mapped a warm key (shared spill "
                        "tier not serving it)")
        print(f"failover: shard {victim} killed, key re-routed to shard "
              f"{failover['shard']}, answered warm from the shared spill")

        # -- phase 4: live percentile scrape -----------------------------
        metrics = client.metrics()
        aggregate = metrics["histograms"].get("serve.latency_s", {})
        for p in ("p50", "p90", "p99"):
            if not (aggregate.get(p, 0) > 0):
                return fail(f"aggregate latency {p} not scrapeable: "
                            f"{aggregate}")
        per_shard_counts = 0
        shards_with_samples = 0
        for index in range(args.shards):
            hist = metrics["histograms"].get(
                f"shard{index}.serve.latency_s")
            if hist and hist.get("count"):
                shards_with_samples += 1
                per_shard_counts += hist["count"]
                for p in ("p50", "p90", "p99"):
                    if not (hist.get(p, 0) > 0):
                        return fail(f"shard{index} latency {p} not "
                                    f"scrapeable: {hist}")
        # The killed shard's samples drop out of the scrape; every
        # survivor that mapped anything must expose its percentiles.
        if shards_with_samples < args.shards - 1:
            return fail(f"only {shards_with_samples} shards expose "
                        f"latency percentiles")
        if per_shard_counts != aggregate.get("count"):
            return fail(f"per-shard sample counts {per_shard_counts} != "
                        f"aggregate {aggregate.get('count')}")
        health = client.health()
        if health.get("status") != "degraded":
            return fail(f"health after one shard death should be "
                        f"degraded, got {health.get('status')}")
        summary.update(
            latency_p50_s=aggregate["p50"], latency_p90_s=aggregate["p90"],
            latency_p99_s=aggregate["p99"], mapped=aggregate["count"],
            shards_alive=health.get("shards_alive"))
        print(f"scrape: aggregate p50 {aggregate['p50']:.4f}s / "
              f"p90 {aggregate['p90']:.4f}s / p99 {aggregate['p99']:.4f}s "
              f"over {aggregate['count']} mapped; health "
              f"{health['status']} ({health['shards_alive']}/"
              f"{health['shards']} shards)")
    finally:
        router.shutdown()

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    print(f"cluster soak ok: {args.jobs} jobs bit-identical, "
          f"hit rate {summary['hit_rate']:.1%}, shedding engaged and "
          f"recovered, warm failover, live percentiles")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
