"""Machine-readable perf snapshot of the hot components.

Writes ``BENCH_PR<n>.json`` (or a given path) with best-of-N wall times
for every component ``test_component_speed.py`` benchmarks, so the repo's
perf trajectory is tracked as a committed artifact from PR 1 onward.
Every snapshot uses the same schema and timing names, so any two
``BENCH_PR*.json`` files are directly comparable
(``check_perf_regression.py`` automates the comparison).

The mapper rows (``mis_map``, ``lily_map``) run whatever the *default*
mapper configuration is — from PR 2 on that includes the ``repro.perf``
fast paths, which is exactly the point: the artifact records what a user
gets out of the box.  ``--jobs`` additionally enables the parallel cone
match pre-warm for the mapper rows.

PR 4 adds the incremental-engine rows (``anneal`` / ``detailed_improve``
/ ``sta_moves``; ``sta_moves_naive`` re-runs the full-STA reference per
move, and the placement engines' naive twins are test oracles now) and a ``--suite`` mode that times a whole Table 1 run
sequentially and with ``--procs N``, recording per-circuit phase times
from the merged observability reports.

PR 6 adds a ``lily_map_observed`` twin (the full mapper under a live
``repro.obs`` session, recording the telemetry-on overhead next to the
telemetry-off row) and a ``serve`` section: an in-process mapping
service runs the same circuit repeatedly (cache cleared between
requests so every one is a genuine mapping) and the artifact records
the p50/p90/p99 the server's always-on latency and queue-wait
histograms answer.  ``tools/bench_trajectory.py`` diffs any two of
these artifacts.

PR 7 adds a ``--scaling`` mode that merges the ``scale.*`` rows from
``benchmarks/scaling.py`` (struct-of-arrays kernels at 1k/5k/20k gates,
timed against the naive references that remain in ``src``) and stamps a
``kernels`` section into every artifact: the numpy/scipy versions the
snapshot ran under, so cross-machine comparisons state their backends.

PR 8 adds the cluster rows: a mini soak (``--cluster-shards`` /
``--cluster-jobs``) replays a repeating job mix against an in-process
``ClusterRouter`` and records the replay wall time, hit rate and the
cluster-aggregate latency percentiles.  The serve latency percentiles
(single-server and cluster) are also mirrored into ``timings_s`` under
a ``serve.`` prefix, so ``tools/bench_trajectory.py --watch serve.``
tracks the serving trajectory exactly like the ``scale.`` rows.

PR 9 adds ``--synth-scaling``: generator-backed ``scale.synth.*`` and
``scale.route.*`` rows from Rent's-rule circuits
(``repro.circuits.synth``) at the requested gate counts, alongside the
curated-circuit tilings ``--scaling`` drives.  ``--max-gates`` raises
the accident guard for the 1M-gate opt-in.

PR 10 adds the covering-backend rows (``map.*``): tree vs priority-cut
vs fusion wall times on the snapshot circuit and a 10k-gate Rent's-rule
workload, plus the NPN match-table build — with each backend's mapped
cell area recorded in a ``mapping`` section so trajectory diffs can
tell a wall-time regression from a QoR regression.
``tools/bench_trajectory.py --watch map.`` tracks these rows across
artifacts; ``--mapping-synth ''`` skips the (slow) generated workload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_snapshot.py [out.json]
        [--pr 10] [--circuit C880] [--repeats 3] [--jobs 1]
        [--suite] [--procs 4] [--serve-requests 6]
        [--scaling [1000 5000 20000]] [--synth-scaling 10000 100000]
        [--max-gates 200000] [--cluster-shards 2] [--cluster-jobs 32]
        [--mapping-synth synth:19910611:10000]
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import random
import sys
from time import perf_counter
from typing import Callable, Dict

from repro.area.estimate import mapped_image, subject_image
from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper
from repro.flow.pipeline import pads_from_order
from repro.geometry import Point
from repro.library.patterns import pattern_set_for
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.match.treematch import Matcher
from repro.network.decompose import decompose_to_subject
from repro.obs import OBS, observed
from repro.perf import PerfOptions
from repro.place.anneal import simulated_annealing
from repro.place.detailed import detailed_place
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import mapped_netlist, subject_netlist
from repro.place.pads import assign_pads, io_affinity_order
from repro.route.channel import left_edge_route
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def snapshot(
    circuit: str = "C880", repeats: int = 3, jobs: int = 1
) -> Dict[str, float]:
    """Best-of-``repeats`` seconds per component, observability off."""
    assert not OBS.enabled
    perf = PerfOptions().with_jobs(jobs)
    net = build_circuit(circuit)
    library = big_library()
    patterns = pattern_set_for(library)  # warm the pattern cache
    subject = decompose_to_subject(net)
    matcher = Matcher(patterns)
    region = subject_image(len(subject.gates))
    pads = assign_pads(subject, region)
    netlist = subject_netlist(subject, pads)
    intervals = {
        f"n{i}": ((i * 37) % 500.0, (i * 37) % 500.0 + 25 + (i % 60))
        for i in range(400)
    }
    mapped = MisAreaMapper(library).map(subject).mapped

    gate_nodes = [n for n in subject.nodes if n.is_gate]
    timings = {
        "decompose": _best_of(lambda: decompose_to_subject(net), repeats),
        "matching": _best_of(
            lambda: sum(len(matcher.matches_at(n)) for n in gate_nodes),
            repeats,
        ),
        "global_placement": _best_of(
            lambda: GlobalPlacer().place(netlist, region), repeats
        ),
        "left_edge": _best_of(lambda: left_edge_route(intervals), repeats),
        "mis_map": _best_of(
            lambda: MisAreaMapper(library, perf=perf).map(subject), repeats
        ),
        "lily_map": _best_of(
            lambda: LilyAreaMapper(library, perf=perf).map(subject),
            max(1, repeats - 1),
        ),
        "sta": _best_of(lambda: analyze(mapped, wire_model=None), repeats),
    }
    timings.update(_layout_rows(net, mapped, repeats))
    # The same matcher sweep and full mapper with tracing+metrics live,
    # so the snapshot records the observability overhead explicitly.
    with observed():
        timings["matching_observed"] = _best_of(
            lambda: sum(len(matcher.matches_at(n)) for n in gate_nodes),
            repeats,
        )
        timings["lily_map_observed"] = _best_of(
            lambda: LilyAreaMapper(library, perf=perf).map(subject),
            max(1, repeats - 1),
        )
    return timings


def _layout_rows(net, mapped, repeats: int) -> Dict[str, float]:
    """The incremental-engine rows.  ``sta_moves`` has a ``_naive`` twin
    re-running the full :func:`repro.timing.sta.analyze` reference per
    move; the annealing and detailed-swap engines have no naive path left
    to time (their full-recompute oracles live in the placement tests)."""
    from repro.timing.incremental import IncrementalTiming

    region = mapped_image(mapped.total_cell_area())
    order = io_affinity_order(net)
    known = {n.name for n in mapped.primary_inputs}
    known.update(n.name for n in mapped.primary_outputs)
    pads = pads_from_order([nm for nm in order if nm in known], region)
    netlist = mapped_netlist(mapped, pads)
    gp = GlobalPlacer().place(netlist, region).positions
    base = detailed_place(netlist, gp, improvement_passes=0)

    def run_anneal():
        simulated_annealing(copy.deepcopy(base), netlist, seed=0,
                            moves_per_cell=12)

    def run_detailed():
        detailed_place(netlist, gp, improvement_passes=8)

    wire_model = WireCapModel()
    for node in mapped.topological_order():
        p = base.positions.get(node.name) or pads.get(node.name)
        if p is not None:
            node.position = p
    saved = {g.name: g.position for g in mapped.gates}

    def moves(seed: int = 11, count: int = 40):
        rng = random.Random(seed)
        gates = sorted(saved)
        for _ in range(count):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            yield name, Point(p.x + rng.uniform(-3, 3),
                              p.y + rng.uniform(-3, 3))

    def run_sta_full():
        for name, p in moves():
            mapped[name].position = p
            analyze(mapped, wire_model=wire_model)
        for name, p in saved.items():
            mapped[name].position = p

    def run_sta_incremental():
        engine = IncrementalTiming(mapped, wire_model=wire_model)
        for name, p in moves():
            engine.set_position(name, p)
            engine.update()
        for name, p in saved.items():
            mapped[name].position = p

    return {
        "anneal": _best_of(run_anneal, repeats),
        "detailed_improve": _best_of(run_detailed, repeats),
        "sta_moves": _best_of(run_sta_incremental, repeats),
        "sta_moves_naive": _best_of(run_sta_full, repeats),
    }


def mapping_backend_rows(
    circuit: str = "C880",
    synth: str = "synth:19910611:10000",
    repeats: int = 2,
) -> "tuple[Dict[str, float], Dict[str, object]]":
    """Covering-backend rows: tree vs cuts vs fusion wall + QoR.

    Times the three interchangeable covering backends on the same
    decomposed subject graphs — one curated suite circuit and one
    Rent's-rule generated workload — plus the NPN match-table build
    (the cut backend's only per-library setup cost; the timed mapper
    rows run against the warm memoised table, matching what a flow or
    serve user sees after the first job).  Returns ``(timings, qor)``:
    ``map.*`` wall rows for ``timings_s`` and a per-circuit QoR dict
    (mapped cell area per backend) for the ``mapping`` section, so
    trajectory diffs can tell a wall-time regression from a quality
    regression.  Fusion runs only on the curated circuit — on the 10k
    workload it would double the dominant tree+cuts wall while its QoR
    is already determined by the per-cone winners.  ``synth=""`` skips
    the generated workload (``check_perf_regression`` does this for its
    quick re-run).
    """
    from repro.map.cuts import CutMapper, FusionMapper, NpnMatchTable

    library = big_library()
    timings: Dict[str, float] = {}
    qor: Dict[str, object] = {}

    k = CutMapper(library).k
    timings["map.cuts.table_build"] = _best_of(
        lambda: NpnMatchTable(library, k), repeats)

    def timed_map(make_mapper, subject, reps):
        """Best-of wall plus the last run's result (QoR comes free —
        mapping the 10k workload twice per backend would double a
        multi-minute snapshot for identical, deterministic output)."""
        best, result = float("inf"), None
        for _ in range(reps):
            start = perf_counter()
            result = make_mapper().map(subject)
            best = min(best, perf_counter() - start)
        return best, result

    jobs = [(circuit, True)]
    if synth:
        jobs.append((synth, False))
    for name, with_fusion in jobs:
        slug = name.replace("synth:", "synth_").replace(":", "_")
        subject = decompose_to_subject(build_circuit(name))
        reps = repeats if with_fusion else max(1, repeats - 1)
        row: Dict[str, object] = {"gates": sum(
            1 for n in subject.nodes if n.is_gate)}

        wall, tree = timed_map(
            lambda: MisAreaMapper(library), subject, reps)
        timings[f"map.tree.{slug}"] = wall
        row["tree_area"] = round(tree.mapped.total_cell_area(), 1)

        wall, cuts = timed_map(
            lambda: CutMapper(library, mode="area"), subject, reps)
        timings[f"map.cuts.{slug}"] = wall
        row["cuts_area"] = round(cuts.mapped.total_cell_area(), 1)

        if with_fusion:
            wall, fused = timed_map(
                lambda: FusionMapper(library, mode="area"), subject, reps)
            timings[f"map.fusion.{slug}"] = wall
            row["fusion_area"] = round(
                fused.mapped.total_cell_area(), 1)
        qor[slug] = row
    return timings, qor


def serve_snapshot(circuit: str = "C880",
                   requests: int = 6) -> Dict[str, object]:
    """Latency percentiles from an in-process mapping service.

    Submits the circuit ``requests`` times, clearing the result cache
    between submissions so every request is a genuine mapping and the
    server's always-on ``serve.latency_s`` / ``serve.queue_wait_s``
    histograms accumulate real mass; one final uncleaned repeat records
    the cache-hit path.  The recorded p50/p90/p99 are what a ``metrics``
    scrape of a production server answers for this workload.
    """
    from repro.serve.client import Client

    assert not OBS.enabled
    with Client.in_process(workers=1) as client:
        for i in range(requests):
            if i:
                client.server.cache.clear()
            response = client.map_circuit(circuit, flow="lily")
            if not response.get("ok"):
                raise RuntimeError(f"serve row failed: {response}")
        hit = client.map_circuit(circuit, flow="lily")
        snapshot_now = client.metrics()
    rows: Dict[str, object] = {
        "circuit": circuit,
        "requests": requests,
        "final_request_cache_hit": bool(hit.get("cache_hit")),
    }
    for name in ("serve.latency_s", "serve.queue_wait_s"):
        summary = snapshot_now.get("histograms", {}).get(name)
        if not summary or not summary.get("count"):
            continue
        short = name.split(".", 1)[1]
        rows[f"{short}_count"] = summary["count"]
        for quantile in ("p50", "p90", "p99"):
            rows[f"{short}_{quantile}"] = round(summary[quantile], 6)
    return rows


def cluster_snapshot(shards: int = 2, jobs: int = 32,
                     workers: int = 2) -> Dict[str, object]:
    """A mini cluster soak: concurrent replay of a repeating job mix.

    Routes ``jobs`` requests (drawn round-robin from a small pool of
    fast suite circuits, so most repeat) through an in-process
    :class:`~repro.serve.cluster.ClusterRouter` from ``2 * shards *
    workers`` client threads, retrying shed answers with their
    ``retry_after_s`` hint.  Records the replay wall time, the hit
    rate and the cluster-aggregate ``serve.latency_s`` percentiles —
    the serving-trajectory numbers ``bench_trajectory.py --watch
    serve.`` tracks across artifacts.
    """
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import Client, ClusterConfig, ClusterRouter
    from repro.serve.jobs import JobSpec

    assert not OBS.enabled
    pool = [
        JobSpec.from_dict({"circuit": circuit, "flow": flow,
                           "mode": "area"})
        for circuit in ("misex1", "b9", "e64", "duke2")
        for flow in ("mis", "lily")
    ]
    mix = [pool[i % len(pool)] for i in range(jobs)]
    router = ClusterRouter(ClusterConfig(
        shards=shards, workers=workers,
        max_queue_depth=max(4, 2 * workers)))
    client = Client.wrap(router)
    try:
        def run_one(spec):
            for _ in range(60):
                envelope = client.submit(spec, timeout=600)
                if envelope.get("status") != "overloaded":
                    return envelope
                time.sleep(min(envelope.get("retry_after_s", 0.1), 2.0))
            return envelope

        start = perf_counter()
        with ThreadPoolExecutor(max_workers=2 * shards * workers) as pool_:
            envelopes = list(pool_.map(run_one, mix))
        replay_s = perf_counter() - start
        failed = [e for e in envelopes if not e.get("ok")]
        if failed:
            raise RuntimeError(f"cluster row failed: {failed[0]}")
        stats = client.stats()
        metrics = client.metrics()
    finally:
        router.shutdown()
    latency = metrics["histograms"].get("serve.latency_s", {})
    rows: Dict[str, object] = {
        "shards": shards,
        "workers_per_shard": workers,
        "jobs": jobs,
        "unique": len(pool),
        "replay_s": round(replay_s, 6),
        "hit_rate": round(
            stats["cache"]["hits"] / max(1, stats["counters"]["jobs"]), 4),
        "shed": stats["counters"].get("shed", 0),
    }
    for quantile in ("p50", "p90", "p99"):
        if latency.get(quantile) is not None:
            rows[f"latency_{quantile}_s"] = round(latency[quantile], 6)
    return rows


def suite_snapshot(procs: int = 4) -> Dict[str, object]:
    """Time a full Table 1 run sequentially and with a process pool.

    Both runs collect per-flow observability reports (the workers bring
    their own sessions), so the recorded wall times carry the same
    tracing overhead and the artifact keeps per-circuit phase times.
    """
    from repro.circuits.suite import TABLE1_CIRCUITS
    from repro.flow.tables import run_table1
    from repro.obs import merge_reports

    assert not OBS.enabled
    seq_obs = []
    OBS.enable()
    try:
        start = perf_counter()
        run_table1(verify=False, obs_out=seq_obs)
        seq_s = perf_counter() - start
    finally:
        OBS.disable()
    par_obs = []
    start = perf_counter()
    run_table1(verify=False, procs=procs, obs_out=par_obs)
    par_s = perf_counter() - start

    circuits: Dict[str, Dict[str, float]] = {}
    for report in seq_obs:
        row = circuits.setdefault(report.circuit, {})
        row[f"{report.flow}_wall_s"] = round(report.wall_s, 6)
        for phase in ("map", "backend"):
            p = report.phase(phase)
            if p is not None:
                row[f"{report.flow}_{phase}_s"] = round(p.total_s, 6)
    merged = merge_reports(par_obs)
    return {
        "circuits_run": list(TABLE1_CIRCUITS),
        "procs": procs,
        # Pool speedup is bounded by the host: on a 1-CPU box the
        # parallel run only measures pool overhead.
        "host_cpus": os.cpu_count(),
        "table1_seq_s": round(seq_s, 6),
        f"table1_procs{procs}_s": round(par_s, 6),
        "speedup": round(seq_s / par_s, 3) if par_s else 0.0,
        "worker_wall_sum_s": round(merged.wall_s, 6) if merged else 0.0,
        "circuits": circuits,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf_snapshot")
    parser.add_argument("out", nargs="?", default=None,
                        help="output path (default BENCH_PR<n>.json)")
    parser.add_argument("--pr", type=int, default=10,
                        help="PR number stamped into the artifact")
    parser.add_argument("--circuit", default="C880")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=1,
                        help="threads for the parallel cone match pre-warm "
                             "in the mapper rows")
    parser.add_argument("--suite", action="store_true",
                        help="also time a full Table 1 run sequentially "
                             "vs --procs N and record per-circuit phases")
    parser.add_argument("--procs", type=int, default=4,
                        help="process-pool width for --suite")
    parser.add_argument("--serve-requests", type=int, default=6,
                        metavar="N",
                        help="requests driven through the in-process "
                             "mapping service for the latency-percentile "
                             "rows (0 skips the serve section)")
    parser.add_argument("--scaling", type=int, nargs="*", default=None,
                        metavar="GATES",
                        help="also run benchmarks/scaling.py at these "
                             "gate counts (default sizes with a bare "
                             "flag) and merge its scale.* rows into the "
                             "artifact")
    parser.add_argument("--synth-scaling", type=int, nargs="+",
                        default=None, metavar="GATES",
                        help="also run the generator-backed scale.synth.* "
                             "and scale.route.* rows at these Rent's-rule "
                             "circuit sizes")
    parser.add_argument("--max-gates", type=int, default=None,
                        metavar="N",
                        help="raise the scaling accident guard (forwarded "
                             "to scaling_rows for 1M-gate opt-ins)")
    parser.add_argument("--cluster-shards", type=int, default=2,
                        metavar="N",
                        help="shard count for the cluster soak rows "
                             "(0 skips the cluster section)")
    parser.add_argument("--cluster-jobs", type=int, default=32,
                        metavar="N",
                        help="jobs replayed through the cluster rows "
                             "(default 32)")
    parser.add_argument("--mapping-synth", default="synth:19910611:10000",
                        metavar="SPEC",
                        help="Rent's-rule workload for the covering-"
                             "backend map.* rows (empty string runs "
                             "them on --circuit only)")
    args = parser.parse_args(argv)
    out = args.out or f"BENCH_PR{args.pr}.json"

    from repro.perf.vec import kernel_backend_info

    timings = snapshot(args.circuit, args.repeats, jobs=args.jobs)
    scale_sizes = None
    if args.scaling is not None or args.synth_scaling is not None:
        from scaling import DEFAULT_MAX_GATES, scaling_rows

        kwargs = {}
        if args.max_gates is not None:
            kwargs["max_gates"] = args.max_gates
        elif args.synth_scaling:
            kwargs["max_gates"] = max(
                DEFAULT_MAX_GATES, *args.synth_scaling)
        scale_timings, scale_sizes = scaling_rows(
            (args.scaling or [1000, 5000, 20000])
            if args.scaling is not None else [],
            repeats=args.repeats,
            synth_sizes=args.synth_scaling,
            **kwargs,
        )
        timings.update(scale_timings)
    map_timings, map_qor = mapping_backend_rows(
        args.circuit, synth=args.mapping_synth,
        repeats=max(1, args.repeats - 1))
    timings.update(map_timings)
    doc = {
        "pr": args.pr,
        "circuit": args.circuit,
        "repeats": args.repeats,
        "python": platform.python_version(),
        # Which array backends the struct-of-arrays kernels ran on: any
        # two artifacts state the configurations they compare.
        "kernels": kernel_backend_info(),
        "timings_s": {k: round(v, 6) for k, v in sorted(timings.items())},
    }
    if scale_sizes is not None:
        doc["scaling_sizes"] = scale_sizes
    # Covering-backend QoR next to the map.* walls: a faster mapper
    # that covers worse is a regression the wall rows alone would hide.
    doc["mapping"] = map_qor
    if args.serve_requests:
        doc["serve"] = serve_snapshot(args.circuit,
                                      requests=args.serve_requests)
        # Mirror the serving percentiles into timings_s so
        # bench_trajectory.py --watch serve. tracks them like any row.
        for quantile in ("p50", "p90", "p99"):
            value = doc["serve"].get(f"latency_s_{quantile}")
            if value is not None:
                doc["timings_s"][f"serve.latency_{quantile}"] = value
    if args.cluster_shards:
        doc["cluster"] = cluster_snapshot(shards=args.cluster_shards,
                                          jobs=args.cluster_jobs)
        doc["timings_s"]["serve.cluster_replay"] = \
            doc["cluster"]["replay_s"]
        for quantile in ("p50", "p90", "p99"):
            value = doc["cluster"].get(f"latency_{quantile}_s")
            if value is not None:
                doc["timings_s"][f"serve.cluster_latency_{quantile}"] = \
                    value
    if args.suite:
        doc["suite"] = suite_snapshot(procs=args.procs)
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out}")
    for name, seconds in sorted(timings.items()):
        print(f"  {name:<24}{seconds:>10.4f}s")
    for slug, row in doc["mapping"].items():
        areas = "  ".join(f"{key[:-5]} {value:.0f}"
                          for key, value in row.items()
                          if key.endswith("_area"))
        print(f"  map QoR {slug:<15} {areas}")
    if args.serve_requests:
        s = doc["serve"]
        print(f"  serve latency_s         p50 {s['latency_s_p50']:.4f}  "
              f"p90 {s['latency_s_p90']:.4f}  "
              f"p99 {s['latency_s_p99']:.4f}  "
              f"({s['latency_s_count']} mapped)")
    if args.cluster_shards:
        c = doc["cluster"]
        print(f"  cluster {c['shards']}-shard replay "
              f"{c['replay_s']:>8.4f}s  hit rate {c['hit_rate']:.1%}  "
              f"p99 {c.get('latency_p99_s', 0):.4f}s")
    if args.suite:
        s = doc["suite"]
        print(f"  table1 sequential     {s['table1_seq_s']:>10.4f}s")
        print(f"  table1 --procs {args.procs:<2}     "
              f"{s[f'table1_procs{args.procs}_s']:>10.4f}s "
              f"(x{s['speedup']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
