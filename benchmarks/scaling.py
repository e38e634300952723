"""Scaling workload: the struct-of-arrays kernels at 1k–100k+ gates.

Generates seeded :func:`repro.circuits.random_logic.random_network`
circuits, identity-maps their NAND2/INV subject graphs onto ``nand2`` /
``inv1`` library cells (tree matching would dominate the wall at 20k
gates and is benchmarked elsewhere), legalises a placement, and then
times the placement/STA hot rows at each size.  Where a naive reference
still lives in ``src`` it is timed too (a ``_naive`` row), after a
bitwise check of the two results:

* ``scale.hpwl`` — total netlist HPWL as a :class:`repro.perf.vec.PinTable`
  coordinate refresh + index-array fold, vs the per-net Python fold
  (``scale.hpwl_naive``);
* ``scale.anneal_cost`` — a short simulated-annealing run (capped at
  ``ANNEAL_MAX_CELLS``; move scoring is dict-bound by design, see
  ``docs/SCALING.md`` — the row guards against regressions at scale);
* ``scale.quad_assembly`` — sparse COO assembly of the quadratic
  placement system;
* ``scale.sta_full`` — a full forward STA sweep through
  :class:`repro.timing.array_sta.ArraySTA` (flattening amortised, as
  :class:`~repro.timing.incremental.IncrementalTiming` holds it) vs
  :func:`repro.timing.sta.analyze`.

``--synth-gates`` adds generator-backed sizes: Rent's-rule circuits
from :func:`repro.circuits.synth.synth_network` (deterministic per
seed, realistic fanout tails) pushed through the same identity-map and
placement pipeline, which is how the 100k–1M-gate rows are produced
without multi-hour mapping runs.  Each synth size times:

* ``scale.synth.build`` — raw generator throughput (netlist object
  construction included);
* ``scale.route.wirelength`` / ``scale.route.spanning`` — the
  vectorized netlist wirelength folds of
  :func:`repro.route.wirelength.netlist_wirelength` (Chung–Hwang
  Steiner model and the batched Prim spanning kernel) vs the per-net
  Python estimators (``*_naive``);
* ``scale.synth.sta_moves`` — a seeded gate-move sweep through the
  level-batched incremental-STA frontier
  (:class:`~repro.timing.incremental.IncrementalTiming`), required times
  included.

Every timed pair is also *checked*: the bench asserts bitwise equality
of the kernel's and the reference's results before recording a row.
The anneal, quadratic-assembly and STA-move rows have no naive twin in
``src`` any more; their oracles are tier-1 tests
(``tests/place/test_vec_anneal.py``, ``tests/perf/test_vec_kernels.py``,
``tests/timing/test_vec_frontier.py``).  Row names carry
the gate-count suffix (``scale.hpwl_20000``); the largest size (per
family) also writes the canonical unsuffixed rows that
``benchmarks/check_perf_regression.py`` and ``tools/bench_trajectory.py``
watch.  Per-size metadata records the process peak RSS after the
size's rows, so memory growth is tracked next to wall time.

Sizes above ``--max-gates`` (default 200k) are refused with a loud
error: the 1M-gate run is opt-in (``--max-gates 1000000``), not a
typo-reachable default.

Run from the repo root::

    PYTHONPATH=src python benchmarks/scaling.py [out.json]
        [--gates 1000 5000 20000] [--synth-gates 10000 100000]
        [--max-gates 200000] [--repeats 3] [--quick] [--pr 9]
"""

from __future__ import annotations

import argparse
import copy
import json
import platform
import random
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.area.estimate import mapped_image
from repro.circuits.random_logic import random_network
from repro.circuits.synth import synth_network
from repro.flow.pipeline import pads_from_order
from repro.geometry import Point
from repro.library.standard import big_library
from repro.map.netlist import MappedNetwork
from repro.network.decompose import decompose_to_subject
from repro.place.detailed import detailed_place
from repro.place.hypergraph import mapped_netlist
from repro.timing.model import WireCapModel

#: Seed for the scaling circuits (fixed: artifacts must be comparable).
SCALE_SEED = 1991

#: The annealing row is move-scoring-bound, not fold-bound; cap its size.
ANNEAL_MAX_CELLS = 5000

#: Sizes above this are refused unless the guard is raised explicitly.
DEFAULT_MAX_GATES = 200_000

#: Moves in the incremental-STA sweep row (fixed: rows must compare).
STA_SWEEP_MOVES = 120


def _peak_rss_mb() -> Optional[float]:
    """Process peak RSS in MB (``None`` where rusage is unavailable)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KB on Linux
        peak //= 1024
    return round(peak / 1024.0, 1)


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def identity_map(subject, library) -> MappedNetwork:
    """Map a subject graph 1:1 onto ``nand2``/``inv1`` instances.

    Every NAND2 subject node becomes one ``nand2`` gate and every INV an
    ``inv1`` — the trivial cover, skipping tree matching entirely.  The
    result is a legitimate :class:`MappedNetwork` for the layout/timing
    substrates, which is all the scaling rows exercise.
    """
    cells = {c.name: c for c in library.cells}
    nand2 = cells["nand2"]
    inv1 = cells["inv1"]
    mapped = MappedNetwork(subject.name)
    built = {}
    for node in subject.topological_order():
        if node.is_pi:
            built[node.uid] = mapped.add_primary_input(node.name)
        elif node.is_po:
            built[node.uid] = mapped.add_primary_output(
                node.name, built[node.fanins[0].uid]
            )
        elif node.is_constant:
            built[node.uid] = mapped.add_constant(
                f"g{node.uid}", node.type.value == "const1"
            )
        else:
            cell = nand2 if len(node.fanins) == 2 else inv1
            built[node.uid] = mapped.add_gate(
                f"g{node.uid}", cell, [built[f.uid] for f in node.fanins]
            )
    return mapped


def build_scaling_circuit(gates: int, seed: int = SCALE_SEED):
    """A placed identity-mapped circuit of roughly ``gates`` gates.

    Returns ``(mapped, netlist, placement, region)`` with gate and pad
    positions already written onto the mapped nodes (the STA rows read
    them live).
    """
    num_inputs = max(16, gates // 64)
    num_outputs = max(8, gates // 128)
    net = random_network(
        f"scale{gates}", num_inputs, num_outputs,
        max(num_outputs, gates // 5), seed=seed,
    )
    subject = decompose_to_subject(net)
    mapped = identity_map(subject, big_library())
    region = mapped_image(mapped.total_cell_area())
    order = sorted(
        n.name for n in mapped.primary_inputs + mapped.primary_outputs
    )
    pads = pads_from_order(order, region)
    netlist = mapped_netlist(mapped, pads)
    seed_positions = {
        name: region.center for name in netlist.movables
    }
    placement = detailed_place(netlist, seed_positions,
                               improvement_passes=0)
    for node in mapped.nodes:
        p = placement.positions.get(node.name) or pads.get(node.name)
        if p is not None:
            node.position = p
    return mapped, netlist, placement, region


def _hpwl_rows(netlist, placement, repeats: int) -> Dict[str, float]:
    from repro.perf.vec import PinTable
    from repro.route.wirelength import netlist_hpwl_naive

    nets = netlist.nets
    positions = placement.positions
    fixed = netlist.fixed
    table = PinTable(nets, positions, fixed)

    def vec_fold() -> float:
        table.refresh(positions)
        return table.total_hpwl()

    want = netlist_hpwl_naive(nets, positions, fixed)
    got = vec_fold()
    if got != want:
        raise AssertionError(f"HPWL kernels diverge: vec={got!r} "
                             f"naive={want!r}")
    return {
        "scale.hpwl": _best_of(vec_fold, repeats),
        "scale.hpwl_naive": _best_of(
            lambda: netlist_hpwl_naive(nets, positions, fixed), repeats),
    }


def _anneal_rows(netlist, placement, repeats: int) -> Dict[str, float]:
    from repro.place.anneal import simulated_annealing

    def run():
        work = copy.deepcopy(placement)
        simulated_annealing(work, netlist, seed=3, moves_per_cell=2)

    return {"scale.anneal_cost": _best_of(run, repeats)}


def _quad_rows(netlist, region, repeats: int) -> Dict[str, float]:
    from repro.place.quadratic import QuadraticSystem

    return {
        "scale.quad_assembly": _best_of(
            lambda: QuadraticSystem(netlist, region), repeats),
    }


def _sta_rows(mapped, repeats: int) -> Dict[str, float]:
    from repro.timing.array_sta import ArraySTA
    from repro.timing.sta import analyze

    wire_model = WireCapModel()
    engine = ArraySTA(mapped, wire_model=wire_model)
    got = engine.analyze()
    want = analyze(mapped, wire_model=wire_model)
    if (got.arrivals != want.arrivals or got.loads != want.loads
            or got.critical_delay != want.critical_delay
            or got.critical_po != want.critical_po):
        raise AssertionError("STA engines diverge under vec kernels")
    return {
        "scale.sta_full": _best_of(engine.analyze, repeats),
        "scale.sta_full_naive": _best_of(
            lambda: analyze(mapped, wire_model=wire_model), repeats),
    }


def build_synth_circuit(gates: int, seed: int = SCALE_SEED):
    """A placed identity-mapped Rent's-rule circuit of ``gates`` gates.

    Same downstream pipeline as :func:`build_scaling_circuit`, but the
    netlist comes from :func:`repro.circuits.synth.synth_network` — the
    generator's heavy-tailed fanout and Rent-exponent locality give the
    routing/STA rows realistic net statistics at sizes the curated
    suite cannot reach.
    """
    net = synth_network(gates, seed=seed)
    subject = decompose_to_subject(net)
    mapped = identity_map(subject, big_library())
    region = mapped_image(mapped.total_cell_area())
    order = sorted(
        n.name for n in mapped.primary_inputs + mapped.primary_outputs
    )
    pads = pads_from_order(order, region)
    netlist = mapped_netlist(mapped, pads)
    seed_positions = {
        name: region.center for name in netlist.movables
    }
    placement = detailed_place(netlist, seed_positions,
                               improvement_passes=0)
    for node in mapped.nodes:
        p = placement.positions.get(node.name) or pads.get(node.name)
        if p is not None:
            node.position = p
    return mapped, netlist, placement, region


def _route_rows(netlist, placement, repeats: int) -> Dict[str, float]:
    from repro.perf.vec import PinTable
    from repro.route.wirelength import (
        netlist_wirelength,
        netlist_wirelength_naive,
    )

    nets = netlist.nets
    positions = placement.positions
    fixed = netlist.fixed
    table = PinTable(nets, positions, fixed)
    rows: Dict[str, float] = {}
    for model, key in (("steiner", "wirelength"), ("spanning", "spanning")):
        def vec_fold(model=model):
            table.refresh(positions)
            return netlist_wirelength(nets, positions, fixed,
                                      model=model, table=table)

        def naive_fold(model=model):
            return netlist_wirelength_naive(nets, positions, fixed,
                                            model=model)

        got = vec_fold()
        want = naive_fold()
        if got != want:
            raise AssertionError(
                f"{model} wirelength kernels diverge: vec={got!r} "
                f"naive={want!r}")
        rows[f"scale.route.{key}"] = _best_of(vec_fold, repeats)
        rows[f"scale.route.{key}_naive"] = _best_of(naive_fold, repeats)
    return rows


def _sta_move_rows(mapped, repeats: int,
                   num_moves: int = STA_SWEEP_MOVES) -> Dict[str, float]:
    """The incremental-STA frontier over one seeded move sequence
    (positions restored afterwards)."""
    from repro.timing.incremental import IncrementalTiming

    wire_model = WireCapModel()
    gates = sorted(g.name for g in mapped.gates)
    saved = {n.name: n.position for n in mapped.nodes}
    rng = random.Random(4207)
    sequence = [
        (gates[rng.randrange(len(gates))],
         rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        for _ in range(num_moves)
    ]

    def restore():
        for name, pos in saved.items():
            mapped[name].position = pos

    def timed() -> float:
        restore()
        engine = IncrementalTiming(mapped, wire_model=wire_model)
        start = perf_counter()  # construction outside the clock
        for name, dx, dy in sequence:
            p = mapped[name].position
            engine.set_position(name, Point(p.x + dx, p.y + dy))
            engine.update()
        engine.required()
        return perf_counter() - start

    rows = {
        "scale.synth.sta_moves": min(timed() for _ in range(repeats)),
    }
    restore()
    return rows


def scaling_rows(
    gate_sizes: List[int],
    repeats: int = 3,
    synth_sizes: Optional[List[int]] = None,
    max_gates: int = DEFAULT_MAX_GATES,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Timing rows (and circuit metadata) for every requested size.

    ``gate_sizes`` drive the curated random-logic rows, ``synth_sizes``
    the generator-backed ``scale.synth.*`` / ``scale.route.*`` rows.
    The largest size of each family also writes the canonical
    unsuffixed rows the regression gates watch.  Any size above
    ``max_gates`` aborts loudly — raising the guard is an explicit
    opt-in for the 1M-gate runs.
    """
    synth_sizes = list(synth_sizes or [])
    over = [g for g in list(gate_sizes) + synth_sizes if g > max_gates]
    if over:
        raise SystemExit(
            f"refusing to build {max(over)} gates (guard: {max_gates}); "
            f"pass --max-gates {max(over)} to opt in to runs this large")
    timings: Dict[str, float] = {}
    sizes: Dict[str, object] = {}
    largest = max(gate_sizes) if gate_sizes else None
    for gates in gate_sizes:
        mapped, netlist, placement, region = build_scaling_circuit(gates)
        rows: Dict[str, float] = {}
        rows.update(_hpwl_rows(netlist, placement, repeats))
        rows.update(_quad_rows(netlist, region, repeats))
        rows.update(_sta_rows(mapped, repeats))
        if len(netlist.movables) <= ANNEAL_MAX_CELLS:
            rows.update(_anneal_rows(netlist, placement,
                                     max(1, repeats - 1)))
        sizes[str(gates)] = {
            "gates": len(mapped.gates),
            "nets": len(netlist.nets),
            "pins": sum(len(net) for net in netlist.nets),
            "peak_rss_mb": _peak_rss_mb(),
        }
        for name, seconds in rows.items():
            timings[f"{name}_{gates}"] = seconds
            if gates == largest:
                timings[name] = seconds
    largest_synth = max(synth_sizes) if synth_sizes else None
    for gates in synth_sizes:
        rows = {
            "scale.synth.build": _best_of(
                lambda: synth_network(gates, seed=SCALE_SEED), repeats),
        }
        mapped, netlist, placement, _region = build_synth_circuit(gates)
        rows.update(_route_rows(netlist, placement, repeats))
        rows.update(_sta_move_rows(mapped, repeats))
        sizes[f"synth{gates}"] = {
            "gates": len(mapped.gates),
            "nets": len(netlist.nets),
            "pins": sum(len(net) for net in netlist.nets),
            "peak_rss_mb": _peak_rss_mb(),
        }
        for name, seconds in rows.items():
            timings[f"{name}_{gates}"] = seconds
            if gates == largest_synth:
                timings[name] = seconds
    return timings, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scaling")
    parser.add_argument("out", nargs="?", default=None,
                        help="output path (default: print only)")
    parser.add_argument("--gates", type=int, nargs="+",
                        default=[1000, 5000, 20000],
                        help="target gate counts (default 1000 5000 "
                             "20000)")
    parser.add_argument("--synth-gates", type=int, nargs="+", default=[],
                        metavar="GATES",
                        help="generator-backed sizes for the "
                             "scale.synth.* / scale.route.* rows "
                             "(e.g. 10000 100000)")
    parser.add_argument("--max-gates", type=int,
                        default=DEFAULT_MAX_GATES,
                        help="refuse sizes above this (default "
                             f"{DEFAULT_MAX_GATES}); raise explicitly "
                             "for 1M-gate runs")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="single repeat, skip the annealing rows "
                             "(CI smoke)")
    parser.add_argument("--pr", type=int, default=7,
                        help="PR number stamped into the artifact")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else args.repeats
    global ANNEAL_MAX_CELLS
    if args.quick:
        ANNEAL_MAX_CELLS = 0

    from repro.perf.vec import kernel_backend_info

    timings, sizes = scaling_rows(args.gates, repeats=repeats,
                                  synth_sizes=args.synth_gates,
                                  max_gates=args.max_gates)
    doc = {
        "pr": args.pr,
        "seed": SCALE_SEED,
        "repeats": repeats,
        "python": platform.python_version(),
        "kernels": kernel_backend_info(),
        "scaling_sizes": sizes,
        "timings_s": {k: round(v, 6) for k, v in sorted(timings.items())},
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    for name in sorted(timings):
        if "_naive" in name:
            continue
        base, _, suffix = name.rpartition("_")
        if suffix.isdigit():
            naive = f"{base}_naive_{suffix}"
        else:
            naive = f"{name}_naive"
        twin = timings.get(naive)
        speed = f"  x{twin / timings[name]:.2f}" if twin else ""
        print(f"  {name:<28}{timings[name]:>10.4f}s{speed}")
    for key, meta in sizes.items():
        rss = meta.get("peak_rss_mb")
        rss_s = f"  peak_rss {rss:.0f}MB" if rss is not None else ""
        print(f"  [{key}] gates={meta['gates']} nets={meta['nets']} "
              f"pins={meta['pins']}{rss_s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
