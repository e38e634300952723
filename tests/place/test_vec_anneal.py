"""Annealing/detailed-placement engines vs their full-recompute oracles.

``simulated_annealing`` scores moves against a per-net box cache
(:class:`repro.perf.incremental.NetBoxCache`); it promises
deltas bitwise identical to re-folding every scored net — and therefore
an identical accept/reject sequence and an identical final placement to
the full-recompute oracle of ``oracles.place``.  Every comparison here
is exact.
"""

from __future__ import annotations

import copy

import pytest

from oracles.place import anneal_reference, detailed_place_reference
from repro.circuits.random_logic import random_network
from repro.flow.pipeline import mis_flow
from repro.library.standard import big_library
from repro.place.anneal import simulated_annealing
from repro.place.detailed import detailed_place
from repro.place.hypergraph import mapped_netlist


@pytest.fixture(scope="module")
def placed_case():
    net = random_network("veca", 7, 4, 30, seed=11)
    flow = mis_flow(net, big_library(), verify=False)
    netlist = mapped_netlist(flow.mapped, flow.backend.pad_positions)
    return flow, netlist


def _anneal(placement, netlist, engine=simulated_annealing):
    work = copy.deepcopy(placement)
    stats = engine(work, netlist, seed=5, moves_per_cell=4)
    return work, stats


class TestEngineEquivalence:
    def test_engine_matches_full_recompute(self, placed_case):
        flow, netlist = placed_case
        base = flow.backend.detailed
        fast, fast_stats = _anneal(base, netlist)
        ref, ref_stats = _anneal(base, netlist, anneal_reference)
        assert fast.positions == ref.positions
        assert fast_stats.initial_hpwl == ref_stats.initial_hpwl
        assert fast_stats.final_hpwl == ref_stats.final_hpwl
        assert fast_stats.moves_tried == ref_stats.moves_tried
        assert fast_stats.moves_accepted == ref_stats.moves_accepted

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_pairs(self, seed, seeded_rng):
        rng = seeded_rng("veca", "pairs", seed)
        net = random_network(f"vecp{seed}", 6, 3,
                             16 + rng.randrange(14),
                             seed=rng.randrange(2 ** 31))
        flow = mis_flow(net, big_library(), verify=False)
        netlist = mapped_netlist(flow.mapped, flow.backend.pad_positions)
        base = flow.backend.detailed
        fast, _ = _anneal(base, netlist)
        ref, _ = _anneal(base, netlist, anneal_reference)
        assert fast.positions == ref.positions

    def test_positions_dict_restored_after_run(self, placed_case):
        # The engine must never leave a wrapper over
        # placement.positions (an earlier write-through-mirror variant
        # did): the attribute stays a plain dict (deepcopy-able, no
        # dangling reference to an engine table).
        flow, netlist = placed_case
        work = copy.deepcopy(flow.backend.detailed)
        simulated_annealing(work, netlist, seed=2, moves_per_cell=2)
        assert type(work.positions) is dict

    def test_restored_even_on_engine_error(self, placed_case):
        flow, netlist = placed_case
        work = copy.deepcopy(flow.backend.detailed)
        bad = netlist.__class__(
            movables=netlist.movables, sizes=netlist.sizes,
            nets=netlist.nets, fixed=netlist.fixed)
        try:
            simulated_annealing(work, bad, seed=2, moves_per_cell=-1)
        except Exception:
            pass
        assert type(work.positions) is dict


class TestDetailedPlaceVec:
    @pytest.mark.parametrize("passes", [0, 2])
    def test_vec_matches_naive(self, passes, placed_case):
        flow, netlist = placed_case
        seeds = dict(flow.backend.detailed.positions)
        fast = detailed_place(netlist, seeds, improvement_passes=passes)
        ref = detailed_place_reference(netlist, seeds,
                                       improvement_passes=passes)
        assert fast.positions == ref.positions
