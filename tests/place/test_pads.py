"""I/O pad placement."""

from __future__ import annotations

import random

import pytest

from repro.circuits.arith import ripple_carry_adder
from repro.geometry import Rect
from repro.network.decompose import decompose_to_subject
from repro.place.pads import io_affinity_order, pads_from_order, perimeter_slots

REGION = Rect(0, 0, 100, 60)


def on_boundary(p, region, tol=1e-9):
    return (
        abs(p.x - region.lx) < tol
        or abs(p.x - region.ux) < tol
        or abs(p.y - region.ly) < tol
        or abs(p.y - region.uy) < tol
    )


class TestPerimeterSlots:
    def test_count(self):
        assert len(perimeter_slots(REGION, 7)) == 7
        assert perimeter_slots(REGION, 0) == []

    def test_all_on_boundary(self):
        for p in perimeter_slots(REGION, 23):
            assert on_boundary(p, REGION)

    def test_evenly_spaced(self):
        slots = perimeter_slots(REGION, 16)
        # perimeter = 320, step = 20: consecutive slots 20 apart along the
        # boundary; just check distinctness and the first position.
        assert tuple(slots[0]) == (0, 0)
        assert len({tuple(s) for s in slots}) == 16


class TestAffinityOrder:
    def test_related_terminals_adjacent(self):
        """In an adder, a-bit, b-bit and sum share cones; the spectral
        order should place strongly-related terminals near one another."""
        net = ripple_carry_adder(4)
        order = io_affinity_order(net)
        assert sorted(order) == sorted(
            [n.name for n in net.primary_inputs]
            + [n.name for n in net.primary_outputs]
        )

    def test_small_networks(self):
        net = ripple_carry_adder(1)
        order = io_affinity_order(net)
        assert len(order) == len(set(order)) == 5  # a0,b0,cin,s0,cout


def _terminal_order(net, method):
    """The connectivity order, or one of the degraded orders of ablation
    A5: declaration order (``natural``) or a seeded shuffle of it."""
    if method == "connectivity":
        return io_affinity_order(net)
    order = [n.name for n in net.primary_inputs + net.primary_outputs]
    if method == "random":
        random.Random(123).shuffle(order)
    return order


class TestAssignPads:
    """``pads_from_order`` over the connectivity order and the degraded
    orders the pad ablation feeds it."""

    @pytest.mark.parametrize("method", ["connectivity", "natural", "random"])
    def test_every_terminal_on_boundary(self, method):
        net = ripple_carry_adder(3)
        subject = decompose_to_subject(net)
        pads = pads_from_order(_terminal_order(subject, method), REGION)
        names = {n.name for n in subject.primary_inputs}
        names |= {n.name for n in subject.primary_outputs}
        assert set(pads) == names
        for p in pads.values():
            assert on_boundary(p, REGION)

    def test_connectivity_separates_unrelated_blocks(self):
        """Two disjoint sub-circuits must not interleave their pads."""
        from repro.circuits._build import sop_xor
        from repro.geometry import manhattan
        from repro.network.network import Network

        net = Network("two_blocks")
        for blk in ("u", "v"):
            a = net.add_primary_input(f"{blk}_a")
            b = net.add_primary_input(f"{blk}_b")
            c = net.add_primary_input(f"{blk}_c")
            n1 = net.add_node(f"{blk}_n1", [a, b], sop_xor(2))
            n2 = net.add_node(f"{blk}_n2", [n1, c], sop_xor(2))
            net.add_primary_output(f"{blk}_o", n2)

        order = io_affinity_order(net)
        u_idx = [i for i, name in enumerate(order) if name.startswith("u")]
        v_idx = [i for i, name in enumerate(order) if name.startswith("v")]
        # Perfect separation: one block occupies a contiguous prefix.
        assert max(u_idx) < min(v_idx) or max(v_idx) < min(u_idx)

        spectral = pads_from_order(_terminal_order(net, "connectivity"),
                                   REGION)
        shuffled = pads_from_order(_terminal_order(net, "random"), REGION)

        def pair_cost(pads):
            total = 0.0
            for po in net.primary_outputs:
                cone = {n.name for n in net.transitive_fanin([po])}
                for pi in net.primary_inputs:
                    if pi.name in cone:
                        total += manhattan(pads[pi.name], pads[po.name])
            return total

        assert pair_cost(spectral) <= pair_cost(shuffled)
