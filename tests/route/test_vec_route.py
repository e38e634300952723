"""Routed net lengths: hand-computed nets, and a per-net ``+=`` loop.

``repro.route.global_route._recompute_lengths`` folds each net's trunk
span and pin branches.  The hand-computed cases pin the formula itself
(span once, branches to the net's own channel, unlocated pins skipped),
which a copy of the code as oracle cannot.  The fleet drives random
trunk assignments over mapped random networks and compares with the
loop below using ``==``, never ``approx``, so the fold's summation order
stays the loop's.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.geometry import Point
from repro.map.netlist import MappedNetwork
from repro.route.global_route import _recompute_lengths

#: Same session seed discipline as tests/conftest.py: set
#: ``REPRO_TEST_SEED`` to replay a fleet failure.
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "19910611"))


def _route_lengths_loop(mapped, positions, pads, trunk_channel,
                        trunk_interval, channel_y):
    """Per-net ``+=`` routed lengths: the oracle of ``_recompute_lengths``."""
    lengths = {}
    for net in mapped.nets():
        name = net.driver.name
        if name not in trunk_channel:
            continue
        trunk_y = channel_y[trunk_channel[name]]
        lo, hi = trunk_interval[name]
        total = hi - lo
        for node in [net.driver] + [sink for sink, _pin in net.sinks]:
            p = (positions.get(node.name) if node.is_gate
                 else pads.get(node.name))
            if p is None:
                continue
            total += abs(p.y - trunk_y)
        lengths[name] = total
    return lengths


class _Placement:
    """The one field ``_recompute_lengths`` reads of a placement."""

    def __init__(self, positions):
        self.positions = positions


#: Centre lines of three channels.
CHANNEL_Y = [0.0, 40.0, 100.0]


def _two_gate_net(big_lib):
    """``f = inv(nand2(a, b))``: nets a, b, g1 and g2, in that order.

    Pins: pads a (y 10), b (y 90) and f (y 70); gates g1 (y 20) and
    g2 (y 50).
    """
    mapped = MappedNetwork("hand")
    a = mapped.add_primary_input("a")
    b = mapped.add_primary_input("b")
    g1 = mapped.add_gate("g1", big_lib.nand2(), [a, b])
    g2 = mapped.add_gate("g2", big_lib.inverter(), [g1])
    mapped.add_primary_output("f", g2)
    positions = {"g1": Point(100.0, 20.0), "g2": Point(200.0, 50.0)}
    pads = {"a": Point(0.0, 10.0), "b": Point(0.0, 90.0),
            "f": Point(300.0, 70.0)}
    return mapped, positions, pads


class TestRouteLengthsByHand:
    def test_trunk_span_counted_once(self, big_lib):
        mapped, positions, pads = _two_gate_net(big_lib)
        # g1 -> g2 on channel 1 (y 40), trunk 100..200: span 100, then
        # branches |20 - 40| = 20 (g1) and |50 - 40| = 10 (g2).
        got = _recompute_lengths(mapped, _Placement(positions), pads,
                                 {"g1": 1}, {"g1": (100.0, 200.0)},
                                 CHANNEL_Y)
        assert got == {"g1": 130.0}

    def test_branches_reach_the_nets_own_channel(self, big_lib):
        mapped, positions, pads = _two_gate_net(big_lib)
        # a -> g1 on channel 2 (y 100), trunk 0..100: span 100, then
        # |10 - 100| = 90 (pad a) and |20 - 100| = 80 (g1); b on channel
        # 0 (y 0), trunk 0..100: 100 + 90 (pad b) + 20 (g1).
        got = _recompute_lengths(
            mapped, _Placement(positions), pads, {"a": 2, "b": 0},
            {"a": (0.0, 100.0), "b": (0.0, 100.0)}, CHANNEL_Y)
        assert got == {"a": 270.0, "b": 210.0}

    def test_unlocated_pins_add_no_branch(self, big_lib):
        mapped, positions, pads = _two_gate_net(big_lib)
        del pads["f"]
        del positions["g1"]
        # g2 -> f on channel 1, trunk 200..300: the pad f has no point,
        # so only g2's branch |50 - 40| = 10 adds to the span of 100.
        # g1 -> g2 on channel 2, trunk 100..200: g1 has no point, so
        # only g2's branch |50 - 100| = 50.  Net b is unrouted.
        got = _recompute_lengths(
            mapped, _Placement(positions), pads, {"g2": 1, "g1": 2},
            {"g2": (200.0, 300.0), "g1": (100.0, 200.0)}, CHANNEL_Y)
        assert got == {"g1": 150.0, "g2": 110.0}


class TestRouteLengthFold:
    @pytest.mark.parametrize("round_", range(3))
    def test_ordered_fold_matches_per_net_loop(self, round_, big_lib):
        from repro.circuits.random_logic import random_network
        from repro.flow.pipeline import mis_flow

        rng = random.Random(TEST_SEED + 57 * round_)
        net = random_network(f"rlen{round_}", 6, 3, 20,
                             seed=rng.randrange(2 ** 31))
        flow = mis_flow(net, big_lib, verify=False)
        placement = flow.backend.routed.placement
        pads = flow.backend.pad_positions
        names = [n.driver.name for n in flow.mapped.nets()]
        # Random trunks over a subset of the nets; the rest are skipped.
        channel_y = [rng.uniform(0, 500) for _ in range(6)]
        trunk_channel = {name: rng.randrange(6) for name in names
                         if rng.random() < 0.8}
        trunk_interval = {}
        for name in trunk_channel:
            lo = rng.uniform(0, 300)
            trunk_interval[name] = (lo, lo + rng.uniform(0, 200))
        got = _recompute_lengths(flow.mapped, placement, pads,
                                 trunk_channel, trunk_interval, channel_y)
        want = _route_lengths_loop(flow.mapped, placement.positions, pads,
                                   trunk_channel, trunk_interval,
                                   channel_y)
        assert list(got.items()) == list(want.items())
