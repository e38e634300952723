"""Routed net lengths vs a per-net ``+=`` loop (bitwise).

``repro.route.global_route._recompute_lengths`` folds each net's trunk
span and pin branches; the loop below is its oracle.  The fleet drives
random trunk assignments over mapped random networks and compares with
``==``, never ``approx``.
"""

from __future__ import annotations

import os
import random

import pytest

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
