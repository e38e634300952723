"""Bitwise equality of the vectorized routing estimators.

Every kernel in ``repro.route`` must produce bit-identical floats to a
naive oracle — the ``repro.perf.vec`` exactness discipline.  The
oracles are the flag-free references in ``src``
(``netlist_wirelength_naive``, scalar ``rectilinear_mst_length``) and
the per-candidate / per-net loops below.  These fleets drive randomized
hypergraphs (with 1–2 pin degenerates and unplaced-pin masks) through
both and compare with ``==``, never ``approx``.
"""

from __future__ import annotations

import os
import random

import pytest

import repro.route.steiner as steiner
from repro.geometry import Point
from repro.route.global_route import _recompute_lengths
from repro.route.spanning import mst_lengths_batched, rectilinear_mst_length
from repro.route.steiner import rsmt_length
from repro.route.wirelength import netlist_wirelength, netlist_wirelength_naive

#: Same session seed discipline as tests/conftest.py: set
#: ``REPRO_TEST_SEED`` to replay a fleet failure.
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "19910611"))


def _random_hypergraph(rng: random.Random, num_nets: int):
    """Nets over a shared cell universe: movable + fixed + missing pins,
    plus degenerate nets (empty / 1 pin / 2 pins / all-unplaced)."""
    cells = [f"c{i}" for i in range(3 * num_nets)]
    positions = {}
    fixed = {}
    for name in cells:
        r = rng.random()
        if r < 0.6:
            positions[name] = Point(rng.uniform(0, 400), rng.uniform(0, 400))
        elif r < 0.8:
            fixed[name] = Point(rng.uniform(-40, 0), rng.uniform(0, 440))
        # else: the pin resolves nowhere (an unplaced mask entry)
    nets = []
    for k in range(num_nets):
        size = rng.choice((1, 2, 2, 3, 4, 5, 8, 12))
        nets.append([rng.choice(cells) for _ in range(size)])
    nets.append([])  # empty net
    nets.append([c for c in cells[:4] if c not in positions
                 and c not in fixed])  # possibly all-unlocatable
    return nets, positions, fixed


class TestNetlistWirelengthBitwise:
    @pytest.mark.parametrize("model", ["hpwl", "steiner", "spanning"])
    @pytest.mark.parametrize("round_", range(6))
    def test_vec_matches_naive(self, model, round_):
        rng = random.Random(TEST_SEED + 31 * round_)
        nets, positions, fixed = _random_hypergraph(rng, 40)
        vec = netlist_wirelength(nets, positions, fixed, model=model)
        naive = netlist_wirelength_naive(nets, positions, fixed, model=model)
        assert vec == naive  # bitwise, not approx

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            netlist_wirelength([["a", "b"]], {"a": Point(0, 0),
                                              "b": Point(1, 1)}, {},
                               model="bogus")


class TestBatchedMst:
    @pytest.mark.parametrize("round_", range(4))
    def test_matches_scalar_prim(self, round_):
        import numpy as np

        rng = random.Random(TEST_SEED + 7 * round_)
        nets = []
        for _ in range(30):
            size = rng.choice((2, 3, 4, 5, 9))
            nets.append([Point(rng.uniform(0, 100), rng.uniform(0, 100))
                         for _ in range(size)])
        xs = np.array([p.x for net in nets for p in net])
        ys = np.array([p.y for net in nets for p in net])
        offsets = np.cumsum([0] + [len(net) for net in nets])
        batched = mst_lengths_batched(xs, ys, offsets)
        for i, net in enumerate(nets):
            assert batched[i] == rectilinear_mst_length(net)

    def test_duplicate_points(self):
        import numpy as np

        pts = [Point(5, 5)] * 4 + [Point(8, 5)]
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        batched = mst_lengths_batched(xs, ys, np.array([0, len(pts)]))
        assert batched[0] == rectilinear_mst_length(pts)


def _scalar_candidate_lengths(base, candidates):
    return [rectilinear_mst_length(list(base) + [c]) for c in candidates]


def _scalar_leave_one_out_lengths(terminals, kept):
    return [
        rectilinear_mst_length(
            list(terminals) + list(kept[:i]) + list(kept[i + 1:]))
        for i in range(len(kept))
    ]


def _rsmt_scalar(pts, monkeypatch):
    """``rsmt_length`` with every candidate MST a scalar Prim call."""
    with monkeypatch.context() as patch:
        patch.setattr(steiner, "_candidate_lengths",
                      _scalar_candidate_lengths)
        patch.setattr(steiner, "_leave_one_out_lengths",
                      _scalar_leave_one_out_lengths)
        return steiner.rsmt_length(pts)


class TestRsmtVec:
    @pytest.mark.parametrize("round_", range(6))
    def test_vec_matches_naive(self, round_, monkeypatch):
        rng = random.Random(TEST_SEED + 13 * round_)
        pts = [Point(rng.uniform(0, 60), rng.uniform(0, 60))
               for _ in range(rng.choice((4, 5, 6, 7)))]
        assert rsmt_length(pts) == _rsmt_scalar(pts, monkeypatch)

    def test_small_nets_share_one_path(self, monkeypatch):
        for pts in ([], [Point(1, 1)], [Point(0, 0), Point(3, 4)],
                    [Point(0, 0), Point(4, 0), Point(2, 9)]):
            assert rsmt_length(pts) == _rsmt_scalar(pts, monkeypatch)


def _route_lengths_loop(mapped, positions, pads, trunk_channel,
                        trunk_interval, channel_y):
    """Per-net ``+=`` routed lengths: the ordered fold's oracle."""
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
