"""Fiduccia–Mattheyses bipartitioning.

The behaviour cases run the production kernel ``fm_refine`` through
:func:`kernel_bipartition`, which gives it the name-keyed signature of
the reference :func:`oracles.place.fm_bipartition`.  The oracle cases
check that the two return exactly the same sides.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.place import cut_size, fm_bipartition
from repro.place.fm import fm_refine


def kernel_bipartition(cells, nets, initial_side, sizes=None,
                       balance_tolerance=0.1, max_passes=4, stats=None):
    """``fm_refine`` behind ``fm_bipartition``'s signature.

    ``cells[i]`` becomes local cell ``i``; net pins that are not cells
    but have a side are counted as fixed terminals, and pins with no side
    are dropped, as the reference ignores them.  ``stats`` (a list)
    receives ``(moves, gain_updates, count0, count1)``.
    """
    sizes = sizes or {}
    local = {c: i for i, c in enumerate(cells)}
    side = [initial_side[c] for c in cells]
    kernel_nets, count0, count1 = [], [], []
    for net in nets:
        kernel_nets.append([local[p] for p in net if p in local])
        fixed = [initial_side[p] for p in net
                 if p not in local and p in initial_side]
        count0.append(fixed.count(0))
        count1.append(fixed.count(1))
    moves, updates = fm_refine(
        side, [sizes.get(c, 1.0) for c in cells], kernel_nets, count0,
        count1, balance_tolerance=balance_tolerance, max_passes=max_passes)
    if stats is not None:
        stats.append((moves, updates, count0, count1))
    return dict(zip(cells, side))


def random_hypergraph(rng, k):
    """Cells, pads on both sides, 1-6-pin nets with repeated pins and
    a few wide nets, mixed sizes with one cell larger than the 10%
    balance slack."""
    cells = [f"c{i}" for i in range(k)]
    rng.shuffle(cells)
    pads = [f"p{i}" for i in range(rng.randint(2, 12))]
    sizes = {c: rng.choice([1.0, 1.0, 2.0, rng.uniform(0.25, 4.0)])
             for c in cells}
    sizes[cells[rng.randrange(k)]] = 0.3 * sum(sizes.values())
    initial = {c: rng.randint(0, 1) for c in cells}
    initial[pads[0]] = 0
    initial[pads[1]] = 1
    for pad in pads[2:]:
        initial[pad] = rng.randint(0, 1)
    names = cells + pads
    nets = []
    for _ in range(rng.randint(k, 3 * k)):
        width = rng.choice([1, 2, 2, 3, 3, 4, 6]) if rng.random() > 0.02 \
            else rng.randint(10, 40)
        pins = [rng.choice(names) for _ in range(width)]
        if rng.random() < 0.15:
            pins.insert(rng.randrange(len(pins) + 1), rng.choice(pins))
        nets.append(pins)
    return cells, nets, initial, sizes


class TestCutSize:
    def test_counts_spanning_nets(self):
        side = {"a": 0, "b": 1, "c": 0}
        assert cut_size([["a", "b"], ["a", "c"], ["b", "b"]], side) == 1

    def test_ignores_free_pins(self):
        side = {"a": 0}
        assert cut_size([["a", "ghost"]], side) == 0


class TestFm:
    def test_improves_obvious_cut(self):
        """Two tight clusters split the wrong way get fixed."""
        cells = ["a1", "a2", "b1", "b2"]
        nets = [["a1", "a2"], ["b1", "b2"], ["a1", "a2"], ["b1", "b2"]]
        bad = {"a1": 0, "a2": 1, "b1": 0, "b2": 1}  # cuts everything
        refined = kernel_bipartition(cells, nets, bad)
        assert cut_size(nets, refined) == 0

    def test_balance_respected(self):
        """A star net would love all cells on one side; balance forbids."""
        cells = [f"c{i}" for i in range(10)]
        nets = [[c, "hub"] for c in cells]
        initial = {c: i % 2 for i, c in enumerate(cells)}
        initial["hub"] = 0
        refined = kernel_bipartition(cells, nets, initial,
                                     balance_tolerance=0.1)
        left = sum(1 for c in cells if refined[c] == 0)
        assert 4 <= left <= 6

    def test_no_worse_than_initial(self, seeded_rng):
        rng = seeded_rng("fm", "no-worse")
        cells = [f"c{i}" for i in range(16)]
        nets = [
            rng.sample(cells, rng.randint(2, 4)) for _ in range(24)
        ]
        initial = {c: rng.randint(0, 1) for c in cells}
        refined = kernel_bipartition(cells, nets, initial)
        assert cut_size(nets, refined) <= cut_size(nets, initial)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_property_never_worse(self, seed):
        rng = random.Random(seed)
        cells = [f"c{i}" for i in range(10)]
        nets = [rng.sample(cells, rng.randint(2, 3)) for _ in range(12)]
        initial = {c: rng.randint(0, 1) for c in cells}
        refined = kernel_bipartition(cells, nets, initial)
        assert cut_size(nets, refined) <= cut_size(nets, initial)
        assert set(refined) == set(cells)

    def test_fixed_terminals_guide_cut(self):
        """Cells tied to fixed terminals follow them."""
        cells = ["x", "y"]
        nets = [["padL", "x"], ["padR", "y"]]
        initial = {"x": 1, "y": 0, "padL": 0, "padR": 1}
        refined = kernel_bipartition(cells, nets, initial)
        assert refined["x"] == 0
        assert refined["y"] == 1

    def test_sizes_affect_balance(self):
        """Area balance never exceeds half-plus-largest-cell."""
        cells = ["big", "s1", "s2", "s3"]
        nets = [["big", "s1"], ["s1", "s2"], ["s2", "s3"]]
        sizes = {"big": 3.0, "s1": 1.0, "s2": 1.0, "s3": 1.0}
        initial = {"big": 0, "s1": 0, "s2": 1, "s3": 1}
        refined = kernel_bipartition(cells, nets, initial, sizes=sizes,
                                     balance_tolerance=0.1)
        left_area = sum(sizes[c] for c in cells if refined[c] == 0)
        # total 6, max cell 3: each side holds at most 6/2 + 3 = 6 and the
        # cut never worsens.
        assert 0.0 <= left_area <= 6.0
        assert cut_size(nets, refined) <= cut_size(nets, initial)

    def test_repeated_pin_counts_twice(self):
        """A cell with two pins on an uncut net pays twice to cut it."""
        cells = ["x", "y"]
        initial = {"x": 0, "y": 1, "padL": 0, "padR": 1}
        pull_right = [["x", "padR"], ["x", "padR"]]
        for anchor, moves in ((["x", "padL"], True),
                              (["x", "x", "padL"], False)):
            nets = [anchor] + pull_right
            refined = kernel_bipartition(cells, nets, initial)
            assert refined == fm_bipartition(cells, nets, initial)
            assert refined["x"] == (1 if moves else 0)

    def test_zero_area_returns_initial_sides(self):
        cells = ["a", "b"]
        initial = {"a": 0, "b": 0}
        stats = []
        refined = kernel_bipartition(cells, [["a", "b"]], initial,
                                     sizes={"a": 0.0, "b": 0.0},
                                     stats=stats)
        assert refined == initial
        assert stats[0][:2] == (0, 0)


class TestOracle:
    @pytest.mark.parametrize("case", range(40))
    def test_same_sides_as_reference(self, seeded_rng, case):
        rng = seeded_rng("fm-oracle", case)
        k = [8, 9, 13, 40, 120, 300][case % 6]
        cells, nets, initial, sizes = random_hypergraph(rng, k)
        if case % 4 == 3:
            sizes = dict.fromkeys(cells, 1.0)
        passes = rng.choice([1, 2, 4, 8])
        tolerance = rng.choice([0.0, 0.1, 0.3])
        stats = []
        got = kernel_bipartition(cells, nets, initial, sizes, tolerance,
                                 max_passes=passes, stats=stats)
        want = fm_bipartition(cells, nets, initial, sizes, tolerance,
                              max_passes=passes)
        assert got == want
        # The kernel's side counts end equal to a fresh count.
        moves, updates, count0, count1 = stats[0]
        final = dict(initial)
        final.update(got)
        for net, c0, c1 in zip(nets, count0, count1):
            sides = [final[p] for p in net]
            assert (c0, c1) == (sides.count(0), sides.count(1))
        assert moves > 0 and updates > 0

    def test_tie_break_follows_cell_order(self):
        """Equal gains go to the earlier cell, as in the reference."""
        cells = ["b", "a", "d", "c"]
        nets = [["a", "b"], ["c", "d"], ["a", "padR"], ["b", "padR"],
                ["c", "padL"], ["d", "padL"]]
        initial = {"a": 0, "b": 0, "c": 1, "d": 1, "padL": 0, "padR": 1}
        for order in (cells, sorted(cells)):
            assert kernel_bipartition(order, nets, initial) == \
                fm_bipartition(order, nets, initial)
