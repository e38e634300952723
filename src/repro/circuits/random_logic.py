"""Seeded synthetic multi-level logic.

Stands in for the MCNC/ISCAS netlists we cannot ship (DESIGN.md §3): a
deterministic generator producing optimized-looking multi-level networks
with realistic locality (nodes mostly read recent signals), reconvergence,
and a controlled size profile.  Lily's claims concern relative
area/wire/delay versus MIS on networks of a given size and connectivity,
which these preserve.
"""

from __future__ import annotations

import random
from typing import List

from repro.network.logic import SopCover, TruthTable
from repro.network.network import Network, Node

__all__ = ["random_network"]


def _random_function(rng: random.Random, arity: int) -> SopCover:
    """A random non-constant function with full support over ``arity`` vars."""
    while True:
        tt = TruthTable(arity, rng.getrandbits(1 << arity))
        if tt.is_constant() is not None:
            continue
        if len(tt.support()) != arity:
            continue
        return tt.to_sop()


def _pick_fanins(
    rng: random.Random,
    pool: List[Node],
    arity: int,
    locality: float,
) -> List[Node]:
    """Pick distinct fanins with a bias toward recent pool entries.

    ``locality`` in (0, 1]: smaller values concentrate picks on the most
    recently created signals (deep, chain-like logic); 1.0 is uniform.
    """
    chosen: List[Node] = []
    n = len(pool)
    window = max(arity, int(n * locality))
    candidates = pool[-window:]
    attempts = 0
    while len(chosen) < arity and attempts < 50:
        attempts += 1
        node = rng.choice(candidates)
        if node not in chosen:
            chosen.append(node)
    while len(chosen) < arity:
        node = rng.choice(pool)
        if node not in chosen:
            chosen.append(node)
    return chosen


def random_network(
    name: str,
    num_inputs: int,
    num_outputs: int,
    num_nodes: int,
    seed: int = 0,
    max_fanin: int = 4,
    locality: float = 0.35,
) -> Network:
    """Generate a deterministic pseudo-random multi-level network.

    Args:
        name: network name (benchmark identity).
        num_inputs / num_outputs: I/O counts (matched to the original
            benchmark's profile).
        num_nodes: internal node budget before dead-logic sweeping.
        seed: RNG seed — same arguments always give the same circuit.
        max_fanin: node fanin cap (2..max_fanin, weighted toward 2–3).
        locality: fanin locality bias (see :func:`_pick_fanins`).
    """
    if num_nodes < num_outputs:
        raise ValueError("need at least one node per output")
    rng = random.Random((seed << 16) ^ len(name) ^ num_nodes)
    net = Network(name)
    inputs = [net.add_primary_input(f"pi{i}") for i in range(num_inputs)]
    pool: List[Node] = list(inputs)
    unused_inputs = list(inputs)
    rng.shuffle(unused_inputs)

    arities = list(range(2, max_fanin + 1))
    weights = [4, 3] + [1] * (max_fanin - 3) if max_fanin >= 3 else [1]
    for index in range(num_nodes):
        arity = rng.choices(arities, weights=weights[: len(arities)])[0]
        arity = min(arity, len(pool))
        if arity < 2:
            arity = 2 if len(pool) >= 2 else 1
        fanins = _pick_fanins(rng, pool, arity, locality)
        # Guarantee every PI eventually feeds logic.
        if unused_inputs and rng.random() < 0.6:
            pi = unused_inputs.pop()
            if pi not in fanins:
                fanins[rng.randrange(len(fanins))] = pi
        function = _random_function(rng, len(fanins))
        node = net.add_node(f"n{index}", fanins, function)
        pool.append(node)

    internal = [n for n in pool if n.is_internal]
    # Outputs: the most recent nodes drive POs (deep cones), plus a few
    # mid-network taps for output diversity.
    drivers: List[Node] = []
    tail = internal[-max(num_outputs, 1):]
    drivers.extend(reversed(tail))
    while len(drivers) < num_outputs:
        candidate = rng.choice(internal)
        if candidate not in drivers:
            drivers.append(candidate)

    # Fold genuinely unused PIs into PO drivers so every input stays live:
    # driver_k becomes f(driver_k, pi), round-robin over the outputs.
    live = net.transitive_fanin(drivers)
    still_unused = [pi for pi in inputs if pi not in live]
    for extra, pi in enumerate(still_unused):
        slot = extra % num_outputs
        merged = net.add_node(
            f"use_pi_{extra}", [drivers[slot], pi], _random_function(rng, 2)
        )
        drivers[slot] = merged

    for k in range(num_outputs):
        net.add_primary_output(f"po{k}", drivers[k])

    net.sweep_dangling()
    net.check()
    return net
