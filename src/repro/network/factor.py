"""Common-cube extraction (a slice of MIS's technology-independent phase).

The paper's introduction discusses how "excessive factorization based on
common kernel extraction during the technology independent phase ... can
lead to gates with high fanout count and increased path delay" — exactly
the kind of network Lily is designed to map well.  This module implements
greedy common-*cube* extraction (the 0-level kernel case): two-literal
products that appear in several covers are pulled out into shared nodes,
reducing literals while creating multi-fanout divisor nodes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.network.logic import Cube, SopCover
from repro.network.network import Network, Node

__all__ = ["FactorStats", "extract_common_cubes"]

#: A literal: (signal name, phase character '1' or '0').
Literal = Tuple[str, str]


@dataclass
class FactorStats:
    """Outcome of the extraction pass."""

    divisors_added: int = 0
    literals_before: int = 0
    literals_after: int = 0
    rewrites: int = 0


def _cube_literals(node: Node, cube: Cube) -> List[Literal]:
    return [
        (node.fanins[i].name, c)
        for i, c in enumerate(cube.mask)
        if c != "-"
    ]


def _count_pairs(net: Network) -> Counter:
    """Occurrences of each unordered two-literal product across all covers."""
    counts: Counter = Counter()
    for node in net.internal_nodes:
        if node.is_constant:
            continue
        for cube in node.function.cubes:
            literals = sorted(set(_cube_literals(node, cube)))
            for a, b in itertools.combinations(literals, 2):
                if a[0] == b[0]:
                    continue  # same signal, both phases: degenerate
                counts[(a, b)] += 1
    return counts


def _rewrite_cover(
    node: Node, pair: Tuple[Literal, Literal], divisor: Node
) -> int:
    """Replace occurrences of the pair in ``node``'s cover with the divisor.

    Returns the number of cubes rewritten.  The divisor is appended as a
    new fanin when needed.
    """
    (name_a, phase_a), (name_b, phase_b) = pair
    fanin_names = [f.name for f in node.fanins]
    positions_a = [
        i for i, n in enumerate(fanin_names) if n == name_a
    ]
    positions_b = [
        i for i, n in enumerate(fanin_names) if n == name_b
    ]
    if not positions_a or not positions_b:
        return 0

    rewritten = 0
    divisor_index: Optional[int] = None
    new_cubes: List[str] = [c.mask for c in node.function.cubes]
    for k, mask in enumerate(new_cubes):
        hit_a = next((i for i in positions_a if mask[i] == phase_a), None)
        hit_b = next((i for i in positions_b if mask[i] == phase_b), None)
        if hit_a is None or hit_b is None:
            continue
        if divisor_index is None:
            if divisor.name in fanin_names:
                divisor_index = fanin_names.index(divisor.name)
            else:
                node.fanins.append(divisor)
                divisor.fanouts.append(node)
                fanin_names.append(divisor.name)
                divisor_index = len(fanin_names) - 1
                new_cubes = [m + "-" for m in new_cubes]
                mask = new_cubes[k]
        chars = list(mask)
        chars[hit_a] = "-"
        chars[hit_b] = "-"
        if divisor_index >= len(chars):
            chars.extend("-" * (divisor_index + 1 - len(chars)))
        chars[divisor_index] = "1"
        new_cubes[k] = "".join(chars)
        rewritten += 1
    if rewritten:
        width = len(node.fanins)
        node.function = SopCover(
            width,
            [Cube(m.ljust(width, "-")) for m in new_cubes],
        )
    return rewritten


def extract_common_cubes(
    net: Network,
    min_occurrences: int = 3,
    max_divisors: int = 200,
) -> FactorStats:
    """Greedy common-cube extraction, in place.

    Repeatedly finds the two-literal product with the most occurrences
    across all covers (at least ``min_occurrences``, below which extraction
    saves no literals), creates a shared AND node for it, and rewrites the
    covers to read the divisor.  Divisor nodes are shared across consumers
    (they become the multi-fanout points the paper's introduction talks
    about).

    Returns literal-count statistics.  Function is always preserved.
    """
    stats = FactorStats(literals_before=net.num_literals())
    divisors: Dict[Tuple[Literal, Literal], Node] = {}
    counter = 0
    while stats.divisors_added < max_divisors:
        counts = _count_pairs(net)
        # Never re-extract through an existing divisor output with the
        # same literal pair (its cover is exactly that pair).
        best: Optional[Tuple[Literal, Literal]] = None
        best_count = min_occurrences - 1
        for pair, count in counts.items():
            if count > best_count and pair not in divisors:
                existing = divisors.get(pair)
                if existing is not None:
                    continue
                best, best_count = pair, count
        if best is None:
            break
        (name_a, phase_a), (name_b, phase_b) = best
        counter += 1
        divisor_name = f"_cx{counter}"
        while divisor_name in net:
            counter += 1
            divisor_name = f"_cx{counter}"
        mask = ("1" if phase_a == "1" else "0") + (
            "1" if phase_b == "1" else "0"
        )
        divisor = net.add_node(
            divisor_name,
            [net[name_a], net[name_b]],
            SopCover(2, [Cube(mask)]),
        )
        divisors[best] = divisor
        for node in net.internal_nodes:
            if node is divisor or node.is_constant:
                continue
            stats.rewrites += _rewrite_cover(node, best, divisor)
        stats.divisors_added += 1
    # Rewrites can leave vacuous fanin columns; clean them up.
    from repro.network.optimize import clean_network

    clean_network(net)
    stats.literals_after = net.num_literals()
    net.check()
    return stats
