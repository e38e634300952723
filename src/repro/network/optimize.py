"""Light technology-independent clean-up.

The paper's input is "a Boolean network ... optimized by technology
independent synthesis procedures".  Full MIS-style kernel extraction is out
of scope, but the clean-up passes every real flow runs before mapping are
here: constant propagation, support reduction, buffer and inverter-pair
collapsing, structural duplicate merging and dead-logic sweeping, iterated
to a fixpoint.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.network.logic import TruthTable
from repro.network.network import Network, Node

__all__ = ["clean_network", "CleanupStats"]


class CleanupStats(dict):
    """Counts per clean-up action (dict subclass for easy reporting)."""

    def bump(self, key: str, amount: int = 1) -> None:
        self[key] = self.get(key, 0) + amount


def _redirect(old: Node, new: Node) -> int:
    """Rewire every consumer of ``old`` to read ``new``; returns count.

    Fanout lists hold one entry per fanin *connection*, so a sink reading
    ``old`` on two pins moves two entries.
    """
    moved = 0
    for sink in list(dict.fromkeys(old.fanouts)):
        connections = 0
        for i, fanin in enumerate(sink.fanins):
            if fanin is old:
                sink.fanins[i] = new
                connections += 1
        for _ in range(connections):
            old.fanouts.remove(sink)
            new.fanouts.append(sink)
        if connections:
            moved += 1
    return moved


def _detach_fanins(node: Node) -> None:
    for fanin in node.fanins:
        if node in fanin.fanouts:
            fanin.fanouts.remove(node)
    node.fanins = []


def _propagate_constants(net: Network, stats: CleanupStats) -> bool:
    """Cofactor away constant fanins; fold constant nodes."""
    changed = False
    for node in net.topological_order():
        if not node.is_internal or node.is_constant:
            continue
        tt = node.truth_table()
        fanins = list(node.fanins)
        # Cofactor constant fanins.
        for index, fanin in enumerate(fanins):
            if fanin.is_constant:
                value = fanin.function.evaluate([])
                tt = tt.cofactor(index, value)
                changed = True
                stats.bump("constants_propagated")
        # Shrink to true support (also drops the cofactored variables).
        keep = tt.support()
        if len(keep) != len(fanins) or tt != node.truth_table():
            new_fanins = [fanins[i] for i in keep]
            new_tt = tt.project(keep)
            _detach_fanins(node)
            node.fanins = new_fanins
            for f in new_fanins:
                f.fanouts.append(node)
            node.function = new_tt.to_sop()
            changed = True
            stats.bump("support_reduced")
    return changed


def _collapse_wires(net: Network, stats: CleanupStats) -> bool:
    """Replace buffers by their drivers; collapse inverter pairs."""
    changed = False
    identity = TruthTable.variable(0, 1)
    for node in net.topological_order():
        if not node.is_internal or node.num_fanins != 1:
            continue
        tt = node.truth_table()
        driver = node.fanins[0]
        if tt == identity and not driver.is_po:
            if _redirect(node, driver):
                changed = True
                stats.bump("buffers_collapsed")
        elif tt == ~identity:
            # INV(INV(x)) -> x.
            if (
                driver.is_internal
                and driver.num_fanins == 1
                and driver.truth_table() == ~identity
            ):
                grand = driver.fanins[0]
                if not grand.is_po and _redirect(node, grand):
                    changed = True
                    stats.bump("inverter_pairs_collapsed")
    return changed


def _merge_duplicates(net: Network, stats: CleanupStats) -> bool:
    """Share structurally identical nodes (same fanins, same function)."""
    changed = False
    seen: Dict[Tuple, Node] = {}
    for node in net.topological_order():
        if not node.is_internal or node.is_constant:
            continue
        key = (
            tuple(f.name for f in node.fanins),
            node.truth_table().bits,
            node.num_fanins,
        )
        keeper = seen.get(key)
        if keeper is None:
            seen[key] = node
        elif _redirect(node, keeper):
            changed = True
            stats.bump("duplicates_merged")
    return changed


def clean_network(net: Network, max_rounds: int = 10) -> CleanupStats:
    """Run all clean-up passes to a fixpoint (in place).

    Primary-output drivers are preserved by identity only when they would
    become dangling; the function of every output is always preserved.
    """
    stats = CleanupStats()
    for _ in range(max_rounds):
        changed = False
        changed |= _propagate_constants(net, stats)
        changed |= _collapse_wires(net, stats)
        changed |= _merge_duplicates(net, stats)
        removed = net.sweep_dangling()
        if removed:
            stats.bump("swept", removed)
            changed = True
        if not changed:
            break
    net.check()
    return stats
