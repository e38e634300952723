"""Cross-cone net cache with delta invalidation (incremental wire cost).

Lily prices every candidate match from the nets around it: each match
input's net, reached through the input's *true fanouts* (the fanout
walk through doves, Section 3.3), and the candidate's output net, its
direct fanouts.  This cache holds the one true-fanout walk and the one
pin-point rule in the package, keeps each net's entry alive across
cones and drops only what a commit actually touched.  It also tells the
covering DP which nets a commit changed: :meth:`NetCache.invalidate`
returns them, and the DP's :class:`~repro.map.base.SolutionMemo` drops
exactly the solutions that priced those nets.

Correctness rests on a dependency index: an entry records every node its
fanout walk *visited* (consumers found and doves walked through).  A
commit changes only the life-cycle states and map positions of the match
root and its doves, and the walk's branching decisions and the cached
points are functions of exactly the visited nodes' states/positions — so
dropping the entries that visited a committed node leaves every surviving
entry equal to a fresh recompute.  Placement refreshes move every gate
and clear the cache outright.  The equivalence tests re-derive each entry
from scratch with the Section 3.3 primitives in ``tests/oracles/lily.py``
and assert equality mid-run.

A delay mapper also reads each pin's load capacitance from the entries:
``pad_cap`` for a primary output, the committed cell's largest pin cap
for a hawk, the base (NAND2) pin cap for anything else.  A pin's cap
changes only when it becomes a hawk, and that commit drops every entry
whose walk saw it, so the same dependency index keeps the caps fresh.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.state import PlacementState
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.map.netlist import MappedNode
from repro.network.subject import SubjectNode
from repro.obs import OBS

__all__ = ["NetCache"]

#: (pin uids, x coords, y coords, load caps), aligned by index: an
#: input net's true fanouts in uid order, or an output net's direct
#: fanouts in fanout order.
_Entry = Tuple[List[int], List[float], List[float], List[float]]


class NetCache:
    """Per-net pin uids, points and caps, invalidated by commits: an
    input net over its true fanouts, an output net over its direct
    fanouts.

    Args:
        state: the live placement (place and map positions).
        lifecycle: the live life-cycle states.
        instances: node uid -> committed instance, the mapper's own map
            (a hawk's pin cap is its cell's :attr:`~repro.library.cell.
            Cell.max_input_cap`).  ``None`` (area mode) leaves the cap
            lists empty.
        pad_cap: the cap of a primary-output pin.
        base_cap: the cap of any other pin that is not a hawk.
    """

    def __init__(
        self,
        state: PlacementState,
        lifecycle: LifecycleTracker,
        instances: Optional[Dict[int, MappedNode]] = None,
        pad_cap: float = 0.0,
        base_cap: float = 0.0,
    ) -> None:
        self.state = state
        self.lifecycle = lifecycle
        self._instances = instances
        self._pad_cap = pad_cap
        self._base_cap = base_cap
        self._entries: Dict[int, _Entry] = {}
        #: visited node uid -> entry keys whose walk saw that node.
        self._deps: Dict[int, Set[int]] = {}
        #: node uid -> the entry of its output net (direct fanouts).
        self._out_entries: Dict[int, _Entry] = {}
        #: sink uid -> out-entry keys listing that sink.
        self._out_deps: Dict[int, Set[int]] = {}

    def _pins(
        self, nodes: List[SubjectNode]
    ) -> Tuple[List[float], List[float], List[float]]:
        """xs, ys and caps of ``nodes``.

        A pin's point is its mapPosition if it is a hawk that has one,
        else its placePosition (a pad's position for a terminal).
        """
        state_of = self.lifecycle.state
        map_position = self.state.map_position
        place_position = self.state.place_position
        instances = self._instances
        xs: List[float] = []
        ys: List[float] = []
        caps: List[float] = []
        for node in nodes:
            hawk = node.is_gate and state_of(node) is NodeState.HAWK
            p = map_position(node) if hawk else None
            if p is None:
                p = place_position(node)
            xs.append(p.x)
            ys.append(p.y)
            if instances is None:
                continue
            if node.is_po:
                caps.append(self._pad_cap)
            elif hawk:
                instance = instances.get(node.uid)
                caps.append(self._base_cap if instance is None
                            else instance.cell.max_input_cap)
            else:
                caps.append(self._base_cap)
        return xs, ys, caps

    def entry(self, fanin: SubjectNode) -> _Entry:
        """Cached ``(uids, xs, ys, caps)`` of ``fanin``'s true fanouts.

        The walk follows ``fanin``'s fanouts and looks through doves (the
        hawks their logic was merged into absorb the connection); gates
        in any other state and primary outputs are the true fanouts.
        Duplicated logic can yield several along one branch.  The pins
        come in uid order, each with its current point and load cap.
        """
        key = fanin.uid
        cached = self._entries.get(key)
        if cached is not None:
            if OBS.enabled:
                OBS.metrics.counter("perf.netcache_hits").inc()
            return cached
        if OBS.enabled:
            OBS.metrics.counter("perf.netcache_misses").inc()
        # The true-fanout walk, with the visited set recorded as deps.
        lifecycle = self.lifecycle
        found: List[SubjectNode] = []
        seen: Set[int] = set()
        stack = list(fanin.fanouts)
        while stack:
            branch = stack.pop()
            if branch.uid in seen:
                continue
            seen.add(branch.uid)
            if branch.is_po or not branch.is_gate:
                found.append(branch)
                continue
            if lifecycle.state(branch) is NodeState.DOVE:
                stack.extend(branch.fanouts)
            else:
                found.append(branch)
        found.sort(key=lambda n: n.uid)
        entry = ([n.uid for n in found], *self._pins(found))
        self._entries[key] = entry
        deps = self._deps
        for uid in seen:
            bucket = deps.get(uid)
            if bucket is None:
                deps[uid] = {key}
            else:
                bucket.add(key)
        return entry

    def out_entry(self, node: SubjectNode) -> _Entry:
        """Cached ``(uids, xs, ys, caps)`` of ``node``'s direct fanouts.

        The candidate-output net of Section 3.3 uses the *inchoate*
        fanouts directly (no dove walk); only the sinks' points and caps
        can go stale, so the sinks themselves are the dependencies.
        """
        key = node.uid
        cached = self._out_entries.get(key)
        if cached is not None:
            if OBS.enabled:
                OBS.metrics.counter("perf.netcache_hits").inc()
            return cached
        if OBS.enabled:
            OBS.metrics.counter("perf.netcache_misses").inc()
        sinks = node.fanouts
        entry = ([s.uid for s in sinks], *self._pins(sinks))
        self._out_entries[key] = entry
        deps = self._out_deps
        for sink in sinks:
            bucket = deps.get(sink.uid)
            if bucket is None:
                deps[sink.uid] = {key}
            else:
                bucket.add(key)
        return entry

    def invalidate(self, node: SubjectNode) -> List[int]:
        """Drop every entry whose walk visited ``node``; returns the uids
        of the nets whose true-fanout entries went.

        Called per committed node (the match root and each new dove);
        their life-cycle states and/or map positions just changed.  The
        output-net entries dropped here belong to ``node``'s fanins, so
        they are not reported.
        """
        dropped: List[int] = []
        keys = self._deps.pop(node.uid, None)
        if keys:
            entries = self._entries
            for key in keys:
                if entries.pop(key, None) is not None:
                    dropped.append(key)
        count = len(dropped)
        out_keys = self._out_deps.pop(node.uid, None)
        if out_keys:
            out_entries = self._out_entries
            for key in out_keys:
                if out_entries.pop(key, None) is not None:
                    count += 1
        if OBS.enabled and count:
            OBS.metrics.counter("perf.netcache_invalidations").inc(count)
        # Stale dep buckets for other nodes may still name the dropped
        # keys; a drop through one only re-derives an entry (and re-solves
        # its readers) needlessly, it never keeps a stale one.
        return dropped

    def clear(self) -> None:
        """Forget everything (placement refresh moved every gate)."""
        self._entries.clear()
        self._deps.clear()
        self._out_entries.clear()
        self._out_deps.clear()
