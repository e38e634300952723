"""Cross-cone net cache with delta invalidation (incremental wire cost).

Lily's cost model asks, for every candidate match input, for the input
net's *true fanouts* (the fanout walk through doves) and their current
points.  This cache keeps each net's entry alive across cones and drops
only what a commit actually touched.  It also tells the covering DP
which nets a commit changed: :meth:`NetCache.invalidate` returns them,
and the DP's :class:`~repro.map.base.SolutionMemo` drops exactly the
solutions that priced those nets.

Correctness rests on a dependency index: an entry records every node its
fanout walk *visited* (consumers found and doves walked through).  A
commit changes only the life-cycle states and map positions of the match
root and its doves, and the walk's branching decisions and the cached
points are functions of exactly the visited nodes' states/positions — so
dropping the entries that visited a committed node leaves every surviving
entry equal to a fresh recompute.  Placement refreshes move every gate
and clear the cache outright.  The equivalence tests re-derive each entry
from scratch and assert equality mid-run.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.state import PlacementState
from repro.geometry import Point
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.network.subject import SubjectNode
from repro.obs import OBS

__all__ = ["NetCache"]

#: (consumers sorted by uid, their uids, their x coords, their y coords).
_Entry = Tuple[List[SubjectNode], List[int], List[float], List[float]]


class NetCache:
    """Per-net true-fanout lists and pin points, invalidated by commits."""

    def __init__(self, state: PlacementState, lifecycle: LifecycleTracker) -> None:
        self.state = state
        self.lifecycle = lifecycle
        self._entries: Dict[int, _Entry] = {}
        #: visited node uid -> entry keys whose walk saw that node.
        self._deps: Dict[int, Set[int]] = {}
        #: node uid -> (direct-fanout uids, xs, ys) for the output net.
        self._out_entries: Dict[int, Tuple[List[int], List[float], List[float]]] = {}
        #: sink uid -> out-entry keys listing that sink.
        self._out_deps: Dict[int, Set[int]] = {}

    def _node_point(self, node: SubjectNode) -> Point:
        """mapPosition for hawks, placePosition (or pad) otherwise —
        mirrors :func:`repro.core.rectangles._node_point`."""
        if node.is_gate and self.lifecycle.state(node) is NodeState.HAWK:
            p = self.state.map_position(node)
            if p is not None:
                return p
        return self.state.place_position(node)

    def entry(self, fanin: SubjectNode) -> _Entry:
        """Cached ``(consumers, uids, xs, ys)`` for ``fanin``'s output net.

        ``consumers`` is exactly :func:`repro.core.rectangles.true_fanouts`
        of ``fanin``; the coordinate lists are the consumers' current
        points, aligned by index.
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
        points = [self._node_point(n) for n in found]
        entry = (
            found,
            [n.uid for n in found],
            [p.x for p in points],
            [p.y for p in points],
        )
        self._entries[key] = entry
        deps = self._deps
        for uid in seen:
            bucket = deps.get(uid)
            if bucket is None:
                deps[uid] = {key}
            else:
                bucket.add(key)
        return entry

    def consumers(self, fanin: SubjectNode) -> List[SubjectNode]:
        """The true-fanout list alone (delay-mapper load model hook)."""
        return self.entry(fanin)[0]

    def out_entry(
        self, node: SubjectNode
    ) -> Tuple[List[int], List[float], List[float]]:
        """Cached ``(uids, xs, ys)`` of ``node``'s direct fanouts.

        The candidate-output net of Section 3.3 uses the *inchoate*
        fanouts directly (no dove walk); only the sinks' points can go
        stale, so the sinks themselves are the dependencies.
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
        points = [self._node_point(s) for s in sinks]
        entry = (
            [s.uid for s in sinks],
            [p.x for p in points],
            [p.y for p in points],
        )
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
