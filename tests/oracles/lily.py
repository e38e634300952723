"""Lily without the cross-cone net cache, solution reuse or bounded
pricing: the oracle of the fast costs.

Production Lily reads true-fanout lists, pin points and pin caps through
:class:`repro.perf.netcache.NetCache`, keeps DP solutions across cones
until a commit changes a net they priced, prices the default halfperim /
CM-of-Fans combination with ``_evaluate_fast`` and skips the matches an
exact lower bound rules out.  These subclasses recompute true fanouts
with :func:`repro.core.rectangles.true_fanouts` (cached only within one
cone, where life-cycle states cannot change), empty the solution memo
before every cone and price every match through
:meth:`BaseMapper.best_solution`: area mode on ``_evaluate_general``,
delay mode with the per-consumer Section 4.4 loads below.  So the golden
tests compare the solution reuse, the cache, the fast evaluator and the
bound against the Section 3/4 primitives solved from scratch.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Sequence, Tuple

from repro.core.lily import LilyAreaMapper, LilyDelayMapper
from repro.core.rectangles import true_fanouts
from repro.geometry import Point
from repro.map.base import BaseMapper
from repro.map.lifecycle import NodeState
from repro.network.subject import SubjectNode


class _UncachedNets:
    """True fanouts from the lifecycle walk, never from the net cache,
    every cone solved from scratch and every match priced."""

    def on_cone_begin(self, po: SubjectNode) -> None:
        super().on_cone_begin(po)
        # The net cache never sees these reads, so its drops cannot
        # reach the memo: no solution may outlive its cone.
        self.memo.clear()
        self._cone_fanouts: Dict[int, List[SubjectNode]] = {}

    def _true_fanouts(self, node: SubjectNode) -> List[SubjectNode]:
        found = self._cone_fanouts.get(node.uid)
        if found is None:
            found = true_fanouts(node, self.lifecycle)
            self._cone_fanouts[node.uid] = found
        return found

    def best_solution(self, node: SubjectNode):
        return BaseMapper.best_solution(self, node)


class NaiveLilyAreaMapper(_UncachedNets, LilyAreaMapper):
    """Area-mode Lily on the general cost path, without ``NetCache``."""

    def evaluate_match(self, node, match, inputs):
        return self._evaluate_general(node, match, inputs)


class NaiveLilyDelayMapper(_UncachedNets, LilyDelayMapper):
    """Delay-mode Lily without ``NetCache``: every load re-derives each
    consumer's cap and point from its state, instance and position."""

    def _fanout_cap_and_point(
        self, consumer: SubjectNode
    ) -> Tuple[float, Point]:
        """Capacitance and position a true fanout contributes to a net."""
        if consumer.is_po:
            p = self.state.place_position(consumer)
            return self.pad_cap, p
        if (
            consumer.is_gate
            and self.lifecycle.state(consumer) is NodeState.HAWK
        ):
            instance = self.instances.get(consumer.uid)
            cap = (
                instance.cell.max_input_cap
                if instance is not None
                else self._base_cap
            )
            p = self.state.best_position(consumer)
            return cap, p
        return self._base_cap, self.state.place_position(consumer)

    def _load_at_input(
        self,
        fanin: SubjectNode,
        pin_cap: float,
        covered_uids: AbstractSet[int],
        gate_position: Point,
        fanin_position: Point,
    ) -> float:
        cap = pin_cap  # gate(m) itself
        points: List[Point] = [fanin_position, gate_position]
        for consumer in self._true_fanouts(fanin):
            if consumer.uid in covered_uids:
                continue
            c, p = self._fanout_cap_and_point(consumer)
            cap += c
            points.append(p)
        cap += self._wire_cap(points)
        return cap

    def _wire_cap(self, points: Sequence[Point]) -> float:
        if len(points) < 2:
            return 0.0
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return self.wire_cap.capacitance(max(xs) - min(xs), max(ys) - min(ys))

    def _output_load(
        self,
        node: SubjectNode,
        covered_uids: AbstractSet[int],
        gate_position: Point,
    ) -> float:
        cap = 0.0
        points: List[Point] = [gate_position]
        consumers = [s for s in node.fanouts if s.uid not in covered_uids]
        if not consumers:
            cap += self.pad_cap
        for consumer in consumers:
            c, p = self._fanout_cap_and_point(consumer)
            cap += c
            points.append(p)
        cap += self._wire_cap(points)
        return cap
