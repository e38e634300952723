"""Lily without the cross-cone net cache or solution reuse: the oracle of
the fast costs.

Production Lily reads true-fanout lists through
:class:`repro.perf.netcache.NetCache`, keeps DP solutions across cones
until a commit changes a net they priced, and prices the default
halfperim / CM-of-Fans combination with ``_evaluate_fast``.  These
subclasses recompute true fanouts with
:func:`repro.core.rectangles.true_fanouts` (cached only within one cone,
where life-cycle states cannot change), empty the solution memo before
every cone and price every match through ``_evaluate_general``, so the
golden tests compare the solution reuse, the cache and the fast
evaluator against the Section 3/4 primitives solved from scratch.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lily import LilyAreaMapper, LilyDelayMapper
from repro.core.rectangles import true_fanouts
from repro.network.subject import SubjectNode


class _UncachedNets:
    """True fanouts from the lifecycle walk, never from the net cache,
    and every cone solved from scratch."""

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


class NaiveLilyAreaMapper(_UncachedNets, LilyAreaMapper):
    """Area-mode Lily on the general cost path, without ``NetCache``."""

    def evaluate_match(self, node, match, inputs):
        return self._evaluate_general(node, match, inputs)


class NaiveLilyDelayMapper(_UncachedNets, LilyDelayMapper):
    """Delay-mode Lily without ``NetCache``."""
