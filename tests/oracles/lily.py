"""Lily without the cross-cone net cache: the oracle of the fast costs.

Production Lily reads true-fanout lists through
:class:`repro.perf.netcache.NetCache` and prices the default
halfperim / CM-of-Fans combination with ``_evaluate_fast``.  These
subclasses recompute true fanouts with
:func:`repro.core.rectangles.true_fanouts` (cached only within one cone,
where life-cycle states cannot change) and price every match through
``_evaluate_general``, so the golden tests compare both the cache and
the fast evaluator against the Section 3/4 primitives.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lily import LilyAreaMapper, LilyDelayMapper
from repro.core.rectangles import true_fanouts
from repro.network.subject import SubjectNode


class _UncachedNets:
    """True fanouts from the lifecycle walk, never from the net cache."""

    def on_cone_begin(self, po: SubjectNode) -> None:
        super().on_cone_begin(po)
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
