"""Lily — the layout-driven technology mapper (the paper's contribution).

The mapper extends the DP covering engine with:

* a live placement of the inchoate network (:mod:`repro.core.state`);
* the CM-of-Merged / CM-of-Fans incremental position update
  (:mod:`repro.core.position`);
* the area-mode and delay-mode mappers themselves (:mod:`repro.core.lily`),
  which price every candidate match from the true fanouts, pin points
  and pin caps that :class:`repro.perf.netcache.NetCache` keeps per net.

The Section 3.3–3.4 primitives written out (true fanouts, fan
rectangles, the per-match wire cost) are the test oracles in
``tests/oracles/lily.py``.
"""

from repro.core.state import PlacementState
from repro.core.position import cm_of_merged, cm_of_fans
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions

__all__ = [
    "PlacementState",
    "cm_of_merged",
    "cm_of_fans",
    "LilyAreaMapper",
    "LilyDelayMapper",
    "LilyOptions",
]
