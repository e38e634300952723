"""Hot-path optimization layer for the mapping and layout stack.

Two kinds of fast path live here.  The tree matcher's are switchable
(see ``PerfOptions``); each is bit-identical to the naive matcher,
which ``PerfOptions.naive()`` selects:

* **match memoization** (:mod:`repro.perf.memomatch`) — structural matches
  depend only on the truncated fanin DAG below a node, so nodes with equal
  canonical subtree signatures share one memoized match list;
* **pattern indexing** (:mod:`repro.perf.patindex`) — the pattern set is
  pre-bucketed by root/child base-function kinds and required gate height,
  so the matcher tries only plausible patterns;
* **parallel cone mapping** (:mod:`repro.perf.parallel`) — an opt-in
  ``concurrent.futures`` executor pre-computes the per-cone match lists in
  parallel with a deterministic merge order.

The layout kernels have one production path each, with no switch:

* **incremental net caching** (:mod:`repro.perf.netcache`) — Lily's
  per-net true-fanout lists and pin points are cached across cones and
  invalidated by delta on commit instead of recomputed per candidate;
* **incremental placement bookkeeping** (:mod:`repro.perf.incremental`) —
  per-net bounding-box caches giving the annealer and the detailed swap
  pass O(pins-of-moved-cell) cost deltas instead of full-net re-folds;
* **struct-of-arrays kernels** (:mod:`repro.perf.vec`) — flat pin tables
  and array folds for quadratic assembly, net boxes, wirelength and STA;
* **incremental timing** (:mod:`repro.timing.incremental`) — dirty-node
  frontier propagation so a gate move re-times only its fanout cone.

Their naive twins survive only as test oracles under ``tests/`` or as
the flag-free references ``repro.verify`` audits against
(:func:`repro.timing.sta.analyze`,
:func:`repro.route.wirelength.netlist_hpwl_naive`, ...), so every
result stays bit-identical to the naive arithmetic.  Cache hit/miss
counters report through ``repro.obs`` (visible in ``report --profile``).
"""

import importlib

from repro.perf.options import PerfOptions
from repro.perf.signature import subtree_signature

__all__ = [
    "PerfOptions",
    "subtree_signature",
    "PatternIndex",
    "MemoMatcher",
    "NetCache",
    "prewarm_match_cache",
    "NetBoxCache",
    "StampedNetBoxCache",
]

# The heavier members live in submodules that import from repro.map /
# repro.core; loading them here eagerly would close an import cycle
# (map.base -> repro.perf -> netcache -> repro.map).  PEP 562 lazy
# attributes keep `from repro.perf import NetCache` working regardless
# of which package loads first.
_LAZY = {
    "PatternIndex": "repro.perf.patindex",
    "MemoMatcher": "repro.perf.memomatch",
    "NetCache": "repro.perf.netcache",
    "prewarm_match_cache": "repro.perf.parallel",
    "NetBoxCache": "repro.perf.incremental",
    "StampedNetBoxCache": "repro.perf.incremental",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
