"""Hot-path optimization layer for the mapping and layout stack.

Every kernel here has one production path, with no switch:

* **incremental net caching** (:mod:`repro.perf.netcache`) — Lily's
  per-net true fanouts, pin points and pin caps are cached across cones
  and invalidated by delta on commit instead of recomputed per
  candidate; every Lily cost reads them;
* **incremental placement bookkeeping** (:mod:`repro.perf.incremental`) —
  one per-net bounding-box cache giving the annealer and the detailed
  swap pass cost deltas over the moved cells' nets only;
* **the struct-of-arrays quadratic assembly** (:mod:`repro.perf.vec`) —
  the placement system built as vectorized index/value streams;
* **incremental timing** (:mod:`repro.timing.incremental`) — per-node
  dirty-frontier propagation so a gate move re-times only its fanout
  cone; full passes run on :func:`repro.timing.sta.analyze`.

Structural matching has its fast path built in: the bottom-up table
matcher (:mod:`repro.match.treematch`) matches each pattern subtree once
per subject gate.  The naive twins survive only as test oracles under
``tests/`` (the recursive matcher is ``tests/oracles/match.py``), and
``repro.verify`` audits the incremental STA against a fresh
:func:`repro.timing.sta.analyze`, so every result stays bit-identical
to the naive arithmetic.  Cache hit/miss
counters report through ``repro.obs`` (visible in ``report --profile``).
:class:`PerfOptions` keeps the one remaining choice: how many worker
processes a suite run uses.
"""

import importlib

from repro.perf.options import PerfOptions

__all__ = [
    "PerfOptions",
    "NetCache",
    "NetBoxCache",
]

# The heavier members live in submodules that import from repro.map /
# repro.core; loading them here eagerly would close import cycles
# through those packages (repro.core.lily imports netcache).  PEP 562 lazy
# attributes keep `from repro.perf import NetCache` working regardless
# of which package loads first.
_LAZY = {
    "NetCache": "repro.perf.netcache",
    "NetBoxCache": "repro.perf.incremental",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
