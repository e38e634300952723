"""Per-layer self time, measured from the benchmark side.

:class:`LayerClock` wraps the public entry points of each ``repro`` layer
with a timer: decomposition, the mapper constructors (pattern set and NPN
table), the tree and cut covering DPs, Lily, pads, global and detailed
placement, routing, full and incremental STA, and the verification step.
Nothing in the program changes: :meth:`LayerClock.install` replaces the
entry points on the live modules and classes, :meth:`LayerClock.uninstall`
puts the originals back.

Spans nest, and every time is *self* time: a call's wall time minus the
wall time of the wrapped calls made inside it.  Lily's initial
``GlobalPlacer.place`` is therefore charged to ``place.global``, not to
``core.lily``, and the STA calls inside the audit to ``timing.*``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple, Union

#: Every layer the clock charges.  ``flow.self_s`` is the rest of the
#: timed wall: the pipeline glue, including the chip-area estimate.
LAYERS = (
    "network.decompose",
    "library.mapper_init",
    "map.tree",
    "map.cuts",
    "core.lily",
    "place.pads",
    "place.global",
    "place.detailed",
    "route.design",
    "timing.full",
    "timing.incremental",
    "verify.check",
)

#: Per-layer metrics of a traced run: name -> (unit, better).
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "map.tree_s": ("s", "lower"),
    "map.tree_us_per_gate": ("us/gate", "lower"),
    "map.dp_visits_per_gate": ("visit/gate", "lower"),
    "match.memo_hit_ratio": ("ratio", "higher"),
    "map.cuts_s": ("s", "lower"),
    "map.cuts_us_per_gate": ("us/gate", "lower"),
    "core.lily_s": ("s", "lower"),
    "core.lily_us_per_gate": ("us/gate", "lower"),
    "core.netcache_hit_ratio": ("ratio", "higher"),
    "core.position_evals": ("count", "lower"),
    "library.mapper_init_s": ("s", "lower"),
    "network.decompose_s": ("s", "lower"),
    "network.subject_gates": ("count", "lower"),
    "place.global_s": ("s", "lower"),
    "place.global_us_per_cell": ("us/cell", "lower"),
    "place.pads_s": ("s", "lower"),
    "place.detailed_s": ("s", "lower"),
    "route.design_s": ("s", "lower"),
    "route.nets": ("count", "lower"),
    "timing.full_s": ("s", "lower"),
    "timing.incremental_s": ("s", "lower"),
    "timing.us_per_move": ("us/move", "lower"),
    "verify.check_s": ("s", "lower"),
    "verify.checks_run": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "flow.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.factor": ("ratio", "lower"),
}

Layer = Union[str, Callable[[tuple], str]]


class LayerClock:
    """Self time, call counts and work counts per layer.

    The wrappers only measure while :attr:`active` is true, so the
    benchmark's own correctness checks, which call some of the same
    entry points, are never charged to a layer.
    """

    def __init__(self) -> None:
        self.active = False
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        #: Work done per layer: gates mapped, cells placed, nets routed,
        #: incremental moves, audit checks run and failed, DP visits.
        self.work: Counter = Counter()
        self._open: List[float] = []  # wall of wrapped calls inside each open span
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, layer: Layer, before=None, after=None):
        clock = time.perf_counter
        open_spans = self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            token = before() if before is not None else None
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                self.self_s[name] += elapsed - inner
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(self.work, name, args, result, token)
            return result

        return timed

    def _patch_method(self, cls, attr: str, layer: Layer, before=None,
                      after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, layer, before, after))

    def _patch_function(self, module, attr: str, layer: Layer,
                        after=None) -> None:
        """Replace a function in its module and wherever it was imported."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, layer, after=after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(
                    ("repro", "perfbench")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self) -> "LayerClock":
        """Wrap every layer's public entry points."""
        from repro.core.lily import LilyAreaMapper, LilyDelayMapper
        from repro.map.base import BaseMapper
        from repro.map.cuts import CutMapper
        from repro.obs import OBS
        from repro.place.global_place import GlobalPlacer
        from repro.timing.incremental import IncrementalTiming

        # Package namespaces re-export functions under their modules'
        # names (``repro.verify.audit`` is also a function), so import
        # the modules themselves.
        module = importlib.import_module
        decompose = module("repro.network.decompose")
        simulate = module("repro.network.simulate")
        pads = module("repro.place.pads")
        detailed = module("repro.place.detailed")
        global_route = module("repro.route.global_route")
        sta = module("repro.timing.sta")
        array_sta = module("repro.timing.array_sta")
        audit = module("repro.verify.audit")

        lily = (LilyAreaMapper, LilyDelayMapper)

        def tree_or_lily(args) -> str:
            return "core.lily" if isinstance(args[0], lily) else "map.tree"

        def dp_visits() -> int:
            counter = OBS.metrics.counters.get("dp.nodes_visited")
            return counter.value if counter is not None else 0

        def mapped(work, layer, args, result, visits_before):
            work[layer + ".gates"] += len(args[1].gates)
            if visits_before is not None:
                work[layer + ".dp_visits"] += dp_visits() - visits_before

        def decomposed(work, layer, args, result, _):
            work[layer + ".gates"] += len(result.gates)

        def placed(work, layer, args, result, _):
            work[layer + ".cells"] += len(args[1].movables)

        def routed(work, layer, args, result, _):
            work[layer + ".nets"] += len(result.net_lengths)

        def moved(work, layer, args, result, _):
            work[layer + ".moves"] += 1

        def audited(work, layer, args, result, _):
            counts = result.counts()
            work[layer + ".run"] += counts["run"]
            work[layer + ".failed"] += counts["failed"]

        def compared(work, layer, args, result, _):
            work[layer + ".run"] += 1
            work[layer + ".failed"] += 0 if result else 1

        self._patch_method(BaseMapper, "__init__", "library.mapper_init")
        self._patch_method(CutMapper, "__init__", "library.mapper_init")
        self._patch_method(BaseMapper, "map", tree_or_lily,
                           before=dp_visits, after=mapped)
        self._patch_method(CutMapper, "map", "map.cuts", after=mapped)
        self._patch_function(decompose, "decompose_to_subject",
                             "network.decompose", after=decomposed)
        self._patch_function(pads, "io_affinity_order", "place.pads")
        self._patch_function(pads, "perimeter_slots", "place.pads")
        self._patch_method(GlobalPlacer, "place", "place.global",
                           after=placed)
        self._patch_function(detailed, "detailed_place", "place.detailed")
        self._patch_function(global_route, "route_design", "route.design",
                             after=routed)
        self._patch_function(sta, "analyze", "timing.full")
        self._patch_function(array_sta, "analyze_array", "timing.full")
        for attr in ("__init__", "set_input_arrival", "invalidate", "update",
                     "required", "check_against_full"):
            self._patch_method(IncrementalTiming, attr, "timing.incremental")
        self._patch_method(IncrementalTiming, "set_position",
                           "timing.incremental", after=moved)
        self._patch_function(audit, "audit_flow", "verify.check",
                             after=audited)
        self._patch_function(simulate, "networks_equivalent", "verify.check",
                             after=compared)
        return self

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _share(part: float, whole: float, scale: float = 1.0) -> float:
    return part * scale / whole if whole else 0.0


def layer_metrics(clock: LayerClock, counters: Dict[str, int], passes: int,
                  traced_walls: List[float],
                  untraced_walls: List[float]) -> Dict[str, float]:
    """The per-layer metrics of a traced run, per pass.

    ``counters`` are the ``repro.obs`` counter totals of the traced
    passes; only counters are read, because the session's histograms
    accumulate across flows.
    """
    s = {layer: clock.self_s[layer] / passes for layer in LAYERS}
    w = {key: value / passes for key, value in clock.work.items()}
    c = {key: value / passes for key, value in counters.items()}

    def hit_ratio(prefix: str) -> float:
        hits = c.get(prefix + "hits", 0)
        return _share(hits, hits + c.get(prefix + "misses", 0))

    tree_gates = w.get("map.tree.gates", 0)
    traced_wall = statistics.fmean(traced_walls)
    return {
        "map.tree_s": s["map.tree"],
        "map.tree_us_per_gate": _share(s["map.tree"], tree_gates, 1e6),
        "map.dp_visits_per_gate": _share(w.get("map.tree.dp_visits", 0),
                                         tree_gates),
        "match.memo_hit_ratio": hit_ratio("perf.sig_memo_"),
        "map.cuts_s": s["map.cuts"],
        "map.cuts_us_per_gate": _share(s["map.cuts"],
                                       w.get("map.cuts.gates", 0), 1e6),
        "core.lily_s": s["core.lily"],
        "core.lily_us_per_gate": _share(s["core.lily"],
                                        w.get("core.lily.gates", 0), 1e6),
        "core.netcache_hit_ratio": hit_ratio("perf.netcache_"),
        "core.position_evals": c.get("lily.position_evals", 0),
        "library.mapper_init_s": s["library.mapper_init"],
        "network.decompose_s": s["network.decompose"],
        "network.subject_gates": w.get("network.decompose.gates", 0),
        "place.global_s": s["place.global"],
        "place.global_us_per_cell": _share(
            s["place.global"], w.get("place.global.cells", 0), 1e6),
        "place.pads_s": s["place.pads"],
        "place.detailed_s": s["place.detailed"],
        "route.design_s": s["route.design"],
        "route.nets": w.get("route.design.nets", 0),
        "timing.full_s": s["timing.full"],
        "timing.incremental_s": s["timing.incremental"],
        "timing.us_per_move": _share(
            s["timing.incremental"],
            w.get("timing.incremental.moves", 0), 1e6),
        "verify.check_s": s["verify.check"],
        "verify.checks_run": w.get("verify.check.run", 0),
        "verify.checks_failed": w.get("verify.check.failed", 0),
        "flow.self_s": traced_wall - sum(s.values()),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(untraced_walls),
    }
