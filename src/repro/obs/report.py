"""Per-flow observability reports (the ``--profile`` phase table).

An :class:`ObsReport` freezes what one pipeline run did: the span tree
under the flow's root span aggregated into per-phase rows (inclusive and
exclusive wall time, call counts), plus the counters/gauges/histograms
the run moved.  It is attached to ``FlowResult.obs`` so table drivers,
benchmarks and the CLI can all consume the same numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import histogram_delta, merge_histogram_summaries
from repro.obs.session import ObsSession
from repro.obs.tracer import Span

__all__ = ["PhaseStat", "ObsReport", "build_report", "merge_reports"]

#: Aggregated phase rows deeper than this are folded into their parent.
MAX_TABLE_DEPTH = 3


@dataclass
class PhaseStat:
    """One aggregated row of the phase table."""

    path: str  # "map/lily.initial_place"
    depth: int  # 1 for direct children of the flow root
    count: int
    total_s: float  # inclusive
    exclusive_s: float

    @property
    def name(self) -> str:
        """The last path segment (the phase's own name)."""
        return self.path.rsplit("/", 1)[-1]


@dataclass
class ObsReport:
    """Everything one flow run recorded."""

    flow: str  # "mis" | "lily"
    circuit: str
    wall_s: float
    phases: List[PhaseStat] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def phase_total(self) -> float:
        """Sum of top-level phase times (should track ``wall_s``)."""
        return sum(p.total_s for p in self.phases if p.depth == 1)

    def phase(self, path: str) -> Optional[PhaseStat]:
        """The stat row at an exact phase path (``None`` when absent)."""
        for p in self.phases:
            if p.path == path:
                return p
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (inverse of the merge input)."""
        return {
            "flow": self.flow,
            "circuit": self.circuit,
            "wall_s": self.wall_s,
            "phases": [
                {
                    "path": p.path,
                    "depth": p.depth,
                    "count": p.count,
                    "total_s": p.total_s,
                    "exclusive_s": p.exclusive_s,
                }
                for p in self.phases
            ],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def to_json(self) -> str:
        """``to_dict`` rendered as indented JSON text."""
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        """The human-readable ``--profile`` breakdown."""
        lines = [
            f"=== profile: {self.circuit} — {self.flow} "
            f"({self.wall_s:.3f}s wall) ==="
        ]
        lines.append(
            f"{'phase':<28}{'calls':>7}{'total s':>10}{'excl s':>10}{'%':>6}"
        )
        for p in self.phases:
            indent = "  " * (p.depth - 1)
            share = 100.0 * p.total_s / self.wall_s if self.wall_s else 0.0
            lines.append(
                f"{indent + p.name:<28}{p.count:>7}{p.total_s:>10.3f}"
                f"{p.exclusive_s:>10.3f}{share:>6.1f}"
            )
        covered = self.phase_total()
        lines.append(
            f"{'(phases sum)':<28}{'':>7}{covered:>10.3f}{'':>10}"
            f"{100.0 * covered / self.wall_s if self.wall_s else 0.0:>6.1f}"
        )
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<34}{self.counters[name]:>12}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<34}{self.gauges[name]:>12.3f}")
        if self.histograms:
            lines.append("histograms:")
            for name in sorted(self.histograms):
                h = self.histograms[name]
                row = (
                    f"  {name:<34}n={h.get('count', 0):<8.0f}"
                    f"mean={h.get('mean', 0.0):<10.3f}"
                    f"min={h.get('min', 0.0):<10.3f}"
                    f"max={h.get('max', 0.0):<.3f}"
                )
                if "p50" in h:
                    row += (f"  p50={h['p50']:<10.3g}"
                            f"p90={h.get('p90', 0.0):<10.3g}"
                            f"p99={h.get('p99', 0.0):<.3g}")
                lines.append(row)
        return "\n".join(lines)


def _aggregate(root: Span) -> List[PhaseStat]:
    """Fold the span tree into path-keyed rows, document order."""
    rows: Dict[str, PhaseStat] = {}
    order: List[str] = []

    def visit(span: Span, prefix: str, depth: int) -> None:
        path = f"{prefix}{span.name}" if prefix else span.name
        stat = rows.get(path)
        if stat is None:
            stat = rows[path] = PhaseStat(path, depth, 0, 0.0, 0.0)
            order.append(path)
        stat.count += 1
        stat.total_s += span.duration
        if depth >= MAX_TABLE_DEPTH:
            # Fold deeper descendants into this row's exclusive time.
            stat.exclusive_s += span.duration
            return
        stat.exclusive_s += span.exclusive
        for child in span.children:
            visit(child, f"{path}/", depth + 1)

    for child in root.children:
        visit(child, "", 1)
    return [rows[path] for path in order]


def build_report(
    root: Span,
    session: ObsSession,
    counters_before: Optional[Dict[str, int]] = None,
    flow: str = "",
    circuit: str = "",
    histograms_before: Optional[Dict[str, Dict[str, Any]]] = None,
) -> ObsReport:
    """Freeze the subtree under ``root`` plus the metric movement.

    ``counters_before`` and ``histograms_before`` are pre-flow snapshots
    (:meth:`~repro.obs.metrics.Metrics.snapshot_counters`,
    :meth:`~repro.obs.metrics.Metrics.snapshot_histograms`); the report
    holds only what moved since, so consecutive flows in one session stay
    separable and :func:`merge_reports` sums them without double
    counting (see :func:`~repro.obs.metrics.histogram_delta` for the
    extremes).  Gauges are session-cumulative: a last value cannot be
    differenced.
    """
    counters_before = counters_before or {}
    counters: Dict[str, int] = {}
    for name, value in session.metrics.snapshot_counters().items():
        delta = value - counters_before.get(name, 0)
        if delta:
            counters[name] = delta
    histograms_before = histograms_before or {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for name, hist in session.metrics.histograms.items():
        summary = histogram_delta(hist, histograms_before.get(name))
        if summary is not None:
            histograms[name] = summary
    return ObsReport(
        flow=flow or str(root.attrs.get("mapper", "")),
        circuit=circuit or str(root.attrs.get("circuit", "")),
        wall_s=root.duration,
        phases=_aggregate(root),
        counters=counters,
        gauges={k: g.value for k, g in session.metrics.gauges.items()},
        histograms=histograms,
    )


def merge_reports(reports: List[ObsReport]) -> Optional[ObsReport]:
    """Fold several per-flow reports into one suite-level profile.

    Used by the process-parallel table drivers, which collect one
    :class:`ObsReport` per circuit per flow from the workers and present
    them as a single ``--profile`` table.  Semantics: phase rows merge by
    path (counts and times sum; first appearance fixes the order),
    counters sum, gauges keep the last report's value (they are
    point-in-time readings), histograms combine bucket-exactly via
    :func:`repro.obs.metrics.merge_histogram_summaries` (counts and
    sums add, extremes combine, percentiles recompute from the merged
    buckets).  Reports whose metric key sets differ merge fine — every
    name is folded independently, and old-schema histogram summaries
    without bucket counts still combine count/mean/min/max.  ``wall_s``
    is the *sum* of the member walls — total work performed, not
    elapsed time, which under ``--procs`` is smaller.
    """
    reports = [r for r in reports if r is not None]
    if not reports:
        return None
    merged = ObsReport(
        flow=reports[0].flow if all(
            r.flow == reports[0].flow for r in reports) else "suite",
        circuit="suite" if len(reports) > 1 else reports[0].circuit,
        wall_s=0.0,
    )
    phase_by_path: Dict[str, PhaseStat] = {}
    for report in reports:
        merged.wall_s += report.wall_s
        for p in report.phases:
            stat = phase_by_path.get(p.path)
            if stat is None:
                stat = PhaseStat(p.path, p.depth, 0, 0.0, 0.0)
                phase_by_path[p.path] = stat
                merged.phases.append(stat)
            stat.count += p.count
            stat.total_s += p.total_s
            stat.exclusive_s += p.exclusive_s
        for name, value in report.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        merged.gauges.update(report.gauges)
        for name, h in report.histograms.items():
            got = merged.histograms.get(name)
            if got is None:
                merged.histograms[name] = dict(h)
                continue
            merge_histogram_summaries(got, h)
    return merged
