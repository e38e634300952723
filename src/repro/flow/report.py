"""Human-readable reports for flow results.

Summarises a pipeline run the way a tool log would: netlist statistics,
cell histogram, area breakdown (cells vs routing vs pad ring), channel
congestion, wirelength, and the wiring-aware critical path with slacks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.flow.pipeline import FlowResult
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, critical_path, slacks

__all__ = ["circuit_report", "comparison_report"]


def circuit_report(
    result: FlowResult,
    wire_model: Optional[WireCapModel] = None,
    max_path_rows: int = 12,
) -> str:
    """Full single-run report."""
    mapped = result.mapped
    backend = result.backend
    chip = backend.chip
    lines: List[str] = []
    lines.append(f"=== {result.circuit} — {result.mapper} ({result.mode} mode) ===")
    lines.append(
        f"gates: {result.num_gates}   verified: {result.equivalent}   "
        f"runtime: {result.runtime_s:.1f}s"
    )

    lines.append("cell histogram:")
    hist = mapped.cell_histogram()
    for name in sorted(hist, key=lambda n: (-hist[n], n)):
        lines.append(f"  {name:<10} x{hist[name]}")

    lines.append("area:")
    lines.append(f"  instance (cells) : {result.instance_area_mm2:9.4f} mm^2")
    lines.append(f"  routing          : {chip.routing_area / 1e6:9.4f} mm^2")
    lines.append(f"  chip (with pads) : {result.chip_area_mm2:9.4f} mm^2")

    routed = backend.routed
    lines.append("routing:")
    lines.append(f"  wire length      : {result.wire_length_mm:9.2f} mm")
    lines.append(f"  rows             : {backend.detailed.num_rows}")
    tracks = [c.num_tracks for c in routed.channels]
    lines.append(
        f"  channel tracks   : total {sum(tracks)}, max {max(tracks or [0])}"
        f", per channel {tracks}"
    )

    wire_model = wire_model or WireCapModel()
    report = analyze(mapped, wire_model=wire_model)
    lines.append("timing:")
    lines.append(f"  critical delay   : {report.critical_delay:9.2f} ns "
                 f"(at {report.critical_po})")
    worst = sorted(slacks(mapped, report).items(), key=lambda kv: kv[1])[:3]
    lines.append(
        "  tightest slacks  : "
        + ", ".join(f"{name}={value:.2f}" for name, value in worst)
    )
    lines.append("  critical path:")
    path = critical_path(mapped, report)
    shown = path if len(path) <= max_path_rows else path[-max_path_rows:]
    if len(path) > len(shown):
        lines.append(f"    ... {len(path) - len(shown)} earlier stages ...")
    for node in shown:
        cell = node.cell.name if node.is_gate else node.kind.value
        arrival = report.arrivals[node.name].worst
        lines.append(f"    {node.name:<18} {cell:<8} t={arrival:8.2f}")
    return "\n".join(lines)


def comparison_report(mis: FlowResult, lily: FlowResult) -> str:
    """Side-by-side MIS vs Lily summary (one Table row, expanded)."""
    lines = [f"=== {mis.circuit}: MIS 2.1 vs Lily ({mis.mode} mode) ==="]
    rows = [
        ("gates", mis.num_gates, lily.num_gates),
        ("instance mm^2", round(mis.instance_area_mm2, 4),
         round(lily.instance_area_mm2, 4)),
        ("chip mm^2", round(mis.chip_area_mm2, 4),
         round(lily.chip_area_mm2, 4)),
        ("wire mm", round(mis.wire_length_mm, 2),
         round(lily.wire_length_mm, 2)),
    ]
    if mis.mode == "timing":
        rows.append(("delay ns", round(mis.delay, 2), round(lily.delay, 2)))
    lines.append(f"{'metric':<16}{'MIS2.1':>12}{'Lily':>12}{'ratio':>9}")
    for metric, m, l in rows:
        ratio = (l / m) if m else float("nan")
        lines.append(f"{metric:<16}{m:>12}{l:>12}{ratio:>9.3f}")
    return "\n".join(lines)
