"""Audit orchestration: run every applicable checker over a flow's artifacts.

The audit has two effort tiers:

* ``fast`` — all structural invariant checkers plus one end-to-end
  equivalence proof (source network ↔ mapped netlist) with a 12-input
  exhaustive limit and 1024 random vectors.  Cheap enough to run inside
  tests and on every flow when ``--verify fast`` is given.
* ``full`` — the fast tier plus stepwise equivalence (source ↔ subject
  graph and subject graph ↔ mapped netlist, so a failure names the phase
  that broke the function), a 16-input exhaustive limit and 8192 random
  vectors.

Results flow through :class:`~repro.verify.result.VerifyReport`; when the
global observability session is enabled, per-family counters
(``verify.checks``, ``verify.failures``) and a ``verify.audit`` span are
emitted so ``--profile`` shows the audit next to the other phases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.map.lifecycle import LifecycleTracker
from repro.map.netlist import MappedNetwork
from repro.network.network import Network
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS
from repro.place.detailed import DetailedPlacement
from repro.timing.model import WireCapModel
from repro.timing.sta import TimingReport
from repro.verify.equiv import EquivBudget, check_equivalence
from repro.verify.invariants import (
    check_cone_partition,
    check_cut_cover,
    check_incremental_sta,
    check_lifecycle,
    check_mapped,
    check_network,
    check_placement,
    check_subject,
    check_timing,
)
from repro.verify.result import CheckResult, VerifyReport

__all__ = ["FlowArtifacts", "audit", "audit_flow", "audit_mapping",
           "LEVELS"]

#: The recognised audit levels, in increasing effort order.
LEVELS = ("fast", "full")


@dataclass
class FlowArtifacts:
    """Everything one pipeline run produced that the audit can inspect.

    Any field may be ``None``; the audit runs whichever checkers its
    inputs are present for.  ``cones`` is the (output, gate-set) list the
    mapper partitioned the subject graph into; when omitted it is
    recomputed, so pass the mapper's own list to audit *its* partition.
    """

    net: Optional[Network] = None
    subject: Optional[SubjectGraph] = None
    mapped: Optional[MappedNetwork] = None
    lifecycle: Optional[LifecycleTracker] = None
    cones: Optional[
        Sequence[Tuple[SubjectNode, Set[SubjectNode]]]
    ] = None
    placement: Optional[DetailedPlacement] = None
    timing: Optional[TimingReport] = None
    wire_model: Optional[WireCapModel] = None
    #: Cut-cover records (``repro.map.cuts``); audited per match when the
    #: mapping came from the cut backend.
    cut_cover: Optional[Sequence] = None

    @staticmethod
    def from_flow(net, map_result, backend=None,
                  wire_model=None) -> "FlowArtifacts":
        """Collect artifacts from a mapper result and optional backend."""
        return FlowArtifacts(
            net=net,
            subject=map_result.subject,
            mapped=map_result.mapped,
            lifecycle=map_result.lifecycle,
            placement=backend.routed.placement if backend else None,
            timing=backend.timing if backend else None,
            wire_model=wire_model,
            cut_cover=getattr(map_result, "cut_cover", None),
        )


def _guarded_equivalence(a, b, budget: EquivBudget,
                         name: str) -> List[CheckResult]:
    """Equivalence that degrades to a failed check on a broken artifact.

    A corrupted network (e.g. a combinational cycle) makes simulation
    impossible; the audit reports that as a failure instead of dying, so
    the structural findings still reach the caller.
    """
    t0 = time.perf_counter()
    try:
        return check_equivalence(a, b, budget, name=name)
    except Exception as exc:
        target = f"{getattr(a, 'name', 'a')} vs {getattr(b, 'name', 'b')}"
        return [CheckResult(
            f"{name}.error", target, False,
            f"equivalence run aborted: {exc}", time.perf_counter() - t0,
        )]


def audit(artifacts: FlowArtifacts, level: str = "fast") -> VerifyReport:
    """Run every applicable checker; returns the collected report."""
    if level not in LEVELS:
        raise ValueError(f"unknown verify level: {level!r}")
    budget = EquivBudget.for_level(level)
    report = VerifyReport(level)
    a = artifacts

    with OBS.span("verify.audit", level=level):
        # Structural invariants first: equivalence assumes sane DAGs.
        if a.net is not None:
            report.extend(check_network(a.net))
        if a.subject is not None:
            report.extend(check_subject(a.subject))
            report.extend(check_cone_partition(a.subject, a.cones))
        if a.mapped is not None:
            report.extend(check_mapped(a.mapped))
        if a.lifecycle is not None and a.subject is not None:
            report.extend(check_lifecycle(a.lifecycle, a.subject))
        if a.cut_cover and a.subject is not None and a.mapped is not None:
            report.extend(check_cut_cover(a.subject, a.mapped, a.cut_cover))
        if a.placement is not None and a.mapped is not None:
            report.extend(check_placement(a.mapped, a.placement))
        if a.timing is not None and a.mapped is not None:
            report.extend(check_timing(a.mapped, a.timing,
                                       wire_model=a.wire_model))
            # The incremental STA engine must track full recomputation
            # bitwise; exercise it with seeded random gate moves (one
            # trial on fast audits, three on full).
            report.extend(check_incremental_sta(
                a.mapped, wire_model=a.wire_model,
                trials=1 if level == "fast" else 3))

        # Functional equivalence across the phases that must preserve it.
        if a.net is not None and a.mapped is not None:
            report.extend(_guarded_equivalence(
                a.net, a.mapped, budget, "equiv.net_mapped"))
        if level == "full":
            if a.net is not None and a.subject is not None:
                report.extend(_guarded_equivalence(
                    a.net, a.subject, budget, "equiv.net_subject"))
            if a.subject is not None and a.mapped is not None:
                report.extend(_guarded_equivalence(
                    a.subject, a.mapped, budget, "equiv.subject_mapped"))
        elif a.net is None and a.subject is not None and a.mapped is not None:
            # Mapping-only fast audits still get one equivalence proof.
            report.extend(_guarded_equivalence(
                a.subject, a.mapped, budget, "equiv.subject_mapped"))

    if OBS.enabled:
        counts = report.counts()
        OBS.metrics.counter("verify.checks").inc(counts["run"])
        OBS.metrics.counter("verify.failures").inc(counts["failed"])
    return report


def audit_flow(net, map_result, backend=None, level: str = "fast",
               wire_model=None) -> VerifyReport:
    """Audit one pipeline run end to end.

    Args:
        net: the source network the flow started from.
        map_result: the mapper's :class:`~repro.map.base.MapResult`.
        backend: the flow's :class:`~repro.flow.pipeline.BackendResult`
            (placement + timing checks are skipped when ``None``).
        level: ``"fast"`` or ``"full"``.
        wire_model: the wire-capacitance model the backend STA ran with;
            enables exact load recomputation.
    """
    return audit(
        FlowArtifacts.from_flow(net, map_result, backend, wire_model),
        level=level,
    )


def audit_mapping(map_result, net=None, level: str = "fast") -> VerifyReport:
    """Audit a mapper result alone (no placement/timing backend)."""
    return audit(
        FlowArtifacts.from_flow(net, map_result),
        level=level,
    )
