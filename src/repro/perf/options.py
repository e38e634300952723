"""Options of the ``repro.perf`` layer.

Every hot path in the mapping and layout stack has one production
implementation, with no switch: the tree matcher is the bottom-up table
matcher of :mod:`repro.match.treematch`, and each placement, routing,
timing and Lily net-cache kernel keeps its naive twin only as a test
oracle or as a flag-free reference that ``repro.verify`` audits against
(see ``docs/SCALING.md``).  What is left to choose is how many worker
processes a suite run fans its circuits over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["PerfOptions"]


@dataclass(frozen=True)
class PerfOptions:
    """How a suite run uses the host.

    Attributes:
        procs: worker *processes* for suite runs (``run_table1`` /
            ``run_table2``); circuits fan out over a process pool and
            per-circuit rows/profiles merge deterministically in
            submission order (identical for any value).
    """

    procs: int = 1

    def with_procs(self, procs: int) -> "PerfOptions":
        """A copy with ``procs`` suite worker processes (at least one)."""
        return replace(self, procs=max(1, int(procs)))
