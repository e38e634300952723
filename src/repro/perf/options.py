"""Switches for the ``repro.perf`` optimization layer.

Only the tree matcher keeps switchable fast paths: match memoization and
the pattern index default to *on* — they are bit-identical to the naive
matcher — while parallel mapping defaults to one job (the executor is
opt-in via ``--jobs N`` on the CLI).  ``PerfOptions.naive()`` turns the
matcher switches off; the golden-equivalence tests map every circuit
both ways and assert the results are identical.

The placement, routing, timing and Lily net-cache kernels have no
switch: each runs one production path, and its naive twin survives only
as a test oracle or as a flag-free reference that ``repro.verify``
audits against (see ``docs/SCALING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["PerfOptions"]


@dataclass(frozen=True)
class PerfOptions:
    """Tuning switches of the mapping hot path.

    Attributes:
        memoize_matches: share match lists between subject nodes with equal
            canonical subtree signatures.
        index_patterns: prune candidate patterns with the root/child-kind
            and gate-height index instead of trying the full library.
        jobs: worker threads for the parallel per-cone match prewarm
            (1 = sequential; results are identical for any value).
        procs: worker *processes* for suite runs (``run_table1`` /
            ``run_table2``); circuits fan out over a process pool and
            per-circuit rows/profiles merge deterministically in
            submission order (identical for any value).
    """

    memoize_matches: bool = True
    index_patterns: bool = True
    jobs: int = 1
    procs: int = 1

    @staticmethod
    def naive() -> "PerfOptions":
        """Every matcher fast path off, sequential — the reference matcher."""
        return PerfOptions(
            memoize_matches=False,
            index_patterns=False,
            jobs=1,
            procs=1,
        )

    def with_jobs(self, jobs: int) -> "PerfOptions":
        """A copy with ``jobs`` match-prewarm threads (at least one)."""
        return replace(self, jobs=max(1, int(jobs)))

    def with_procs(self, procs: int) -> "PerfOptions":
        """A copy with ``procs`` suite worker processes (at least one)."""
        return replace(self, procs=max(1, int(procs)))
