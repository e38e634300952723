"""Result types for the verification subsystem.

Every checker returns a :class:`CheckResult`; an audit run collects them
into a :class:`VerifyReport`.  Checkers never raise on a *finding* — a
broken invariant is data, not an exception — so a single audit pass can
report every violated invariant at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["CheckResult", "VerifyReport"]


@dataclass
class CheckResult:
    """Outcome of one checker applied to one artifact.

    Attributes:
        name: dotted checker id, e.g. ``"equiv.mapped"`` or
            ``"invariant.mapped.acyclic"``.  The prefix before the first
            dot groups checkers into families (``equiv``, ``invariant``).
        target: what was checked (a network/netlist name, a phase).
        passed: ``True`` when the invariant held.
        details: human-readable finding — the first counterexample or the
            first violated structural fact; empty when passed.
        duration_s: wall-clock cost of the check.
    """

    name: str
    target: str
    passed: bool
    details: str = ""
    duration_s: float = 0.0

    def __str__(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        line = f"[{mark}] {self.name:<34} {self.target}"
        if self.details:
            line += f" — {self.details}"
        return line


@dataclass
class VerifyReport:
    """All check results of one audit run."""

    level: str
    checks: List[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        """Append one result and return it (for chaining)."""
        self.checks.append(result)
        return result

    def extend(self, results: List[CheckResult]) -> None:
        """Append many results."""
        self.checks.extend(results)

    @property
    def passed(self) -> bool:
        """``True`` iff every check passed."""
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[CheckResult]:
        """The failing checks, in run order."""
        return [c for c in self.checks if not c.passed]

    def family_passed(self, prefix: str) -> bool:
        """Did every check whose name starts with ``prefix`` pass?"""
        return all(
            c.passed for c in self.checks if c.name.startswith(prefix)
        )

    def counts(self) -> Dict[str, int]:
        """Summary counts: run / passed / failed."""
        failed = len(self.failures)
        return {
            "run": len(self.checks),
            "passed": len(self.checks) - failed,
            "failed": failed,
        }

    def format_table(self) -> str:
        """Fixed-width report table, one line per check."""
        lines = [f"verify report (level={self.level})"]
        lines.extend(str(c) for c in self.checks)
        c = self.counts()
        lines.append(
            f"{c['run']} checks: {c['passed']} passed, {c['failed']} failed"
        )
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        """Raise ``AssertionError`` listing every failed check."""
        if self.passed:
            return
        summary = "\n".join(str(c) for c in self.failures)
        raise AssertionError(f"verification failed:\n{summary}")
