"""Small helpers for constructing node functions programmatically."""

from __future__ import annotations

from repro.network.logic import Cube, SopCover

__all__ = ["sop_and", "sop_or", "sop_xor", "sop_xnor", "sop_maj3"]


def sop_and(n: int) -> SopCover:
    return SopCover(n, [Cube("1" * n)])


def sop_or(n: int) -> SopCover:
    cubes = []
    for i in range(n):
        cubes.append(Cube("-" * i + "1" + "-" * (n - i - 1)))
    return SopCover(n, cubes)


def sop_xor(n: int = 2) -> SopCover:
    """Odd parity of n inputs as a (two-level) cover."""
    from repro.network.logic import TruthTable

    tt = TruthTable.from_function(n, lambda bits: sum(bits) % 2 == 1)
    return tt.to_sop()


def sop_xnor(n: int = 2) -> SopCover:
    from repro.network.logic import TruthTable

    tt = TruthTable.from_function(n, lambda bits: sum(bits) % 2 == 0)
    return tt.to_sop()


def sop_maj3() -> SopCover:
    return SopCover(3, [Cube("11-"), Cube("1-1"), Cube("-11")])
