"""Boolean function representations.

Two complementary forms are used throughout the reproduction, mirroring MIS:

* :class:`SopCover` — a sum-of-products cover (list of :class:`Cube`), the
  node-function form read from and written to BLIF.
* :class:`TruthTable` — a dense truth table packed into a Python integer,
  used for equivalence checks, pattern canonisation and decomposition.

Truth tables are practical up to ~16 inputs; node functions in multi-level
networks are far smaller than that (the big library tops out at 6 inputs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["Cube", "SopCover", "TruthTable"]

#: Maximum support size for dense truth-table operations.
MAX_TT_INPUTS = 16


@dataclass(frozen=True)
class Cube:
    """A product term over ``n`` ordered inputs.

    Each input position holds ``'0'`` (complemented literal), ``'1'``
    (positive literal) or ``'-'`` (absent), exactly as in a BLIF cover row.
    """

    mask: str

    def __post_init__(self) -> None:
        if any(c not in "01-" for c in self.mask):
            raise ValueError(f"bad cube mask: {self.mask!r}")

    @property
    def num_inputs(self) -> int:
        return len(self.mask)

    @property
    def num_literals(self) -> int:
        """Number of literals (non-don't-care positions) in the cube."""
        return sum(1 for c in self.mask if c != "-")

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the cube under a truth assignment of its inputs."""
        if len(assignment) != len(self.mask):
            raise ValueError("assignment length mismatch")
        for bit, lit in zip(assignment, self.mask):
            if lit == "1" and not bit:
                return False
            if lit == "0" and bit:
                return False
        return True

    def restricted(self, positions: Sequence[int]) -> "Cube":
        """Return a cube over only the given input positions."""
        return Cube("".join(self.mask[i] for i in positions))


class SopCover:
    """A sum-of-products cover: OR of :class:`Cube` product terms.

    An empty cube list denotes the constant-zero function; a cover containing
    the all-don't-care cube denotes constant one (BLIF convention).
    """

    def __init__(self, num_inputs: int, cubes: Iterable[Cube] = ()) -> None:
        self.num_inputs = num_inputs
        self.cubes: List[Cube] = []
        for cube in cubes:
            if cube.num_inputs != num_inputs:
                raise ValueError(
                    f"cube width {cube.num_inputs} != cover width {num_inputs}"
                )
            self.cubes.append(cube)

    @staticmethod
    def constant(value: bool, num_inputs: int = 0) -> "SopCover":
        """The constant-0 or constant-1 cover over ``num_inputs`` inputs."""
        if value:
            return SopCover(num_inputs, [Cube("-" * num_inputs)] if num_inputs else [Cube("")])
        return SopCover(num_inputs, [])

    @property
    def num_cubes(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        """Total literal count — MIS's technology-independent cost metric."""
        return sum(c.num_literals for c in self.cubes)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the cover under a truth assignment of its inputs."""
        if self.num_inputs == 0:
            # Constant function: any cube present means constant 1.
            return bool(self.cubes)
        return any(c.evaluate(assignment) for c in self.cubes)

    def to_truth_table(self) -> "TruthTable":
        """Expand the cover to a dense truth table."""
        n = self.num_inputs
        if n > MAX_TT_INPUTS:
            raise ValueError(f"cover too wide for a dense table: {n} inputs")
        bits = 0
        for minterm in range(1 << n):
            assignment = [(minterm >> i) & 1 == 1 for i in range(n)]
            if self.evaluate(assignment):
                bits |= 1 << minterm
        return TruthTable(n, bits)

    def __repr__(self) -> str:
        return f"SopCover({self.num_inputs}, {[c.mask for c in self.cubes]})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SopCover):
            return NotImplemented
        return (
            self.num_inputs == other.num_inputs
            and self.to_truth_table() == other.to_truth_table()
        )

    def __hash__(self) -> int:
        tt = self.to_truth_table()
        return hash((tt.num_inputs, tt.bits))


class TruthTable:
    """A dense truth table over ``num_inputs`` ordered variables.

    Bit ``m`` of :attr:`bits` is the function value on the minterm whose
    variable ``i`` equals bit ``i`` of ``m`` (variable 0 is the LSB).
    """

    __slots__ = ("num_inputs", "bits")

    def __init__(self, num_inputs: int, bits: int) -> None:
        if num_inputs < 0 or num_inputs > MAX_TT_INPUTS:
            raise ValueError(f"unsupported truth-table width: {num_inputs}")
        self.num_inputs = num_inputs
        self.bits = bits & self._full_mask(num_inputs)

    @staticmethod
    def _full_mask(num_inputs: int) -> int:
        return (1 << (1 << num_inputs)) - 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: bool, num_inputs: int = 0) -> "TruthTable":
        mask = TruthTable._full_mask(num_inputs)
        return TruthTable(num_inputs, mask if value else 0)

    @staticmethod
    def variable(index: int, num_inputs: int) -> "TruthTable":
        """The projection function ``x_index`` over ``num_inputs`` variables."""
        if not 0 <= index < num_inputs:
            raise ValueError(f"variable {index} out of range for {num_inputs} inputs")
        bits = 0
        for m in range(1 << num_inputs):
            if (m >> index) & 1:
                bits |= 1 << m
        return TruthTable(num_inputs, bits)

    @staticmethod
    def from_function(num_inputs: int, fn) -> "TruthTable":
        """Build a table by evaluating ``fn(assignment_tuple) -> bool``."""
        bits = 0
        for m in range(1 << num_inputs):
            assignment = tuple((m >> i) & 1 == 1 for i in range(num_inputs))
            if fn(assignment):
                bits |= 1 << m
        return TruthTable(num_inputs, bits)

    # -- Boolean connectives ----------------------------------------------

    def _check_width(self, other: "TruthTable") -> None:
        if self.num_inputs != other.num_inputs:
            raise ValueError("truth-table width mismatch")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_width(other)
        return TruthTable(self.num_inputs, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_width(other)
        return TruthTable(self.num_inputs, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_width(other)
        return TruthTable(self.num_inputs, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_inputs, ~self.bits)

    def nand(self, other: "TruthTable") -> "TruthTable":
        return ~(self & other)

    # -- predicates / queries ----------------------------------------------

    def is_constant(self) -> Optional[bool]:
        """Return the constant value, or ``None`` if not constant."""
        if self.bits == 0:
            return False
        if self.bits == self._full_mask(self.num_inputs):
            return True
        return None

    def depends_on(self, index: int) -> bool:
        """Return whether the function actually depends on variable ``index``."""
        return self.cofactor(index, False) != self.cofactor(index, True)

    def support(self) -> List[int]:
        """Indices of variables the function truly depends on."""
        return [i for i in range(self.num_inputs) if self.depends_on(i)]

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_inputs:
            raise ValueError("assignment length mismatch")
        m = 0
        for i, bit in enumerate(assignment):
            if bit:
                m |= 1 << i
        return (self.bits >> m) & 1 == 1

    # -- structural operations ----------------------------------------------

    def cofactor(self, index: int, value: bool) -> "TruthTable":
        """Shannon cofactor with variable ``index`` fixed, same width."""
        bits = 0
        for m in range(1 << self.num_inputs):
            src = (m | (1 << index)) if value else (m & ~(1 << index))
            if (self.bits >> src) & 1:
                bits |= 1 << m
        return TruthTable(self.num_inputs, bits)

    def shrink_to_support(self) -> Tuple["TruthTable", List[int]]:
        """Project onto the true support; returns ``(table, kept_indices)``."""
        keep = self.support()
        return self.project(keep), keep

    def project(self, positions: Sequence[int]) -> "TruthTable":
        """Reorder/select variables: new variable ``j`` is old ``positions[j]``.

        The function must not depend on dropped variables.
        """
        for i in range(self.num_inputs):
            if i not in positions and self.depends_on(i):
                raise ValueError(f"cannot drop live variable {i}")
        n_new = len(positions)
        bits = 0
        for m in range(1 << n_new):
            src = 0
            for j, old in enumerate(positions):
                if (m >> j) & 1:
                    src |= 1 << old
            if (self.bits >> src) & 1:
                bits |= 1 << m
        return TruthTable(n_new, bits)

    def permuted(self, perm: Sequence[int]) -> "TruthTable":
        """Apply an input permutation: new variable ``j`` reads old ``perm[j]``."""
        if sorted(perm) != list(range(self.num_inputs)):
            raise ValueError(f"not a permutation: {perm}")
        bits = 0
        for m in range(1 << self.num_inputs):
            src = 0
            for j, old in enumerate(perm):
                if (m >> j) & 1:
                    src |= 1 << old
            if (self.bits >> src) & 1:
                bits |= 1 << m
        return TruthTable(self.num_inputs, bits)

    def with_phases(self, phases: Sequence[bool], out_phase: bool) -> "TruthTable":
        """Complement selected inputs and optionally the output."""
        bits = 0
        flip = 0
        for i, ph in enumerate(phases):
            if ph:
                flip |= 1 << i
        for m in range(1 << self.num_inputs):
            if (self.bits >> (m ^ flip)) & 1:
                bits |= 1 << m
        tt = TruthTable(self.num_inputs, bits)
        return ~tt if out_phase else tt

    # -- canonisation --------------------------------------------------------

    def p_canonical(self) -> "TruthTable":
        """Canonical representative under input permutation (P-class)."""
        best = None
        for perm in itertools.permutations(range(self.num_inputs)):
            cand = self.permuted(perm).bits
            if best is None or cand < best:
                best = cand
        return TruthTable(self.num_inputs, best if best is not None else self.bits)

    # -- SOP extraction -------------------------------------------------------

    def to_sop(self) -> SopCover:
        """Extract an irredundant-ish SOP cover (greedy prime-implicant pick).

        Quine–McCluskey prime generation followed by a greedy cover; exact
        minimality is not required — BLIF output and decomposition only need
        a correct, reasonably small cover.
        """
        n = self.num_inputs
        const = self.is_constant()
        if const is not None:
            return SopCover.constant(const, n)
        primes = self._prime_implicants()
        cover: List[str] = []
        remaining = {m for m in range(1 << n) if (self.bits >> m) & 1}
        # Greedy set cover over the on-set.
        while remaining:
            best_cube, best_gain = None, -1
            for cube in primes:
                gain = sum(1 for m in remaining if _cube_covers(cube, m))
                if gain > best_gain:
                    best_cube, best_gain = cube, gain
            assert best_cube is not None
            cover.append(best_cube)
            remaining = {m for m in remaining if not _cube_covers(best_cube, m)}
        return SopCover(n, [Cube(c) for c in cover])

    def _prime_implicants(self) -> List[str]:
        """All prime implicants, by iterative cube merging (Quine–McCluskey)."""
        n = self.num_inputs
        current = set()
        for m in range(1 << n):
            if (self.bits >> m) & 1:
                current.add("".join("1" if (m >> i) & 1 else "0" for i in range(n)))
        primes: List[str] = []
        while current:
            merged_into = set()
            next_level = set()
            cur = sorted(current)
            for i, a in enumerate(cur):
                for b in cur[i + 1:]:
                    merged = _merge_cubes(a, b)
                    if merged is not None:
                        next_level.add(merged)
                        merged_into.add(a)
                        merged_into.add(b)
            primes.extend(c for c in cur if c not in merged_into)
            current = next_level
        return primes

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.num_inputs == other.num_inputs and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.num_inputs, self.bits))

    def __repr__(self) -> str:
        width = max(1, (1 << self.num_inputs) // 4)
        return f"TruthTable({self.num_inputs}, 0x{self.bits:0{width}x})"


def _cube_covers(cube: str, minterm: int) -> bool:
    """Return whether positional cube string covers the given minterm."""
    for i, lit in enumerate(cube):
        bit = (minterm >> i) & 1
        if lit == "1" and not bit:
            return False
        if lit == "0" and bit:
            return False
    return True


def _merge_cubes(a: str, b: str) -> Optional[str]:
    """Merge two cubes differing in exactly one specified position."""
    diff = -1
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            if ca == "-" or cb == "-" or diff >= 0:
                return None
            diff = i
    if diff < 0:
        return None
    return a[:diff] + "-" + a[diff + 1:]
