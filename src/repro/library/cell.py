"""Library cells and the per-pin linear delay model of Section 4.1.

Each input pin ``i`` of a gate carries an intrinsic delay ``I_i`` and an
output (drive) resistance ``R_i``, separately for rising and falling output
transitions, plus an input capacitance.  Gate delay from pin ``i`` is the
linear function ``I_i + R_i * C_L`` of the output load ``C_L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.network.expr import Expr, parse_expression
from repro.network.logic import SopCover, TruthTable

__all__ = ["PinTiming", "Pin", "Cell", "Library"]


@dataclass(frozen=True)
class PinTiming:
    """Linear delay parameters of one input pin (Section 4.1).

    ``block`` is the intrinsic (zero-load) delay ``I_i``; ``resistance`` is
    the output resistance ``R_i``, i.e. delay per unit load capacitance.
    ``worst_block`` and ``worst_resistance`` (the larger of rise and fall)
    are plain attributes set once here: the delay mappers read them for
    every candidate they price.  They are not fields, so equality, hash
    and repr see the four parameters only.
    """

    rise_block: float
    rise_resistance: float
    fall_block: float
    fall_resistance: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "worst_block", max(self.rise_block, self.fall_block))
        object.__setattr__(
            self, "worst_resistance",
            max(self.rise_resistance, self.fall_resistance))

    @staticmethod
    def uniform(block: float, resistance: float) -> "PinTiming":
        """Identical rise and fall parameters."""
        return PinTiming(block, resistance, block, resistance)


@dataclass(frozen=True)
class Pin:
    """One input pin: name, load it presents, and its delay parameters."""

    name: str
    input_cap: float
    timing: PinTiming


class Cell:
    """A library gate: single-output combinational cell.

    The function is an expression over the pin names; pin order follows the
    declaration order in the library and fixes the variable order of the
    cell's truth table.
    """

    def __init__(
        self,
        name: str,
        area: float,
        expression: str,
        pins: Sequence[Pin],
        output_name: str = "O",
    ) -> None:
        self.name = name
        self.area = area
        self.output_name = output_name
        self.expression_text = expression
        self.expression: Expr = parse_expression(expression)
        self.pins: List[Pin] = list(pins)
        pin_names = [p.name for p in self.pins]
        if len(set(pin_names)) != len(pin_names):
            raise ValueError(f"cell {name!r}: duplicate pin names")
        used = self.expression.variables()
        missing = [v for v in used if v not in pin_names]
        if missing:
            raise ValueError(f"cell {name!r}: pins missing for {missing}")
        unused = [p for p in pin_names if p not in used]
        if unused:
            raise ValueError(f"cell {name!r}: unused pins {unused}")
        self.truth_table: TruthTable = self.expression.to_truth_table(pin_names)
        #: The largest pin input capacitance (a hawk's load on its nets).
        self.max_input_cap: float = max(
            (p.input_cap for p in self.pins), default=0.0)

    @property
    def num_inputs(self) -> int:
        return len(self.pins)

    @property
    def pin_names(self) -> List[str]:
        return [p.name for p in self.pins]

    @property
    def is_inverter(self) -> bool:
        return self.num_inputs == 1 and self.truth_table == TruthTable(1, 0b01)

    @property
    def is_buffer(self) -> bool:
        return self.num_inputs == 1 and self.truth_table == TruthTable(1, 0b10)

    @property
    def is_nand2(self) -> bool:
        return self.num_inputs == 2 and self.truth_table == TruthTable(2, 0b0111)

    def pin(self, name: str) -> Pin:
        for p in self.pins:
            if p.name == name:
                return p
        raise KeyError(f"cell {self.name!r} has no pin {name!r}")

    def sop(self) -> SopCover:
        """The cell function as an SOP cover over the ordered pins."""
        return self.truth_table.to_sop()

    def input_automorphisms(self) -> List[tuple]:
        """Pin permutations that leave the cell function unchanged.

        Used to deduplicate pattern graphs: two patterns related by a
        function automorphism yield identical matches.
        """
        import itertools

        n = self.num_inputs
        autos = []
        for perm in itertools.permutations(range(n)):
            if self.truth_table.permuted(perm) == self.truth_table:
                autos.append(perm)
        return autos

    def __repr__(self) -> str:
        return f"Cell({self.name!r}, area={self.area}, inputs={self.num_inputs})"


class Library:
    """An ordered collection of cells with convenience lookups."""

    def __init__(self, name: str, cells: Sequence[Cell]) -> None:
        self.name = name
        self.cells: List[Cell] = list(cells)
        self._by_name: Dict[str, Cell] = {}
        for cell in self.cells:
            if cell.name in self._by_name:
                raise ValueError(f"duplicate cell name: {cell.name!r}")
            self._by_name[cell.name] = cell
        if self.inverter() is None:
            raise ValueError(f"library {name!r} lacks an inverter")
        if self.nand2() is None:
            raise ValueError(f"library {name!r} lacks a 2-input NAND")

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Cell:
        return self._by_name[name]

    def get(self, name: str) -> Optional[Cell]:
        return self._by_name.get(name)

    def inverter(self) -> Optional[Cell]:
        """The smallest inverter in the library."""
        invs = [c for c in self.cells if c.is_inverter]
        return min(invs, key=lambda c: c.area) if invs else None

    def nand2(self) -> Optional[Cell]:
        """The smallest 2-input NAND in the library."""
        nands = [c for c in self.cells if c.is_nand2]
        return min(nands, key=lambda c: c.area) if nands else None

    def max_fanin(self) -> int:
        return max(c.num_inputs for c in self.cells)

    def restricted(self, name: str, max_inputs: int) -> "Library":
        """A sub-library keeping only cells with at most ``max_inputs`` pins."""
        return Library(
            name, [c for c in self.cells if c.num_inputs <= max_inputs]
        )

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self.cells)} cells)"
