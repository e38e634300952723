"""Standard-cell chip-area prediction (the [15] substrate).

Two uses in the reproduction:

* **Before mapping** Lily needs a layout *image* to place the inchoate
  network on (Section 3.1: "the actual area of the image is estimated by
  accurate area predictors for standard cell based designs").
  :func:`subject_image` predicts the image from the base-gate count.
* **After routing** the experiments report the final chip area;
  :func:`estimate_chip` wraps the routed dimensions with the pad ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry import Rect

__all__ = ["ChipEstimate", "subject_image", "mapped_image", "estimate_chip"]

#: Expected mapped-gate area per subject base gate, µm².  Mapping merges
#: roughly 2–3 base functions per library gate (average gate area ≈ 1900),
#: giving ≈ 800 µm² of active cell area per NAND2/INV of the subject graph.
AREA_PER_BASE_GATE = 800.0
#: Routing consumes roughly as much area as the cells in this technology
#: (Section 1: "interconnections occupy more than half the total chip area").
ROUTING_FACTOR = 1.1
#: Width of the pad ring added on each chip side, µm.
PAD_RING = 40.0


@dataclass(frozen=True)
class ChipEstimate:
    """Final chip dimensions and the headline area numbers."""

    core_width: float
    core_height: float
    cell_area: float
    pad_ring: float = PAD_RING

    @property
    def chip_width(self) -> float:
        return self.core_width + 2 * self.pad_ring

    @property
    def chip_height(self) -> float:
        return self.core_height + 2 * self.pad_ring

    @property
    def chip_area(self) -> float:
        return self.chip_width * self.chip_height

    @property
    def routing_area(self) -> float:
        return max(self.core_width * self.core_height - self.cell_area, 0.0)


def subject_image(num_base_gates: int, utilization: float = 1.0) -> Rect:
    """Predicted square layout image for the inchoate network.

    The image side follows from the predicted mapped cell area plus the
    routing share; gates are placed as points inside it.
    """
    area = max(num_base_gates, 1) * AREA_PER_BASE_GATE * (1.0 + ROUTING_FACTOR)
    side = math.sqrt(area / max(utilization, 1e-6))
    return Rect(0.0, 0.0, side, side)


def mapped_image(total_cell_area: float, utilization: float = 1.0) -> Rect:
    """Predicted square image for placing a mapped netlist."""
    area = max(total_cell_area, 1.0) * (1.0 + ROUTING_FACTOR)
    side = math.sqrt(area / max(utilization, 1e-6))
    return Rect(0.0, 0.0, side, side)


def estimate_chip(
    core_width: float, core_height: float, cell_area: float
) -> ChipEstimate:
    """Wrap routed core dimensions with the pad ring."""
    return ChipEstimate(core_width, core_height, cell_area)
