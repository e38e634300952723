"""Wire capacitance model (Section 4.2).

``C_L = sum_j C_j + C_w`` where ``C_w = c_h * X + c_v * Y``: the lumped
interconnect capacitance is proportional to the net's horizontal and
vertical extents, with separate per-unit-length constants for the two
routing layers.  Wiring resistance is "very small and therefore ignored",
exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.geometry import Point
from repro.route.wirelength import chung_hwang_factor

__all__ = ["WireCapModel", "net_wire_capacitance"]


@dataclass(frozen=True)
class WireCapModel:
    """Per-unit-length capacitance of horizontal and vertical interconnect.

    Defaults approximate a 3µ double-metal process: ~0.2 fF/µm, with the
    vertical layer slightly lighter.  :meth:`scaled` mirrors the paper's
    linear 3µ -> 1µ scaling of wiring capacitance.
    """

    ch_per_um: float = 2.0e-4  # pF / µm, horizontal (in-channel) wiring
    cv_per_um: float = 1.5e-4  # pF / µm, vertical (cross-channel) wiring

    def scaled(self, factor: float) -> "WireCapModel":
        """A copy with both per-unit capacitances multiplied by ``factor``."""
        return WireCapModel(self.ch_per_um * factor, self.cv_per_um * factor)

    def capacitance(self, x_length: float, y_length: float) -> float:
        """``C_w = c_h X + c_v Y`` for given extents (µm -> pF)."""
        return self.ch_per_um * x_length + self.cv_per_um * y_length


def net_wire_capacitance(
    pin_positions: Sequence[Point],
    model: Optional[WireCapModel] = None,
    use_steiner_factor: bool = True,
) -> float:
    """Lumped wire capacitance of a net from its pin positions.

    X and Y are the bounding-box extents, optionally corrected by the
    Chung–Hwang factor for multi-pin nets (Section 3.3's models feed
    Section 4.2's capacitance).
    """
    model = model or WireCapModel()
    if len(pin_positions) < 2:
        return 0.0
    xs = [p.x for p in pin_positions]
    ys = [p.y for p in pin_positions]
    factor = chung_hwang_factor(len(pin_positions)) if use_steiner_factor else 1.0
    return model.capacitance((max(xs) - min(xs)) * factor,
                             (max(ys) - min(ys)) * factor)
