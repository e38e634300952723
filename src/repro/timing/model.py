"""Wire capacitance model (Section 4.2).

``C_L = sum_j C_j + C_w`` where ``C_w = c_h * X + c_v * Y``: the lumped
interconnect capacitance is proportional to the net's horizontal and
vertical extents, with separate per-unit-length constants for the two
routing layers.  Wiring resistance is "very small and therefore ignored",
exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry import Point

__all__ = ["PAD_CAP", "WireCapModel", "net_wire_capacitance"]

#: Load presented by an output pad, pF: one value for the STA, the
#: mappers' load models and the audit's load recomputation.
PAD_CAP = 0.25

# Imported after PAD_CAP: ``repro.route`` loads ``repro.map``, whose MIS
# load model reads PAD_CAP from this module.
from repro.route.wirelength import chung_hwang_factor  # noqa: E402


@dataclass(frozen=True)
class WireCapModel:
    """Per-unit-length capacitance of horizontal and vertical interconnect.

    Defaults approximate a 3µ double-metal process: ~0.2 fF/µm, with the
    vertical layer slightly lighter.
    """

    ch_per_um: float = 2.0e-4  # pF / µm, horizontal (in-channel) wiring
    cv_per_um: float = 1.5e-4  # pF / µm, vertical (cross-channel) wiring

    def capacitance(self, x_length: float, y_length: float) -> float:
        """``C_w = c_h X + c_v Y`` for given extents (µm -> pF)."""
        return self.ch_per_um * x_length + self.cv_per_um * y_length


def net_wire_capacitance(
    pin_positions: Sequence[Point], model: WireCapModel
) -> float:
    """Lumped wire capacitance of a net from its pin positions.

    X and Y are the bounding-box extents, corrected by the Chung–Hwang
    factor for multi-pin nets (Section 3.3's models feed Section 4.2's
    capacitance).
    """
    if len(pin_positions) < 2:
        return 0.0
    xs = [p.x for p in pin_positions]
    ys = [p.y for p in pin_positions]
    factor = chung_hwang_factor(len(pin_positions))
    return model.capacitance((max(xs) - min(xs)) * factor,
                             (max(ys) - min(ys)) * factor)
