"""Placement substrate: GORDIAN-style global placement (quadratic
programming + recursive bi-partitioning with FM refinement), connectivity-
driven I/O pad assignment, and row-based detailed placement for standard
cells."""

from repro.place.hypergraph import (
    PlacementNetlist,
    mapped_netlist,
    network_netlist,
    subject_netlist,
)
from repro.place.quadratic import solve_quadratic
from repro.place.fm import fm_refine
from repro.place.global_place import GlobalPlacement, GlobalPlacer
from repro.place.pads import assign_pads, perimeter_slots
from repro.place.detailed import DetailedPlacement, Row, detailed_place
from repro.place.anneal import AnnealStats, simulated_annealing

__all__ = [
    "PlacementNetlist",
    "subject_netlist",
    "mapped_netlist",
    "network_netlist",
    "AnnealStats",
    "simulated_annealing",
    "solve_quadratic",
    "fm_refine",
    "GlobalPlacement",
    "GlobalPlacer",
    "assign_pads",
    "perimeter_slots",
    "DetailedPlacement",
    "Row",
    "detailed_place",
]
