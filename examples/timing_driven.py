#!/usr/bin/env python
"""Timing-driven mapping of a ripple-carry adder (the Section 4 flow).

Maps an 8-bit adder in delay mode with MIS and with Lily (wiring-aware
arrival times), lays both out, and prints the critical path of the Lily
result from the wiring-aware STA its back end ran on the final layout.

Run:  python examples/timing_driven.py
"""

from repro.circuits.arith import ripple_carry_adder
from repro.flow.pipeline import lily_flow, mis_flow
from repro.library.standard import big_library, scale_library
from repro.timing.model import WireCapModel
from repro.timing.sta import critical_path


def main() -> None:
    net = ripple_carry_adder(8)
    # 1µ-scaled delays/caps on 3µ geometry, exactly as the paper's Table 2.
    library = scale_library(big_library(), 1.0 / 3.0, name="big_1u")
    wire_model = WireCapModel(4.0e-4, 3.0e-4)

    print(f"circuit: {net}")
    mis = mis_flow(net, library, mode="timing", wire_model=wire_model)
    lily = lily_flow(net, library, mode="timing", wire_model=wire_model)

    print(f"\nMIS  : delay {mis.delay:8.2f} ns   "
          f"inst {mis.instance_area_mm2:.4f} mm^2  "
          f"wire {mis.wire_length_mm:.2f} mm")
    print(f"Lily : delay {lily.delay:8.2f} ns   "
          f"inst {lily.instance_area_mm2:.4f} mm^2  "
          f"wire {lily.wire_length_mm:.2f} mm")
    print(f"delay ratio Lily/MIS: {lily.delay / mis.delay:.3f}")

    print("\nLily critical path (gate: arrival, load):")
    report = lily.backend.timing
    for node in critical_path(lily.mapped, report):
        arrival = report.arrivals[node.name].worst
        load = report.loads.get(node.name)
        cell = node.cell.name if node.is_gate else node.kind.value
        load_text = f"{load:.3f} pF" if load is not None else "-"
        print(f"  {node.name:<16} {cell:<8} t={arrival:7.2f}  C_L={load_text}")


if __name__ == "__main__":
    main()
