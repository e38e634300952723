"""The named benchmark suite of Tables 1 and 2.

Circuit identities follow the paper; I/O counts follow the published
MCNC'91/ISCAS'85 profiles.  ``9symml`` is generated exactly; all other
circuits are seeded synthetic equivalents (see DESIGN.md §3) whose internal
node budgets were chosen so the *mapped* gate counts land near the
originals' (calibrated from the paper's instance areas, ~0.003 mm² per
mapped gate, and its report that C5315 has 1892 pre-mapping and 713 mapped
gates).

A global ``scale`` (default 1.0) shrinks node budgets — and, above 60
terminals, I/O counts — proportionally, for quick runs of the full suite
on slower machines; the benchmark harness records the scale used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.circuits.random_logic import random_network
from repro.circuits.symmetric import nine_symml
from repro.network.network import Network

__all__ = [
    "CircuitSpec",
    "SUITE",
    "TABLE1_CIRCUITS",
    "TABLE2_CIRCUITS",
    "build_circuit",
]


@dataclass(frozen=True)
class CircuitSpec:
    """Identity and size profile of one benchmark circuit."""

    name: str
    inputs: int
    outputs: int
    nodes: int  # internal SOP-node budget for the generator
    seed: int
    kind: str = "random"  # or "symmetric"


#: Node budgets ~= (paper mapped-gate estimate) / 2.5; see module docstring.
SUITE: Dict[str, CircuitSpec] = {
    spec.name: spec
    for spec in [
        CircuitSpec("9symml", 9, 1, 0, 0, kind="symmetric"),
        CircuitSpec("C432", 36, 7, 46, 432),
        CircuitSpec("C499", 41, 32, 88, 499),
        CircuitSpec("C880", 60, 26, 82, 880),
        CircuitSpec("C1908", 33, 25, 92, 1908),
        CircuitSpec("C3540", 50, 22, 230, 3540),
        CircuitSpec("C5315", 178, 123, 285, 5315),
        CircuitSpec("apex3", 54, 50, 287, 3),
        CircuitSpec("apex6", 135, 99, 130, 6),
        CircuitSpec("apex7", 49, 37, 45, 7),
        CircuitSpec("b9", 41, 21, 25, 9),
        CircuitSpec("duke2", 22, 29, 88, 2),
        CircuitSpec("e64", 65, 65, 54, 64),
        CircuitSpec("misex1", 8, 7, 11, 1),
        CircuitSpec("misex3", 14, 14, 115, 3),
    ]
}

#: Row order of Table 1 (area mode).
TABLE1_CIRCUITS: List[str] = [
    "9symml", "C1908", "C3540", "C432", "C499", "C5315", "C880",
    "apex6", "apex7", "b9", "apex3", "duke2", "e64", "misex1", "misex3",
]

#: Row order of Table 2 (delay mode).
TABLE2_CIRCUITS: List[str] = [
    "9symml", "C1908", "C432", "C499", "C5315", "C880",
    "apex7", "b9", "duke2", "e64", "misex1", "misex3",
]


def build_circuit(name: str, scale: float = 1.0) -> Network:
    """Build a suite circuit by name, optionally size-scaled.

    ``scale`` multiplies the internal node budget; I/O counts are scaled
    too (by ``sqrt(scale)``, floor 4) only for circuits with more than 60
    terminals, so small circuits keep their exact profiles.

    Names of the form ``synth:SEED:GATES`` build a Rent's-rule synthetic
    workload via :func:`repro.circuits.synth.synth_network` instead
    (``scale`` multiplies the gate count), so every consumer of suite
    names — the flow CLI, the serve protocol, the soak tools — can run
    generator traffic without new plumbing.
    """
    if name.startswith("synth:"):
        from repro.circuits.synth import parse_synth_spec, synth_network

        seed, gates = parse_synth_spec(name[len("synth:"):])
        return synth_network(max(16, int(round(gates * scale))), seed=seed)
    spec = SUITE.get(name)
    if spec is None:
        raise KeyError(f"unknown suite circuit: {name!r}")
    if spec.kind == "symmetric":
        return nine_symml()
    inputs, outputs = spec.inputs, spec.outputs
    if scale < 1.0 and inputs + outputs > 60:
        shrink = max(scale, 0.1) ** 0.5
        inputs = max(4, int(round(inputs * shrink)))
        outputs = max(2, int(round(outputs * shrink)))
    nodes = max(outputs, int(round(spec.nodes * scale)))
    return random_network(
        spec.name,
        num_inputs=inputs,
        num_outputs=outputs,
        num_nodes=nodes,
        seed=spec.seed,
    )
