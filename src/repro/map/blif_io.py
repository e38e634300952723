"""BLIF I/O for mapped netlists (the SIS ``.gate`` convention).

A mapped circuit is written with one ``.gate <cell> pin=signal ...`` line
per instance, exactly as SIS emitted mapped networks; reading requires the
gate library to resolve cell names.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.library.cell import Library
from repro.map.netlist import MappedNetwork, MappedNode
from repro.network.blif import PO_SUFFIX, po_port

__all__ = ["write_mapped_blif", "parse_mapped_blif", "MappedBlifError"]


class MappedBlifError(ValueError):
    """Raised on malformed mapped-BLIF input."""


def write_mapped_blif(mapped: MappedNetwork) -> str:
    """Serialise a mapped netlist to BLIF, one ``.gate`` line per instance.

    Constants and the buffers that keep a port's name apart from its
    driver's are ``.names`` blocks.
    """
    lines = [f".model {mapped.name}"]
    lines.append(
        ".inputs " + " ".join(n.name for n in mapped.primary_inputs)
    )
    po_ports: List[str] = []
    buffers: List[str] = []
    for po in mapped.primary_outputs:
        port = po_port(po.name)
        po_ports.append(port)
        driver = po.fanins[0]
        if driver.name != port:
            buffers.append(f".names {driver.name} {port}\n1 1")
    lines.append(".outputs " + " ".join(po_ports))

    for node in mapped.topological_order():
        if node.is_constant:
            lines.append(f".names {node.name}")
            if node.const_value:
                lines.append("1")
        elif node.is_gate:
            bindings = " ".join(
                f"{pin.name}={fanin.name}"
                for pin, fanin in zip(node.cell.pins, node.fanins)
            )
            lines.append(
                f".gate {node.cell.name} {bindings} "
                f"{node.cell.output_name}={node.name}"
            )
    lines.extend(buffers)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def parse_mapped_blif(text: str, library: Library) -> MappedNetwork:
    """Parse a ``.gate``-style mapped BLIF back into a netlist.

    Plain ``.names`` blocks are accepted only for constants and the
    single-literal output-port buffers our writer produces.
    """
    model = "mapped"
    inputs: List[str] = []
    outputs: List[str] = []
    gate_lines: List[List[str]] = []
    names_blocks: List[tuple] = []

    pending_names: Optional[tuple] = None
    for raw in text.splitlines():
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].startswith("."):
            if pending_names is not None:
                names_blocks.append(pending_names)
                pending_names = None
        if tokens[0] == ".model":
            model = tokens[1] if len(tokens) > 1 else model
        elif tokens[0] == ".inputs":
            inputs.extend(tokens[1:])
        elif tokens[0] == ".outputs":
            outputs.extend(tokens[1:])
        elif tokens[0] == ".gate":
            gate_lines.append(tokens[1:])
        elif tokens[0] == ".names":
            pending_names = (tokens[1:], [])
        elif tokens[0] == ".end":
            continue
        elif tokens[0].startswith("."):
            raise MappedBlifError(f"unsupported directive {tokens[0]!r}")
        else:
            if pending_names is None:
                raise MappedBlifError(f"stray cover row {line!r}")
            pending_names[1].append(tokens)
    if pending_names is not None:
        names_blocks.append(pending_names)

    mapped = MappedNetwork(model)
    signals: Dict[str, MappedNode] = {}
    for name in inputs:
        signals[name] = mapped.add_primary_input(name)

    # Constants and buffers from .names blocks; gates from .gate lines.
    remaining_gates = list(gate_lines)
    remaining_names = list(names_blocks)
    progress = True
    alias: Dict[str, str] = {}
    while (remaining_gates or remaining_names) and progress:
        progress = False
        next_gates = []
        for tokens in remaining_gates:
            cell_name = tokens[0]
            cell = library.get(cell_name)
            if cell is None:
                raise MappedBlifError(f"unknown cell {cell_name!r}")
            bindings = dict(t.split("=", 1) for t in tokens[1:])
            out_signal = bindings.pop(cell.output_name, None)
            if out_signal is None:
                raise MappedBlifError(f"gate {cell_name!r} lacks an output")
            if not all(bindings.get(p.name) in signals for p in cell.pins):
                next_gates.append(tokens)
                continue
            fanins = [signals[bindings[p.name]] for p in cell.pins]
            signals[out_signal] = mapped.add_gate(out_signal, cell, fanins)
            progress = True
        remaining_gates = next_gates

        next_names = []
        for header, rows in remaining_names:
            out = header[-1]
            ins = header[:-1]
            if not ins:
                value = bool(rows and rows[0] == ["1"])
                signals[out] = mapped.add_constant(out, value)
                progress = True
            elif len(ins) == 1 and rows == [["1", "1"]]:
                if ins[0] in signals:
                    alias[out] = ins[0]
                    signals[out] = signals[ins[0]]
                    progress = True
                else:
                    next_names.append((header, rows))
            else:
                raise MappedBlifError(
                    "only constants and unit buffers are allowed as .names "
                    "in a mapped BLIF"
                )
        remaining_names = next_names

    if remaining_gates or remaining_names:
        raise MappedBlifError("unresolvable signal dependencies")

    for port in outputs:
        driver = signals.get(port)
        if driver is None:
            raise MappedBlifError(f"undriven output {port!r}")
        mapped.add_primary_output(port + PO_SUFFIX, driver)
    mapped.check()
    return mapped
