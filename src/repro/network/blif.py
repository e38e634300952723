"""BLIF (Berkeley Logic Interchange Format) reader and writer.

Supports the combinational subset used by MIS-era tools: ``.model``,
``.inputs``, ``.outputs``, ``.names`` with single-output covers, and ``.end``.
Latches and subcircuits are out of scope for this reproduction (the paper
maps combinational networks).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.logic import Cube, SopCover
from repro.network.network import Network, Node

__all__ = ["parse_blif", "parse_blif_file", "write_blif", "BlifError",
           "PO_SUFFIX", "po_port"]


class BlifError(ValueError):
    """Raised on malformed BLIF input.

    The message is prefixed with ``filename:line:`` context whenever it is
    known; the bare reason, file name and line number are also available as
    the :attr:`reason`, :attr:`filename` and :attr:`line` attributes.
    """

    def __init__(self, reason: str, filename: Optional[str] = None,
                 line: Optional[int] = None):
        self.reason = reason
        self.filename = filename
        self.line = line
        prefix = filename or "<blif>"
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {reason}")


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """Split text into ``(lineno, line)`` logical lines.

    Comments are stripped and ``\\`` continuations joined; a joined line
    reports the 1-based number of its first physical line.
    """
    lines: List[Tuple[int, str]] = []
    pending = ""
    pending_start = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Strip comments; BLIF comments run from '#' to end of line.
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        raw = raw.rstrip()
        if raw.endswith("\\"):
            if not pending:
                pending_start = lineno
            pending += raw[:-1] + " "
            continue
        line = (pending + raw).strip()
        start = pending_start if pending else lineno
        pending = ""
        if line:
            lines.append((start, line))
    if pending.strip():
        lines.append((pending_start, pending.strip()))
    return lines


def parse_blif(text: str, name: Optional[str] = None,
               filename: Optional[str] = None) -> Network:
    """Parse BLIF text into a :class:`Network`.

    Node declaration order in the file need not be topological; signals may
    be used before the ``.names`` block defining them appears.  ``filename``
    is only used to contextualise :class:`BlifError` messages.
    """
    lines = _logical_lines(text)
    model_name = name or "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    # Each .names block: (lineno, output_signal, input_signals, rows)
    names_blocks: List[
        Tuple[int, str, List[str], List[Tuple[str, str]]]
    ] = []

    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        tokens = line.split()
        directive = tokens[0]
        if directive == ".model":
            if len(tokens) > 1 and name is None:
                model_name = tokens[1]
            i += 1
        elif directive == ".inputs":
            inputs.extend(tokens[1:])
            i += 1
        elif directive == ".outputs":
            outputs.extend(tokens[1:])
            i += 1
        elif directive == ".names":
            signals = tokens[1:]
            if not signals:
                raise BlifError(".names with no signals", filename, lineno)
            out_sig = signals[-1]
            in_sigs = signals[:-1]
            rows: List[Tuple[str, str]] = []
            i += 1
            while i < len(lines) and not lines[i][1].startswith("."):
                row_lineno, row = lines[i]
                parts = row.split()
                if in_sigs:
                    if len(parts) != 2:
                        raise BlifError(
                            f"bad cover row {row!r}: expected "
                            f"'<mask> <value>'", filename, row_lineno)
                    mask, value = parts
                    if len(mask) != len(in_sigs):
                        raise BlifError(
                            f"cover row {row!r}: mask width {len(mask)} != "
                            f"{len(in_sigs)} inputs of {out_sig!r}",
                            filename, row_lineno)
                else:
                    if len(parts) != 1:
                        raise BlifError(
                            f"bad constant row {row!r}: expected a single "
                            f"output value", filename, row_lineno)
                    mask, value = "", parts[0]
                if value not in ("0", "1"):
                    raise BlifError(
                        f"bad output value {value!r} in row {row!r} "
                        f"(must be 0 or 1)", filename, row_lineno)
                rows.append((mask, value))
                i += 1
            names_blocks.append((lineno, out_sig, in_sigs, rows))
        elif directive == ".end":
            i += 1
        elif directive in (".latch", ".subckt", ".gate", ".mlatch"):
            raise BlifError(
                f"unsupported BLIF directive: {directive} (only the "
                f"combinational subset is accepted, see docs/FORMATS.md)",
                filename, lineno)
        else:
            raise BlifError(f"unknown BLIF directive: {directive}",
                            filename, lineno)

    return _build_network(model_name, inputs, outputs, names_blocks,
                          filename)


def parse_blif_file(path: str) -> Network:
    """Parse a BLIF file from disk."""
    with open(path) as f:
        return parse_blif(f.read(), filename=path)


def _cover_from_rows(
    num_inputs: int, rows: Sequence[Tuple[str, str]],
    filename: Optional[str], line: Optional[int], out_sig: str,
) -> SopCover:
    """Convert .names rows to an on-set SOP cover.

    BLIF permits either on-set rows (value ``1``) or off-set rows (value
    ``0``), not a mixture.  Off-set covers are complemented via truth tables
    (node functions are small, so this is cheap).
    """
    if not rows:
        return SopCover.constant(False, num_inputs)
    values = {value for _, value in rows}
    if values == {"1"}:
        return SopCover(num_inputs, [Cube(mask) for mask, _ in rows])
    if values == {"0"}:
        off = SopCover(num_inputs, [Cube(mask) for mask, _ in rows])
        return (~off.to_truth_table()).to_sop()
    raise BlifError(
        f"mixed on-set and off-set rows in .names block for {out_sig!r}",
        filename, line)


#: A primary output is a wrapper node named after its port plus this
#: suffix (port ``f`` is node ``f__po``), so a port may share its name
#: with the internal signal that drives it.
PO_SUFFIX = "__po"


def po_port(name: str) -> str:
    """The port of a primary-output node: ``name`` minus :data:`PO_SUFFIX`.

    Ports compare across netlists: a network, its subject graph and its
    mapped netlist name each output's wrapper node the same way.
    """
    return name[:-len(PO_SUFFIX)] if name.endswith(PO_SUFFIX) else name


def _build_network(
    model_name: str,
    inputs: List[str],
    outputs: List[str],
    names_blocks: List[Tuple[int, str, List[str], List[Tuple[str, str]]]],
    filename: Optional[str] = None,
) -> Network:
    net = Network(model_name)
    defined: Dict[str, int] = {}
    for lineno, out, _, _ in names_blocks:
        if out in defined:
            raise BlifError(
                f"signal {out!r} driven by more than one .names block "
                f"(first defined at line {defined[out]})", filename, lineno)
        defined[out] = lineno
    for sig in inputs:
        if sig in defined:
            raise BlifError(
                f"signal {sig!r} is both a .names output and an input",
                filename, defined[sig])
        net.add_primary_input(sig)

    # Build internal nodes in dependency order (blocks may appear unordered).
    remaining = list(names_blocks)
    placed: Dict[str, Node] = {pi.name: pi for pi in net.primary_inputs}
    while remaining:
        progressed = False
        deferred = []
        for lineno, out_sig, in_sigs, rows in remaining:
            if all(s in placed for s in in_sigs):
                cover = _cover_from_rows(len(in_sigs), rows, filename,
                                         lineno, out_sig)
                node = net.add_node(out_sig, [placed[s] for s in in_sigs], cover)
                placed[out_sig] = node
                progressed = True
            else:
                deferred.append((lineno, out_sig, in_sigs, rows))
        if not progressed:
            missing = sorted(
                {
                    s
                    for _, _, in_sigs, _ in deferred
                    for s in in_sigs
                    if s not in placed and s not in defined
                }
            )
            if missing:
                first = min(
                    lineno for lineno, _, in_sigs, _ in deferred
                    if any(s in missing for s in in_sigs)
                )
                raise BlifError(
                    f"undefined signals: {', '.join(missing)}",
                    filename, first)
            cycle = sorted(out for _, out, _, _ in deferred)
            raise BlifError(
                f"cyclic .names dependencies among: {', '.join(cycle)}",
                filename, min(lineno for lineno, _, _, _ in deferred))
        remaining = deferred

    for sig in outputs:
        driver = placed.get(sig)
        if driver is None:
            raise BlifError(f"undriven primary output: {sig!r}", filename)
        net.add_primary_output(sig + PO_SUFFIX, driver)
    net.check()
    return net


def write_blif(net: Network) -> str:
    """Serialise a network back to BLIF text.

    Primary-output wrapper nodes are folded back onto their drivers; if a PO
    name (minus the ``__po`` suffix convention) differs from its driver's
    name, a buffer ``.names`` block is emitted to preserve the port name.
    """
    lines = [f".model {net.name}"]
    lines.append(".inputs " + " ".join(pi.name for pi in net.primary_inputs))

    po_names: List[str] = []
    buffer_blocks: List[str] = []
    for po in net.primary_outputs:
        driver = po.fanins[0]
        port = po_port(po.name)
        po_names.append(port)
        if port != driver.name:
            buffer_blocks.append(f".names {driver.name} {port}\n1 1")
    lines.append(".outputs " + " ".join(po_names))

    for node in net.topological_order():
        if not node.is_internal:
            continue
        header = ".names " + " ".join(f.name for f in node.fanins + [node])
        lines.append(header)
        if node.is_constant:
            if node.function.evaluate([]):
                lines.append("1")
            # Constant 0 has an empty cover: header alone suffices.
        else:
            for cube in node.function.cubes:
                lines.append(f"{cube.mask} 1")
    lines.extend(buffer_blocks)
    lines.append(".end")
    return "\n".join(lines) + "\n"
