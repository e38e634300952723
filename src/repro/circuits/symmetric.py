"""Symmetric-function circuits — including the real ``9symml``.

``9sym``/``9symml`` outputs 1 iff the number of ones among its 9 inputs is
between 3 and 6 — a totally symmetric function.  We synthesise it (and any
symmetric function) multi-level: a full-adder counting tree computes the
population count, and a two-level cover over the count bits selects the
on-set counts.  This matches the multi-level structure of the MCNC
``9symml`` netlist far better than a flat PLA would.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.circuits._build import sop_maj3, sop_xor
from repro.network.logic import Cube, SopCover, TruthTable
from repro.network.network import Network, Node

__all__ = ["symmetric_function", "nine_symml"]


def _popcount_tree(net: Network, bits: List[Node]) -> List[Node]:
    """Sum of input bits as a little-endian binary vector of nodes.

    Repeatedly compresses each weight column with full adders (3:2
    compressors) and half adders until one bit per weight remains.
    """
    columns: List[List[Node]] = [list(bits)]
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}_{counter[0]}"

    weight = 0
    result: List[Node] = []
    while weight < len(columns):
        column = columns[weight]
        while len(column) > 1:
            if len(column) >= 3:
                a, b, c = column[:3]
                del column[:3]
                s = net.add_node(fresh("fa_s"), [a, b, c], sop_xor(3))
                carry = net.add_node(fresh("fa_c"), [a, b, c], sop_maj3())
            else:
                a, b = column[:2]
                del column[:2]
                s = net.add_node(fresh("ha_s"), [a, b], sop_xor(2))
                carry = net.add_node(
                    fresh("ha_c"), [a, b], SopCover(2, [Cube("11")])
                )
            column.append(s)
            while len(columns) <= weight + 1:
                columns.append([])
            columns[weight + 1].append(carry)
        result.append(column[0] if column else None)
        weight += 1
    return [r for r in result if r is not None]


def symmetric_function(
    num_inputs: int,
    on_counts: Iterable[int],
    name: str = "",
) -> Network:
    """Multi-level circuit for a totally symmetric Boolean function.

    Args:
        num_inputs: number of inputs.
        on_counts: population counts for which the output is 1.
        name: network name.
    """
    counts: Set[int] = set(on_counts)
    if any(c < 0 or c > num_inputs for c in counts):
        raise ValueError("on-set count out of range")
    net = Network(name or f"sym{num_inputs}")
    inputs = [net.add_primary_input(f"x{i}") for i in range(num_inputs)]
    sum_bits = _popcount_tree(net, inputs)

    width = len(sum_bits)
    tt = TruthTable.from_function(
        width,
        lambda bits: sum((1 << i) for i, b in enumerate(bits) if b) in counts,
    )
    selector = net.add_node("select", sum_bits, tt.to_sop())
    net.add_primary_output("out", selector)
    net.sweep_dangling()
    net.check()
    return net


def nine_symml() -> Network:
    """The MCNC ``9symml`` benchmark: 1 iff 3 <= popcount(x) <= 6."""
    return symmetric_function(9, range(3, 7), name="9symml")
