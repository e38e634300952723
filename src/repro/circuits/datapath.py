"""Larger datapath generators: carry-lookahead adder, array multiplier, ALU.

These provide the structured, reconvergent workloads (C-series flavour)
for the examples and integration tests, all functionally verifiable
against Python integer arithmetic.
"""

from __future__ import annotations

from typing import List

from repro.circuits._build import sop_and, sop_maj3, sop_or, sop_xor
from repro.network.logic import TruthTable
from repro.network.network import Network, Node

__all__ = ["carry_lookahead_adder", "array_multiplier", "alu"]


def _and2(net: Network, name: str, a: Node, b: Node) -> Node:
    return net.add_node(name, [a, b], sop_and(2))


def _or2(net: Network, name: str, a: Node, b: Node) -> Node:
    return net.add_node(name, [a, b], sop_or(2))


def _xor2(net: Network, name: str, a: Node, b: Node) -> Node:
    return net.add_node(name, [a, b], sop_xor(2))


def carry_lookahead_adder(width: int, name: str = "") -> Network:
    """A ``width``-bit adder with explicit generate/propagate lookahead.

    Carries are computed as ``c[i+1] = g[i] + p[i]*c[i]`` with the products
    expanded per stage — the classic CLA structure with reconvergent
    fanout from every ``g``/``p`` pair into all later carries.
    """
    if width < 1:
        raise ValueError("adder width must be positive")
    net = Network(name or f"cla{width}")
    a = [net.add_primary_input(f"a{i}") for i in range(width)]
    b = [net.add_primary_input(f"b{i}") for i in range(width)]
    cin = net.add_primary_input("cin")

    g = [_and2(net, f"g{i}", a[i], b[i]) for i in range(width)]
    p = [_xor2(net, f"p{i}", a[i], b[i]) for i in range(width)]

    carries: List[Node] = [cin]
    for i in range(width):
        # c[i+1] = g[i] + p[i]*c[i]
        term = _and2(net, f"pc{i}", p[i], carries[i])
        carries.append(_or2(net, f"c{i + 1}", g[i], term))

    for i in range(width):
        s = _xor2(net, f"sum{i}", p[i], carries[i])
        net.add_primary_output(f"s{i}", s)
    net.add_primary_output("cout", carries[width])
    net.check()
    return net


def array_multiplier(width: int, name: str = "") -> Network:
    """A ``width x width`` unsigned array multiplier (carry-save rows)."""
    if width < 1:
        raise ValueError("multiplier width must be positive")
    net = Network(name or f"mult{width}")
    a = [net.add_primary_input(f"a{i}") for i in range(width)]
    b = [net.add_primary_input(f"b{i}") for i in range(width)]

    # Partial products pp[i][j] = a[i] & b[j], weight i+j.
    columns: List[List[Node]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            pp = _and2(net, f"pp_{i}_{j}", a[i], b[j])
            columns[i + j].append(pp)

    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}_{counter[0]}"

    # Column compression with full/half adders.
    weight = 0
    outputs: List[Node] = []
    while weight < len(columns):
        column = columns[weight]
        while len(column) > 1:
            if len(column) >= 3:
                x, y, z = column[:3]
                del column[:3]
                s = net.add_node(fresh("fs"), [x, y, z], sop_xor(3))
                c = net.add_node(fresh("fc"), [x, y, z], sop_maj3())
            else:
                x, y = column[:2]
                del column[:2]
                s = _xor2(net, fresh("hs"), x, y)
                c = _and2(net, fresh("hc"), x, y)
            column.append(s)
            while len(columns) <= weight + 1:
                columns.append([])
            columns[weight + 1].append(c)
        outputs.append(column[0] if column else None)
        weight += 1

    for k, node in enumerate(outputs[: 2 * width]):
        if node is None:
            node = net.add_constant(f"zero_{k}", False)
        net.add_primary_output(f"m{k}", node)
    net.sweep_dangling()
    net.check()
    return net


#: ALU opcodes: 2 select bits.
ALU_OPS = ("add", "and", "or", "xor")


def alu(width: int, name: str = "") -> Network:
    """A small ALU: op 0 add, 1 and, 2 or, 3 xor, plus carry-out for add."""
    if width < 1:
        raise ValueError("ALU width must be positive")
    net = Network(name or f"alu{width}")
    a = [net.add_primary_input(f"a{i}") for i in range(width)]
    b = [net.add_primary_input(f"b{i}") for i in range(width)]
    op0 = net.add_primary_input("op0")
    op1 = net.add_primary_input("op1")

    carry: Node = net.add_constant("c0", False)
    add_bits: List[Node] = []
    for i in range(width):
        add_bits.append(
            net.add_node(f"add{i}", [a[i], b[i], carry], sop_xor(3))
        )
        carry = net.add_node(f"cy{i}", [a[i], b[i], carry], sop_maj3())

    # Result mux per bit: op1 op0 select among add/and/or/xor.
    # f(add, and, or, xor, op0, op1): 6 inputs -> build as truth table.
    mux_tt = TruthTable.from_function(
        6,
        lambda v: v[(v[5] << 1) | v[4]],
    )
    mux_cover = mux_tt.to_sop()
    for i in range(width):
        and_i = _and2(net, f"andr{i}", a[i], b[i])
        or_i = _or2(net, f"orr{i}", a[i], b[i])
        xor_i = _xor2(net, f"xorr{i}", a[i], b[i])
        out = net.add_node(
            f"res{i}",
            [add_bits[i], and_i, or_i, xor_i, op0, op1],
            mux_cover,
        )
        net.add_primary_output(f"y{i}", out)
    net.add_primary_output("cout", carry)
    net.sweep_dangling()
    net.check()
    return net
