"""Real arithmetic and datapath circuit generators.

These exercise the mappers on structured, reconvergent logic (the kind the
paper's C-series benchmarks contain) and drive the examples.
"""

from __future__ import annotations

from typing import List

from repro.circuits._build import (
    sop_and,
    sop_maj3,
    sop_xnor,
    sop_xor,
)
from repro.network.logic import Cube, SopCover
from repro.network.network import Network, Node

__all__ = [
    "ripple_carry_adder",
    "parity_tree",
    "equality_comparator",
    "decoder",
    "mux_tree",
]


def ripple_carry_adder(width: int, name: str = "") -> Network:
    """A ``width``-bit ripple-carry adder: a[], b[], cin -> sum[], cout."""
    if width < 1:
        raise ValueError("adder width must be positive")
    net = Network(name or f"rca{width}")
    a = [net.add_primary_input(f"a{i}") for i in range(width)]
    b = [net.add_primary_input(f"b{i}") for i in range(width)]
    carry: Node = net.add_primary_input("cin")
    for i in range(width):
        s = net.add_node(f"sum{i}", [a[i], b[i], carry], sop_xor(3))
        net.add_primary_output(f"s{i}", s)
        carry = net.add_node(f"carry{i}", [a[i], b[i], carry], sop_maj3())
    net.add_primary_output("cout", carry)
    net.check()
    return net


def parity_tree(width: int, name: str = "") -> Network:
    """Odd parity of ``width`` inputs via a balanced XOR tree."""
    if width < 2:
        raise ValueError("parity needs at least 2 inputs")
    net = Network(name or f"parity{width}")
    level: List[Node] = [net.add_primary_input(f"x{i}") for i in range(width)]
    stage = 0
    while len(level) > 1:
        next_level: List[Node] = []
        for k in range(0, len(level) - 1, 2):
            node = net.add_node(
                f"p{stage}_{k // 2}", [level[k], level[k + 1]], sop_xor(2)
            )
            next_level.append(node)
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
        stage += 1
    driver = level[0]
    if driver.is_pi:  # width == 1 edge case is rejected above; keep safe
        driver = net.add_node("p_buf", [driver], SopCover(1, [Cube("1")]))
    net.add_primary_output("parity", driver)
    net.check()
    return net


def equality_comparator(width: int, name: str = "") -> Network:
    """``a == b`` over two ``width``-bit vectors (XNOR-AND tree)."""
    if width < 1:
        raise ValueError("comparator width must be positive")
    net = Network(name or f"cmp{width}")
    a = [net.add_primary_input(f"a{i}") for i in range(width)]
    b = [net.add_primary_input(f"b{i}") for i in range(width)]
    bits = [
        net.add_node(f"eq{i}", [a[i], b[i]], sop_xnor(2)) for i in range(width)
    ]
    while len(bits) > 1:
        grouped: List[Node] = []
        for k in range(0, len(bits) - 1, 2):
            grouped.append(
                net.add_node(
                    f"and_{len(net)}", [bits[k], bits[k + 1]], sop_and(2)
                )
            )
        if len(bits) % 2:
            grouped.append(bits[-1])
        bits = grouped
    net.add_primary_output("equal", bits[0])
    net.check()
    return net


def decoder(select_bits: int, name: str = "") -> Network:
    """A ``select_bits``-to-``2**select_bits`` line decoder."""
    if select_bits < 1:
        raise ValueError("decoder needs at least one select bit")
    net = Network(name or f"dec{select_bits}")
    sel = [net.add_primary_input(f"s{i}") for i in range(select_bits)]
    for value in range(1 << select_bits):
        mask = "".join(
            "1" if (value >> i) & 1 else "0" for i in range(select_bits)
        )
        node = net.add_node(f"line{value}", sel, SopCover(select_bits, [Cube(mask)]))
        net.add_primary_output(f"o{value}", node)
    net.check()
    return net


def mux_tree(select_bits: int, name: str = "") -> Network:
    """A ``2**select_bits``-to-1 multiplexer built as a tree of 2:1 muxes."""
    if select_bits < 1:
        raise ValueError("mux needs at least one select bit")
    net = Network(name or f"mux{1 << select_bits}")
    data: List[Node] = [
        net.add_primary_input(f"d{i}") for i in range(1 << select_bits)
    ]
    sel = [net.add_primary_input(f"s{i}") for i in range(select_bits)]
    # 2:1 mux cover over (d0, d1, s): out = d0*!s + d1*s.
    mux_cover = SopCover(3, [Cube("1-0"), Cube("-11")])
    level = data
    for stage, s in enumerate(sel):
        next_level: List[Node] = []
        for k in range(0, len(level), 2):
            node = net.add_node(
                f"mux{stage}_{k // 2}", [level[k], level[k + 1], s], mux_cover
            )
            next_level.append(node)
        level = next_level
    net.add_primary_output("out", level[0])
    net.check()
    return net
