"""Bit-parallel network simulation and combinational equivalence checking.

Every mapped circuit in the test and benchmark suites is verified against
its source network by simulation: exhaustively for small input counts, with
a large randomized vector set otherwise.  Words are arbitrary-precision
Python integers, so one pass simulates thousands of vectors at once.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Sequence, Tuple

from repro.network.blif import po_port
from repro.network.logic import TruthTable

__all__ = ["simulate", "evaluate_words", "networks_equivalent"]


@functools.lru_cache(maxsize=65536)
def _cached_sop(num_inputs: int, bits: int) -> Tuple[str, ...]:
    """Cube masks of a (cached) SOP cover for the given truth table."""
    cover = TruthTable(num_inputs, bits).to_sop()
    return tuple(c.mask for c in cover.cubes)


def _eval_tt_words(tt: TruthTable, fanin_words: Sequence[int], mask: int) -> int:
    """Evaluate a truth table over bit-parallel fanin words."""
    const = tt.is_constant()
    if const is not None:
        return mask if const else 0
    out = 0
    for cube in _cached_sop(tt.num_inputs, tt.bits):
        term = mask
        for i, lit in enumerate(cube):
            if lit == "1":
                term &= fanin_words[i]
            elif lit == "0":
                term &= ~fanin_words[i]
            if not term:
                break
        out |= term & mask
    return out


def evaluate_words(net, pi_words: Dict[str, int], width: int) -> Dict[str, int]:
    """Simulate ``width`` vectors in parallel; returns PO port -> output word.

    Works for any network-like object whose nodes expose ``is_pi``/``is_po``,
    ``fanins`` and ``truth_table()`` — both the unmapped
    :class:`~repro.network.network.Network` and the mapped netlist satisfy
    this protocol.
    """
    mask = (1 << width) - 1
    values: Dict[str, int] = {}
    for node in net.topological_order():
        if node.is_pi:
            if node.name not in pi_words:
                raise KeyError(f"missing stimulus for input {node.name!r}")
            values[node.name] = pi_words[node.name] & mask
        elif node.is_po:
            values[node.name] = values[node.fanins[0].name]
        else:
            fanin_words = [values[f.name] for f in node.fanins]
            values[node.name] = _eval_tt_words(node.truth_table(), fanin_words, mask)
    return {po.name: values[po.name] for po in net.primary_outputs}


def simulate(net, assignment: Dict[str, bool]) -> Dict[str, bool]:
    """Single-vector simulation; returns PO name -> value."""
    pi_words = {name: (1 if value else 0) for name, value in assignment.items()}
    out = evaluate_words(net, pi_words, width=1)
    return {name: bool(word & 1) for name, word in out.items()}


def networks_equivalent(
    a,
    b,
    num_vectors: int = 4096,
    seed: int = 0,
    exhaustive_limit: int = 12,
) -> bool:
    """Check two networks compute the same function, matching ports by name.

    Inputs with up to ``exhaustive_limit`` PIs are checked exhaustively;
    larger ones use ``num_vectors`` random vectors (bit-parallel).
    """
    a_pis = sorted(pi.name for pi in a.primary_inputs)
    b_pis = sorted(pi.name for pi in b.primary_inputs)
    if a_pis != b_pis:
        return False
    a_pos = sorted(po_port(po.name) for po in a.primary_outputs)
    b_pos = sorted(po_port(po.name) for po in b.primary_outputs)
    if a_pos != b_pos:
        return False

    n = len(a_pis)
    if n <= exhaustive_limit:
        width = 1 << n
        pi_words = {
            name: TruthTable.variable(i, n).bits for i, name in enumerate(a_pis)
        }
    else:
        width = num_vectors
        rng = random.Random(seed)
        pi_words = {name: rng.getrandbits(width) for name in a_pis}

    out_a = {
        po_port(k): v for k, v in evaluate_words(a, pi_words, width).items()
    }
    out_b = {
        po_port(k): v for k, v in evaluate_words(b, pi_words, width).items()
    }
    return out_a == out_b
