"""Functional equivalence checking between two networks.

The mapper's contract (Section 2) is that covering only re-expresses the
subject graph in library gates — the function at every primary output must
be untouched.  This module proves that claim per output cone:

* cones whose input support is small (≤ ``exhaustive_limit``) are compared
  **exhaustively** — every input minterm, bit-parallel, so a 16-input cone
  is one 65536-bit word evaluation per node;
* larger cones are compared on a **seeded random vector set**: the
  union of the large cones is evaluated once per network, and every
  large output reads its word from that one simulation.

Any of :class:`~repro.network.network.Network`,
:class:`~repro.network.subject.SubjectGraph` and
:class:`~repro.map.netlist.MappedNetwork` can sit on either side — they all
expose the simulation protocol (``primary_inputs``/``primary_outputs``,
``fanins``, ``transitive_fanin()``, ``truth_table()``).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from repro.network.blif import po_port
from repro.network.logic import TruthTable
from repro.network.simulate import _eval_tt_words
from repro.verify.result import CheckResult

__all__ = [
    "EquivBudget",
    "cone_support",
    "check_equivalence",
    "equivalent",
]


class EquivBudget:
    """Effort knobs for one equivalence run.

    Attributes:
        exhaustive_limit: cone supports up to this size are enumerated
            completely (2**k vectors).
        num_vectors: random vectors used for larger cones.
        seed: RNG seed for the random vector set (deterministic reruns).
    """

    __slots__ = ("exhaustive_limit", "num_vectors", "seed")

    def __init__(
        self, exhaustive_limit: int = 16, num_vectors: int = 4096,
        seed: int = 0,
    ) -> None:
        self.exhaustive_limit = exhaustive_limit
        self.num_vectors = num_vectors
        self.seed = seed

    @staticmethod
    def for_level(level: str) -> "EquivBudget":
        """The budget behind the named audit level (``fast``/``full``)."""
        if level == "fast":
            return EquivBudget(exhaustive_limit=12, num_vectors=1024)
        if level == "full":
            return EquivBudget(exhaustive_limit=16, num_vectors=8192)
        raise ValueError(f"unknown verify level: {level!r}")


def cone_support(net, po) -> List[str]:
    """Names of the primary inputs in the transitive fanin of ``po``."""
    return sorted(
        n.name for n in net.transitive_fanin([po]) if n.is_pi
    )


def _cone_order(roots: Sequence) -> List:
    """The transitive fanin of ``roots`` in fanin-first order.

    One iterative depth-first walk of the cones themselves
    (protocol-agnostic: nodes are told apart by identity), so a cone
    costs its own size, not the network's.
    """
    order: List = []
    entered = set()
    for root in roots:
        if id(root) in entered:
            continue
        entered.add(id(root))
        stack = [(root, iter(root.fanins))]
        while stack:
            node, fanins = stack[-1]
            for fanin in fanins:
                if id(fanin) not in entered:
                    entered.add(id(fanin))
                    stack.append((fanin, iter(fanin.fanins)))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def _evaluate(
    order: Sequence, pi_words: Dict[str, int], width: int
) -> Dict[str, int]:
    """Evaluate nodes in fanin-first order bit-parallel; name -> word."""
    mask = (1 << width) - 1
    values: Dict[str, int] = {}
    for node in order:
        if node.is_pi:
            values[node.name] = pi_words.get(node.name, 0) & mask
        elif node.is_po:
            values[node.name] = values[node.fanins[0].name]
        else:
            fanin_words = [values[f.name] for f in node.fanins]
            values[node.name] = _eval_tt_words(
                node.truth_table(), fanin_words, mask
            )
    return values


def _counterexample(
    support: Sequence[str], pi_words: Dict[str, int], diff: int
) -> str:
    """Decode the lowest differing vector into a readable assignment."""
    bit = (diff & -diff).bit_length() - 1
    assignment = ", ".join(
        f"{name}={(pi_words.get(name, 0) >> bit) & 1}" for name in support
    )
    return f"differs at {{{assignment}}}"


def check_equivalence(
    a, b, budget: Optional[EquivBudget] = None, name: str = "equiv",
) -> List[CheckResult]:
    """Prove ``a`` and ``b`` compute the same function, port by port.

    Returns three results: ``<name>.ports`` (terminal sets match),
    ``<name>.exhaustive`` (all small-support cones, complete enumeration)
    and ``<name>.random`` (all large-support cones, shared seeded vectors).
    """
    budget = budget or EquivBudget()
    target = f"{getattr(a, 'name', 'a')} vs {getattr(b, 'name', 'b')}"
    results: List[CheckResult] = []

    t0 = time.perf_counter()
    a_pis = sorted(pi.name for pi in a.primary_inputs)
    b_pis = sorted(pi.name for pi in b.primary_inputs)
    a_pos = {po_port(po.name): po for po in a.primary_outputs}
    b_pos = {po_port(po.name): po for po in b.primary_outputs}
    port_problems = []
    if a_pis != b_pis:
        only_a = sorted(set(a_pis) - set(b_pis))
        only_b = sorted(set(b_pis) - set(a_pis))
        port_problems.append(f"PI mismatch (a-only {only_a}, b-only {only_b})")
    if sorted(a_pos) != sorted(b_pos):
        only_a = sorted(set(a_pos) - set(b_pos))
        only_b = sorted(set(b_pos) - set(a_pos))
        port_problems.append(f"PO mismatch (a-only {only_a}, b-only {only_b})")
    results.append(CheckResult(
        f"{name}.ports", target, not port_problems,
        "; ".join(port_problems), time.perf_counter() - t0,
    ))
    if port_problems:
        return results

    # Partition ports by joint cone support size.
    supports: Dict[str, List[str]] = {}
    for port in a_pos:
        sup = set(cone_support(a, a_pos[port]))
        sup.update(cone_support(b, b_pos[port]))
        supports[port] = sorted(sup)
    small = [p for p in sorted(a_pos) if
             len(supports[p]) <= budget.exhaustive_limit]
    big = [p for p in sorted(a_pos) if p not in set(small)]

    # Exhaustive tier: enumerate every minterm of each small cone.
    t0 = time.perf_counter()
    failures: List[str] = []
    for port in small:
        support = supports[port]
        k = len(support)
        width = 1 << k
        pi_words = {
            pi: TruthTable.variable(i, k).bits for i, pi in enumerate(support)
        }
        po_a, po_b = a_pos[port], b_pos[port]
        wa = _evaluate(_cone_order([po_a]), pi_words, width)[po_a.name]
        wb = _evaluate(_cone_order([po_b]), pi_words, width)[po_b.name]
        if wa != wb:
            failures.append(
                f"{port}: {_counterexample(support, pi_words, wa ^ wb)}"
            )
    results.append(CheckResult(
        f"{name}.exhaustive", f"{target} ({len(small)} outputs)",
        not failures, "; ".join(failures[:3]), time.perf_counter() - t0,
    ))

    # Random tier: one shared simulation per side of the union of the
    # big cones, each node evaluated once.
    t0 = time.perf_counter()
    failures = []
    if big:
        width = budget.num_vectors
        rng = random.Random(budget.seed)
        pi_words = {pi: rng.getrandbits(width) for pi in a_pis}
        words_a = _evaluate(_cone_order([a_pos[p] for p in big]),
                            pi_words, width)
        words_b = _evaluate(_cone_order([b_pos[p] for p in big]),
                            pi_words, width)
        for port in big:
            wa = words_a[a_pos[port].name]
            wb = words_b[b_pos[port].name]
            if wa != wb:
                failures.append(
                    f"{port}: "
                    f"{_counterexample(supports[port], pi_words, wa ^ wb)}"
                )
    results.append(CheckResult(
        f"{name}.random",
        f"{target} ({len(big)} outputs x {budget.num_vectors} vectors)",
        not failures, "; ".join(failures[:3]), time.perf_counter() - t0,
    ))
    return results


def equivalent(a, b, budget: Optional[EquivBudget] = None) -> bool:
    """Convenience wrapper: ``True`` iff every equivalence check passes."""
    return all(c.passed for c in check_equivalence(a, b, budget))
