"""Technology decomposition: Boolean network -> NAND2/INV subject graph.

Every internal node's SOP cover is expanded into a balanced tree of 2-input
NANDs and inverters (the DAGON/MIS base-function set).  The decomposition is
polarity-aware — AND trees produce their complemented form for free at the
root NAND — and the subject graph's structural hashing shares common
subtrees, creating the multi-fanout stems of Section 2.

Section 1 (Figure 1.1b) argues the *shape* of the decomposition tree should
agree with placement: fanins that sit near one another on the layout plane
should enter the tree at topologically-near points.  The ``positions``
argument enables that layout-driven mode: leaves are merged
nearest-cluster-first (greedy agglomerative pairing on the companion
placement) instead of in textual order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point
from repro.network.network import Network, Node
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS

__all__ = ["decompose_to_subject", "proximity_pairer", "balanced_pairer"]

#: A pairing strategy reduces a list of (node, position) clusters by one
#: merge step, returning the indices of the two clusters to combine next.
Pairer = Callable[[List[Tuple[SubjectNode, Optional[Point]]]], Tuple[int, int]]


def balanced_pairer(
    clusters: List[Tuple[SubjectNode, Optional[Point]]]
) -> Tuple[int, int]:
    """Merge the first two clusters: with re-appending at the back this
    yields a balanced (breadth-first) reduction tree."""
    return 0, 1


def proximity_pairer(
    clusters: List[Tuple[SubjectNode, Optional[Point]]]
) -> Tuple[int, int]:
    """Merge the two geometrically closest clusters (layout-driven mode).

    Clusters without a position fall back to maximal distance so that
    placed leaves pair up among themselves first.
    """
    best = (0, 1)
    best_dist = float("inf")
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            pi, pj = clusters[i][1], clusters[j][1]
            if pi is None or pj is None:
                dist = float("inf")
            else:
                dist = abs(pi.x - pj.x) + abs(pi.y - pj.y)
            if dist < best_dist:
                best_dist = dist
                best = (i, j)
    return best


def _merged_position(a: Optional[Point], b: Optional[Point]) -> Optional[Point]:
    if a is None:
        return b
    if b is None:
        return a
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def _and_tree(
    graph: SubjectGraph,
    leaves: Sequence[Tuple[SubjectNode, Optional[Point]]],
    invert_output: bool,
    pairer: Pairer,
) -> SubjectNode:
    """Build AND(leaves) (or NAND at the root when ``invert_output``)."""
    if not leaves:
        raise ValueError("empty AND tree")
    if len(leaves) == 1:
        node = leaves[0][0]
        return graph.inv(node) if invert_output else node
    clusters = list(leaves)
    while len(clusters) > 2:
        i, j = pairer(clusters)
        if i > j:
            i, j = j, i
        (na, pa) = clusters[i]
        (nb, pb) = clusters[j]
        merged = (graph.inv(graph.nand(na, nb)), _merged_position(pa, pb))
        del clusters[j]
        del clusters[i]
        clusters.append(merged)
    top = graph.nand(clusters[0][0], clusters[1][0])
    return top if invert_output else graph.inv(top)


def _decompose_cover(
    graph: SubjectGraph,
    node: Node,
    fanin_subjects: Sequence[SubjectNode],
    fanin_positions: Sequence[Optional[Point]],
    pairer: Pairer,
) -> SubjectNode:
    """Decompose one network node's SOP cover into subject-graph gates."""
    cover = node.function
    if not cover.cubes:
        return graph.constant(False)
    if any(c.num_literals == 0 for c in cover.cubes):
        return graph.constant(True)

    negated_cubes: List[Tuple[SubjectNode, Optional[Point]]] = []
    cube_nodes: List[Tuple[SubjectNode, Optional[Point]]] = []
    single_cube = len(cover.cubes) == 1
    for cube in cover.cubes:
        literals: List[Tuple[SubjectNode, Optional[Point]]] = []
        for i, lit in enumerate(cube.mask):
            if lit == "-":
                continue
            leaf = fanin_subjects[i]
            if lit == "0":
                leaf = graph.inv(leaf)
            literals.append((leaf, fanin_positions[i]))
        position = literals[0][1] if len(literals) == 1 else None
        if single_cube:
            cube_nodes.append(
                (_and_tree(graph, literals, invert_output=False, pairer=pairer), position)
            )
        else:
            negated_cubes.append(
                (_and_tree(graph, literals, invert_output=True, pairer=pairer), position)
            )
    if single_cube:
        return cube_nodes[0][0]
    # OR of cubes: OR(c_i) = NAND(!c_1, ..., !c_k) built as an AND tree over
    # the negated cubes with an inverted root.
    return _and_tree(graph, negated_cubes, invert_output=True, pairer=pairer)


def decompose_to_subject(
    net: Network,
    positions: Optional[Dict[str, Point]] = None,
) -> SubjectGraph:
    """Convert a Boolean network into its NAND2/INV subject graph.

    Args:
        net: the technology-independent optimized network.
        positions: optional companion placement, keyed by *network* node
            name.  When given, decomposition trees are built
            proximity-first (:func:`proximity_pairer`) so that nearby
            signals enter each tree at topologically-near points
            (Figure 1.1); otherwise :func:`balanced_pairer` pairs them.

    Returns:
        The inchoate network N_inchoate as a :class:`SubjectGraph`.
    """
    pairer = proximity_pairer if positions is not None else balanced_pairer
    positions = positions or {}

    graph = SubjectGraph(net.name)
    node_map: Dict[str, SubjectNode] = {}
    for pi in net.primary_inputs:
        node_map[pi.name] = graph.add_primary_input(pi.name)

    covers = 0
    for node in net.topological_order():
        if node.is_pi or node.is_po:
            continue
        fanin_subjects = [node_map[f.name] for f in node.fanins]
        fanin_positions = [positions.get(f.name) for f in node.fanins]
        subject = _decompose_cover(
            graph, node, fanin_subjects, fanin_positions, pairer
        )
        if subject.is_gate and subject.source is None:
            subject.source = node.name
        node_map[node.name] = subject
        covers += 1

    for po in net.primary_outputs:
        graph.add_primary_output(po.name, node_map[po.fanins[0].name])
    graph.sweep_dangling()
    graph.check()
    if OBS.enabled:
        OBS.metrics.counter("decompose.covers").inc(covers)
        OBS.metrics.counter("decompose.subject_gates").inc(len(graph.gates))
    return graph
