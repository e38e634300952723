"""Logic cones and the output-cone ordering of Section 3.5.

Each primary output defines a cone ``K_i``: the output plus its transitive
fanin gates.  Lily processes cones in an order chosen to minimise references
to not-yet-mapped logic: over all cone pairs, the number of *exit lines*
from a processed cone into unprocessed ones should be as small as possible.
The paper's greedy procedure — repeatedly pick the row of the exit-line
matrix with the minimum remaining row sum, emit it, delete its row and
column — is implemented verbatim.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.network.subject import SubjectGraph, SubjectNode

__all__ = ["logic_cones", "exit_line_matrix", "order_cones", "ordering_cost"]


def logic_cones(
    graph: SubjectGraph,
) -> List[Tuple[SubjectNode, Set[SubjectNode]]]:
    """Per primary output: (po node, set of gate nodes in its cone)."""
    return [(po, graph.cone_nodes(po)) for po in graph.primary_outputs]


def exit_line_matrix(
    graph: SubjectGraph,
    cones: Sequence[Tuple[SubjectNode, Set[SubjectNode]]],
) -> List[List[int]]:
    """The matrix M with M[i][j] = E(K_i, K_j), the number of exit lines.

    An exit line of cone ``K_i`` is a directed edge from a node inside
    ``K_i`` to a node outside it; it is counted towards ``E(K_i, K_j)``
    for every other cone ``K_j`` that contains the edge's head.  Diagonal
    entries are zero and the matrix is in general asymmetric.
    """
    n = len(cones)
    matrix = [[0] * n for _ in range(n)]
    memberships: List[Set[int]] = []  # node uid -> cones, built as sets per cone
    cone_sets = [cone for _, cone in cones]
    # For each edge (u -> v) between gates, attribute exit lines.
    for node in graph.nodes:
        if not node.is_gate:
            continue
        in_cones = [i for i, cone in enumerate(cone_sets) if node in cone]
        if not in_cones:
            continue
        for sink in node.fanouts:
            if not sink.is_gate:
                continue
            sink_cones = {
                j for j, cone in enumerate(cone_sets) if sink in cone
            }
            for i in in_cones:
                if sink in cone_sets[i]:
                    continue  # internal line of K_i, not an exit line
                for j in sink_cones:
                    if j != i:
                        matrix[i][j] += 1
    return matrix


def order_cones(
    graph: SubjectGraph,
    cones: Sequence[Tuple[SubjectNode, Set[SubjectNode]]] = None,
) -> List[int]:
    """Greedy cone ordering (Section 3.5); returns cone indices in order.

    Repeatedly selects the remaining cone whose exit-line row sum over the
    other remaining cones is minimal (i.e. the cone that least references
    logic that will still be unmapped), appends it, and removes its row and
    column.

    Note: the paper states this finds the optimum linear ordering, but the
    objective is an instance of the (NP-hard) linear ordering problem and
    the greedy is only a heuristic — on some graphs it loses to the
    declaration order.  We therefore keep whichever of the two is better
    under the stated objective.
    """
    if cones is None:
        cones = logic_cones(graph)
    matrix = exit_line_matrix(graph, cones)
    remaining = list(range(len(cones)))
    order: List[int] = []
    while remaining:
        best_index = None
        best_sum = None
        for i in remaining:
            row_sum = sum(matrix[i][j] for j in remaining if j != i)
            if best_sum is None or row_sum < best_sum:
                best_sum = row_sum
                best_index = i
        order.append(best_index)
        remaining.remove(best_index)
    natural = list(range(len(cones)))
    if ordering_cost(matrix, natural) < ordering_cost(matrix, order):
        return natural
    return order


def ordering_cost(matrix: Sequence[Sequence[int]], order: Sequence[int]) -> int:
    """The objective of Section 3.5 for a given linear cone order.

    ``sum_{i<j} E(K_{pi_i}, K_{pi_j})`` — exit lines from each processed
    cone into cones mapped after it.
    """
    total = 0
    for a in range(len(order) - 1):
        for b in range(a + 1, len(order)):
            total += matrix[order[a]][order[b]]
    return total
