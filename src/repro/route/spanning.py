"""Rectilinear minimum spanning trees (Lily's alternative wiring model).

Prim's algorithm under the Manhattan metric; O(n^2), which is ample for
net pin counts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry import Point, manhattan

__all__ = [
    "rectilinear_mst_edges",
    "rectilinear_mst_length",
]


def rectilinear_mst_edges(points: Sequence[Point]) -> List[Tuple[int, int]]:
    """Edge list (index pairs) of a Manhattan-metric MST over the points."""
    n = len(points)
    if n < 2:
        return []
    in_tree = [False] * n
    best_dist = [float("inf")] * n
    best_link = [0] * n
    in_tree[0] = True
    for j in range(1, n):
        best_dist[j] = manhattan(points[0], points[j])
    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        k = -1
        k_dist = float("inf")
        for j in range(n):
            if not in_tree[j] and best_dist[j] < k_dist:
                k_dist = best_dist[j]
                k = j
        edges.append((best_link[k], k))
        in_tree[k] = True
        for j in range(n):
            if not in_tree[j]:
                d = manhattan(points[k], points[j])
                if d < best_dist[j]:
                    best_dist[j] = d
                    best_link[j] = k
    return edges


def rectilinear_mst_length(points: Sequence[Point]) -> float:
    """Total Manhattan length of the MST over the points."""
    return sum(
        manhattan(points[a], points[b])
        for a, b in rectilinear_mst_edges(points)
    )
