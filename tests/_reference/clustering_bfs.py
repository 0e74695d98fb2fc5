"""The per-point BFS ``euclidean_clusters`` shipped until PR 12.

Moved here verbatim when ``repro.perception.clustering`` switched to
connected components over occupied cells.  It is the oracle of
``tests/test_clustering_differential.py``: same clusters, in the same
order (ascending smallest member index); members inside a cluster come
out in BFS order here and in ascending index order in production, so
compare them as sets.  ~45 ms on a 2.9k-point frame -- keep it out of
anything that runs per frame.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np


def euclidean_clusters(
    xyz: np.ndarray, eps: float = 0.8, min_points: int = 8
) -> List[np.ndarray]:
    """Cluster points; returns index arrays, one per cluster.

    Two points belong to the same cluster if a chain of points with
    pairwise cell-adjacency (cell edge = eps) connects them -- the usual
    grid approximation of euclidean cluster extraction.
    """
    if len(xyz) == 0:
        return []
    cells = np.floor(xyz / eps).astype(np.int64)
    # Vectorized bucketing: stable lexsort groups points by cell while
    # keeping ascending point order inside each bucket -- the same
    # membership and order the per-point setdefault/append loop built.
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    if len(order) > 1:
        change = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
        starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
    else:
        starts = np.array([0])
    ends = np.concatenate((starts[1:], [len(order)]))
    buckets: Dict[Tuple[int, int, int], np.ndarray] = {
        tuple(sorted_cells[s]): order[s:e] for s, e in zip(starts, ends)
    }
    visited = np.zeros(len(xyz), dtype=bool)
    clusters: List[np.ndarray] = []
    neighbour_offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    for seed in range(len(xyz)):
        if visited[seed]:
            continue
        frontier = deque([seed])
        visited[seed] = True
        members = []
        while frontier:
            i = frontier.popleft()
            members.append(i)
            cx, cy, cz = cells[i]
            for dx, dy, dz in neighbour_offsets:
                for j in buckets.get((cx + dx, cy + dy, cz + dz), ()):
                    if not visited[j]:
                        visited[j] = True
                        frontier.append(j)
        if len(members) >= min_points:
            clusters.append(np.asarray(members))
    return clusters
