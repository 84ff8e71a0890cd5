"""Deterministic shortest-path search over adjacency mappings.

Graphs are ``{node: [(succ, weight), ...]}`` mappings with sortable node
keys.  Ties are broken by expanding nodes in key order and keeping the
first-found parent, so results are reproducible across runs.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable, Mapping, Sequence

Node = Hashable


def dijkstra(adjacency: Mapping, sources: Iterable[Node], targets=None):
    """Multi-source Dijkstra.

    Returns ``(dist, parent)`` maps.  When ``targets`` is given, the search
    stops once every reachable target is settled.
    """
    dist: dict = {}
    parent: dict = {}
    heap = []
    for s in sorted(sources):
        dist[s] = 0
        parent[s] = None
        heapq.heappush(heap, (0, s))
    remaining = set(targets) if targets is not None else None
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for succ, weight in adjacency.get(node, ()):
            nd = d + weight
            if nd < dist.get(succ, float("inf")):
                dist[succ] = nd
                parent[succ] = node
                heapq.heappush(heap, (nd, succ))
    return dist, parent


def reconstruct(parent: Mapping, node: Node) -> list:
    path = [node]
    while parent[node] is not None:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path


def bfs_layers(successors: Callable[[Node], Sequence[Node]], sources: Iterable[Node]):
    """Unweighted distances via breadth-first search (hop counts)."""
    dist = {}
    frontier = sorted(sources)
    for s in frontier:
        dist[s] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for node in frontier:
            for succ in successors(node):
                if succ not in dist:
                    dist[succ] = level
                    nxt.append(succ)
        frontier = sorted(set(nxt))
    return dist
