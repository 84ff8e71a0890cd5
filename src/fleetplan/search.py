"""Deterministic shortest-path searches: weighted and by hop count.

Dijkstra takes ``{node: [(succ, weight), ...]}`` mappings, the breadth-first
search a successor function; node keys are sortable.  Ties are broken by
expanding nodes in key order and keeping the first-found parent, so results
are reproducible across runs.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable, Mapping

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


def bfs(successors: Callable[[Node], Iterable[Node]], sources: Iterable[Node]):
    """Breadth-first search in layers: ``(dist, parent)`` hop maps.

    Each layer is expanded in key order and a node keeps the first parent
    found, so ``parent`` lists nodes in discovery order (sources first, with
    parent ``None``).
    """
    layer = sorted(sources)
    dist = dict.fromkeys(layer, 0)
    parent = dict.fromkeys(layer)
    depth = 0
    while layer:
        depth += 1
        found = []
        for node in layer:
            for succ in successors(node):
                if succ not in dist:
                    dist[succ] = depth
                    parent[succ] = node
                    found.append(succ)
        layer = sorted(found)
    return dist, parent
