"""Deterministic shortest-path searches: weighted and by hop count.

Dijkstra takes ``{node: [(succ, weight), ...]}`` mappings, the breadth-first
search a successor function; node keys are sortable.  Ties are broken by
expanding nodes in key order and keeping the first-found parent, so results
are reproducible across runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Container, Hashable, Iterable, Mapping, Optional

Node = Hashable
INF = float("inf")


def dijkstra(adjacency: Mapping, sources: Iterable[Node], stop: Optional[Container] = None):
    """Multi-source Dijkstra: ``(dist, parent)`` maps over every reachable node.

    Given ``stop``, it returns ``(dist, parent, node)`` on settling the first stop node
    (None if none is reachable): with positive weights, the ``(dist, node)`` least one."""
    dist: dict = {}
    parent: dict = {}
    heap = []
    for s in sorted(sources):
        dist[s] = 0
        parent[s] = None
        heappush(heap, (0, s))
    known, successors, pop, push, inf = dist.get, adjacency.get, heappop, heappush, INF
    halt = () if stop is None else stop
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        if node in halt:
            return dist, parent, node
        for succ, weight in successors(node, ()):
            nd = d + weight
            if nd < known(succ, inf):
                dist[succ] = nd
                parent[succ] = node
                push(heap, (nd, succ))
    return (dist, parent) if stop is None else (dist, parent, None)


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
