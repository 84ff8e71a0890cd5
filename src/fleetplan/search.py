"""Deterministic breadth-first search over a successor function.

Node keys are sortable.  Ties are broken by expanding nodes in key order and
keeping the first-found parent, so results are reproducible across runs.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

Node = Hashable


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
