"""The reference Dijkstra of the test oracles against repeated relaxation."""

import random

from oracles import dijkstra


def random_graphs(count=200):
    """Seeded random directed graphs with positive, often tied, weights:
    ``(adjacency, sources)`` per trial."""
    rng = random.Random(17)
    for _trial in range(count):
        n = rng.randint(1, 25)
        adjacency = {node: [(succ, rng.choice([1, 1, 2, 3, 0.5]))
                            for succ in rng.sample(range(n), rng.randint(0, min(n, 4)))]
                     for node in range(n)}
        sources = rng.sample(range(n), rng.randint(1, min(n, 2)))
        yield adjacency, sources


def relaxed_distances(adjacency, sources):
    """Directed shortest distances by repeated relaxation (Bellman-Ford)."""
    dist = dict.fromkeys(sources, 0)
    for _ in range(len(adjacency)):
        for a, succs in adjacency.items():
            for b, w in succs:
                if a in dist and dist[a] + w < dist.get(b, float("inf")):
                    dist[b] = dist[a] + w
    return dist


def test_dijkstra_without_stop_searches_every_reachable_node():
    for adjacency, sources in random_graphs():
        dist, parent = dijkstra(adjacency, sources)
        assert dist == relaxed_distances(adjacency, sources)
        for node, p in parent.items():
            if p is None:
                assert node in sources
            else:
                assert dist[p] + dict(adjacency[p])[node] == dist[node]
