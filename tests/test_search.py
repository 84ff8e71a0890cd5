"""Weighted search: Dijkstra's early stop against the full search."""

import random

from fleetplan.search import dijkstra, reconstruct


def random_graphs(count=200):
    """Seeded random directed graphs with positive, often tied, weights:
    ``(adjacency, sources, stop)`` per trial."""
    rng = random.Random(17)
    for _trial in range(count):
        n = rng.randint(1, 25)
        adjacency = {node: [(succ, rng.choice([1, 1, 2, 3, 0.5]))
                            for succ in rng.sample(range(n), rng.randint(0, min(n, 4)))]
                     for node in range(n)}
        sources = rng.sample(range(n), rng.randint(1, min(n, 2)))
        stop = set(rng.sample(range(n), rng.randint(0, min(n, 5))))
        yield adjacency, sources, stop


def relaxed_distances(adjacency, sources):
    """Directed shortest distances by repeated relaxation (Bellman-Ford)."""
    dist = dict.fromkeys(sources, 0)
    for _ in range(len(adjacency)):
        for a, succs in adjacency.items():
            for b, w in succs:
                if a in dist and dist[a] + w < dist.get(b, float("inf")):
                    dist[b] = dist[a] + w
    return dist


def test_dijkstra_stop_returns_the_least_reached_stop_node_with_full_search_path():
    hits = misses = 0
    for adjacency, sources, stop in random_graphs():
        dist, parent = dijkstra(adjacency, sources)
        stop_dist, stop_parent, node = dijkstra(adjacency, sources, stop=stop)
        reached = [(dist[s], s) for s in stop if s in dist]
        if not reached:
            assert node is None
            misses += 1
            continue
        assert (stop_dist[node], node) == min(reached)
        assert reconstruct(stop_parent, node) == reconstruct(parent, node)
        hits += 1
    assert hits >= 50 and misses >= 20


def test_dijkstra_without_stop_searches_every_reachable_node():
    for adjacency, sources, _stop in random_graphs():
        result = dijkstra(adjacency, sources)
        assert len(result) == 2
        dist, parent = result
        assert dist == relaxed_distances(adjacency, sources)
        assert (dist, parent, None) == dijkstra(adjacency, sources, stop=())
        for node, p in parent.items():
            if p is None:
                assert node in sources
            else:
                assert dist[p] + dict(adjacency[p])[node] == dist[node]
