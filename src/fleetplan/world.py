"""Environment graph, fleet, task requirements, and per-robot transition systems."""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import ScenarioError


class World:
    """Shared region graph: regions and undirected weighted edges.

    Inside the planner a region is its ``rank``, its position in name order, and
    names are read back from ``names`` only for output.  Built once, here, and
    shared by every robot's transition system: ``neighbours``, each rank's sorted
    ``(rank, weight)`` pairs; ``min_weight``, the least edge weight (inf without
    edges); and ``exact``, whether the weights are integers of one type, so that
    sums of them agree in any order.
    """

    def __init__(self, regions: Tuple[str, ...], edges: Tuple[Tuple[str, str], ...],
                 weights: Mapping[Tuple[str, str], float]):
        self.regions = regions
        self.edges = edges
        self.weights = weights
        region_set = set()
        for i, region in enumerate(self.regions):
            if region in region_set:
                raise ScenarioError(f"scenario key world.regions[{i}] repeats region {region}")
            region_set.add(region)
        listed = set()
        for i, (a, b) in enumerate(self.edges):
            if a not in region_set or b not in region_set:
                raise ScenarioError(f"edge ({a}, {b}) references unknown region")
            if frozenset((a, b)) in listed:
                raise ScenarioError(f"scenario key world.edges[{i}] repeats edge ({a}, {b})")
            listed.add(frozenset((a, b)))
        edge_set = set(self.edges)
        for key, w in self.weights.items():
            if key not in edge_set:
                raise ScenarioError(f"weight key {key} names no edge")
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 < w < math.inf:
                raise ScenarioError(f"edge {key} has weight {w!r}; weights must be finite and > 0")
        self.names = names = tuple(sorted(regions))
        self.rank = rank = {region: i for i, region in enumerate(names)}
        pairs: List[set] = [set() for _r in names]
        for a, b in self.edges:
            w = self.edge_weight(a, b)
            pairs[rank[a]].add((rank[b], w))
            pairs[rank[b]].add((rank[a], w))
        self.neighbours = neighbours = tuple(tuple(sorted(p)) for p in pairs)
        stack = [0] if names else []
        reached = set(stack)
        while stack:
            for y, _w in neighbours[stack.pop()]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if not names or len(reached) != len(names):
            raise ScenarioError("world graph is not connected")
        weights = self.weights.values()
        self.exact = len(set(map(type, weights))) <= 1 and all(w == int(w) for w in weights)
        self.min_weight = min(weights, default=math.inf)

    def edge_weight(self, a: str, b: str) -> float:
        if (a, b) in self.weights:
            return self.weights[(a, b)]
        return self.weights[(b, a)]


def grid_world(width: int, height: int, weights: Mapping | None = None) -> World:
    """4-connected grid with unit weights unless overridden.

    An override may name an edge in either orientation, but only once.
    """
    regions = tuple(f"q{x}_{y}" for y in range(height) for x in range(width))
    edges = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                edges.append((f"q{x}_{y}", f"q{x + 1}_{y}"))
            if y + 1 < height:
                edges.append((f"q{x}_{y}", f"q{x}_{y + 1}"))
    wmap = {e: 1 for e in edges}
    overridden = set()
    for i, ((a, b), value) in enumerate((weights or {}).items()):
        key = (b, a) if (b, a) in wmap else (a, b)
        if key in overridden:
            raise ScenarioError(f"scenario key world.weights[{i}] repeats edge ({a}, {b})")
        overridden.add(key)
        wmap[key] = value
    return World(regions, tuple(edges), wmap)


class Robot:
    __slots__ = ("robot_id", "capabilities", "start")

    def __init__(self, robot_id: int, capabilities: FrozenSet[str], start: str):
        self.robot_id = robot_id
        self.capabilities = capabilities
        self.start = start


class Fleet:
    """The robots, indexed once by id and by capability."""

    def __init__(self, capabilities: Tuple[str, ...], robots: Tuple[Robot, ...]):
        self.capabilities = capabilities
        self.robots = robots
        self._by_id: Dict[int, Robot] = {}
        holders: Dict[str, list] = {}
        for i, robot in enumerate(robots):
            if robot.robot_id in self._by_id:
                raise ScenarioError(f"scenario key robots[{i}] repeats robot id {robot.robot_id}")
            self._by_id[robot.robot_id] = robot
            if not robot.capabilities:
                raise ScenarioError(f"robot {robot.robot_id} has no capability")
            unknown = robot.capabilities - set(capabilities)
            if unknown:
                raise ScenarioError(f"robot {robot.robot_id} has unknown capabilities {sorted(unknown)}")
            for capability in robot.capabilities:
                holders.setdefault(capability, []).append(robot.robot_id)
        self._holders = {c: frozenset(ids) for c, ids in holders.items()}
        self._ids = tuple(self._by_id)

    def robot(self, robot_id: int) -> Robot:
        try:
            return self._by_id[robot_id]
        except KeyError:
            raise ScenarioError(f"unknown robot {robot_id}") from None

    def with_capability(self, capability: str) -> FrozenSet[int]:
        return self._holders.get(capability, frozenset())

    def robot_ids(self) -> Tuple[int, ...]:
        return self._ids


class TaskReq:
    """A task: its proposition, region, and per-capability robot counts.

    Individual tasks carry their owner and exactly one requirement of count
    one; collaborative tasks have ``owner is None``.
    """

    __slots__ = ("prop", "region", "requirements", "owner")

    def __init__(self, prop: str, region: str, requirements: Mapping[str, int],
                 owner: Optional[int] = None):
        self.prop = prop
        self.region = region
        self.requirements = requirements
        self.owner = owner
        if not requirements:
            raise ScenarioError(f"task {prop} requires no capability")
        for cap, count in requirements.items():
            if count < 1:
                raise ScenarioError(f"task {prop} has non-positive count for {cap}")
        if owner is not None:
            counts = list(requirements.values())
            if len(counts) != 1 or counts[0] != 1:
                raise ScenarioError(f"individual task {prop} must need exactly one robot")

    @property
    def collaborative(self) -> bool:
        return self.owner is None


class Hops(NamedTuple):
    """Clean hops from one origin region.  ``dist`` and ``parent``, indexed by
    region rank, cover the origin and the unlabeled regions reached (inf and None
    elsewhere); ``border`` and ``border_parent`` map the labeled regions reached
    (the origin too when a path returns to it).  Regions are settled in
    ``(dist, rank)`` order and a parent is the first found, so it is the
    ``(dist, rank)`` least predecessor on a shortest hop."""

    dist: List[float]
    parent: List[Optional[int]]
    border: Dict[int, float]
    border_parent: Dict[int, int]


class Wts:
    """A robot's weighted transition system over the shared region graph.

    By region rank it has ``ranked_labels`` (frozenset() on unlabeled regions),
    their interned ids ``label_ids`` (0 unlabeled, the others dense in order of
    first rank; ``labels[id]`` is the label), ``start_rank`` and, built on first
    request and shared by every product of the robot, the unlabeled components
    and one clean-hop table per origin (``hop_tables``).
    """

    __slots__ = ("robot_id", "world", "ranked_labels", "label_ids", "labels", "start_rank",
                 "_components", "hop_tables")

    def __init__(self, robot_id: int, world: World, ranked_labels: Tuple[FrozenSet[str], ...],
                 start_rank: int):
        self.robot_id = robot_id
        self.world = world
        self.ranked_labels = ranked_labels
        ids = {frozenset(): 0}
        self.label_ids = tuple(ids.setdefault(label, len(ids)) for label in ranked_labels)
        self.labels = tuple(ids)
        self.start_rank = start_rank
        self._components = None
        self.hop_tables: Dict[int, Hops] = {}

    def components(self):
        """Connected components of the unlabeled regions: the component of each
        rank (None if labeled), and per component its ranks, its count of edges
        between unlabeled regions, and its edge multiplicity into each labeled
        neighbour."""
        if self._components is None:
            labels, neighbours = self.ranked_labels, self.world.neighbours
            component: List[Optional[int]] = [None] * len(labels)
            parts = []
            for rank, label in enumerate(labels):
                if label or component[rank] is not None:
                    continue
                k = len(parts)
                component[rank] = k
                ranks, stack, inner, border = [], [rank], 0, {}
                while stack:
                    x = stack.pop()
                    ranks.append(x)
                    for y, _w in neighbours[x]:
                        if labels[y]:
                            border[y] = border.get(y, 0) + 1
                            continue
                        inner += 1
                        if component[y] is None:
                            component[y] = k
                            stack.append(y)
                parts.append((ranks, inner, tuple(border.items())))
            self._components = component, parts
        return self._components

    def hops(self, origin: int) -> Hops:
        """Clean hops from region rank ``origin``: a grid Dijkstra that reaches
        labeled regions but expands only the origin and unlabeled ones.  It keeps
        the regions pending at each distance in one layer and settles a layer in
        rank order, so its heap holds one entry per distance, not per region."""
        hops = self.hop_tables.get(origin)
        if hops is None:
            inf, labels, neighbours = math.inf, self.ranked_labels, self.world.neighbours
            inner, parent = [inf] * len(labels), [None] * len(labels)
            inner[origin], border, border_parent = 0, {}, {}
            layers, pending = {0: [origin]}, [0]
            while pending:
                d = heappop(pending)
                for x in sorted(layers.pop(d)):
                    if inner[x] < d:  # reached closer since it was queued here
                        continue
                    for y, w in neighbours[x]:
                        nd = d + w
                        if labels[y]:
                            if nd < border.get(y, inf):
                                border[y] = nd
                                border_parent[y] = x
                        elif nd < inner[y]:
                            inner[y] = nd
                            parent[y] = x
                            if nd in layers:
                                layers[nd].append(y)
                            else:
                                layers[nd] = [y]
                                heappush(pending, nd)
            hops = self.hop_tables[origin] = Hops(inner, parent, border, border_parent)
        return hops


def build_wts(world: World, fleet: Fleet, tasks: Sequence[TaskReq], robot_id: int) -> Wts:
    """Construct a robot's transition system with task labeling.

    The robot sees its own individual task propositions and the proposition
    of every collaborative task it could contribute a required capability to.
    """
    robot = fleet.robot(robot_id)
    labels: Dict[int, set] = {}
    for task in tasks:
        rank = world.rank.get(task.region)
        if rank is None:
            raise ScenarioError(f"task {task.prop} placed on unknown region {task.region}")
        if task.collaborative:
            capable = any(robot_id in fleet.with_capability(c) for c in task.requirements)
            if capable:
                labels.setdefault(rank, set()).add(task.prop)
        elif task.owner == robot_id:
            labels.setdefault(rank, set()).add(task.prop)
    empty = frozenset()
    ranked_labels = tuple(frozenset(labels[i]) if i in labels else empty
                          for i in range(len(world.names)))
    return Wts(robot_id, world, ranked_labels, world.rank[robot.start])
