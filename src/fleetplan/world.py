"""Environment graph, fleet, task requirements, and per-robot transition systems."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import ScenarioError, Unreachable


@dataclass(frozen=True)
class World:
    """Shared region graph: regions, undirected weighted edges, optional grid coordinates."""

    regions: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    weights: Mapping[Tuple[str, str], float]
    coordinates: Optional[Mapping[str, Tuple[int, int]]] = None

    def __post_init__(self):
        region_set = set(self.regions)
        for a, b in self.edges:
            if a not in region_set or b not in region_set:
                raise ScenarioError(f"edge ({a}, {b}) references unknown region")
        edge_set = set(self.edges)
        for key, w in self.weights.items():
            if key not in edge_set:
                raise ScenarioError(f"weight key {key} names no edge")
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 < w < math.inf:
                raise ScenarioError(f"edge {key} has weight {w!r}; weights must be finite and > 0")
        if not self._connected():
            raise ScenarioError("world graph is not connected")

    def _connected(self) -> bool:
        if not self.regions:
            return False
        adj: Dict[str, list] = {r: [] for r in self.regions}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self.regions[0]}
        stack = [self.regions[0]]
        while stack:
            for n in adj[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return len(seen) == len(self.regions)

    def edge_weight(self, a: str, b: str) -> float:
        if (a, b) in self.weights:
            return self.weights[(a, b)]
        return self.weights[(b, a)]


def grid_world(width: int, height: int, weights: Mapping | None = None) -> World:
    """4-connected grid with unit weights unless overridden.

    An override may name an edge in either orientation.
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
    if weights:
        for (a, b), value in weights.items():
            wmap[(b, a) if (b, a) in wmap else (a, b)] = value
    coords = {f"q{x}_{y}": (x, y) for y in range(height) for x in range(width)}
    return World(regions, tuple(edges), wmap, coords)


@dataclass(frozen=True)
class Robot:
    robot_id: int
    capabilities: FrozenSet[str]
    start: str


@dataclass(frozen=True)
class Fleet:
    capabilities: Tuple[str, ...]
    robots: Tuple[Robot, ...]

    def __post_init__(self):
        for robot in self.robots:
            if not robot.capabilities:
                raise ScenarioError(f"robot {robot.robot_id} has no capability")
            unknown = robot.capabilities - set(self.capabilities)
            if unknown:
                raise ScenarioError(f"robot {robot.robot_id} has unknown capabilities {sorted(unknown)}")

    def robot(self, robot_id: int) -> Robot:
        for robot in self.robots:
            if robot.robot_id == robot_id:
                return robot
        raise ScenarioError(f"unknown robot {robot_id}")

    def with_capability(self, capability: str) -> FrozenSet[int]:
        return frozenset(r.robot_id for r in self.robots if capability in r.capabilities)

    def robot_ids(self) -> Tuple[int, ...]:
        return tuple(r.robot_id for r in self.robots)


@dataclass(frozen=True)
class TaskReq:
    """A task: its proposition, region, and per-capability robot counts.

    Individual tasks carry their owner and exactly one requirement of count
    one; collaborative tasks have ``owner is None``.
    """

    prop: str
    region: str
    requirements: Mapping[str, int]
    owner: Optional[int] = None

    @property
    def collaborative(self) -> bool:
        return self.owner is None

    def __post_init__(self):
        if not self.requirements:
            raise ScenarioError(f"task {self.prop} requires no capability")
        for cap, count in self.requirements.items():
            if count < 1:
                raise ScenarioError(f"task {self.prop} has non-positive count for {cap}")
        if self.owner is not None:
            counts = list(self.requirements.values())
            if len(counts) != 1 or counts[0] != 1:
                raise ScenarioError(f"individual task {self.prop} must need exactly one robot")


@dataclass(frozen=True)
class Wts:
    """A robot's weighted transition system over the shared region graph."""

    robot_id: int
    states: Tuple[str, ...]
    initial: str
    adjacency: Mapping[str, Tuple[Tuple[str, float], ...]]
    labels: Mapping[str, FrozenSet[str]]

    def label(self, region: str) -> FrozenSet[str]:
        return self.labels.get(region, frozenset())

    def weight(self, a: str, b: str) -> float:
        for succ, w in self.adjacency[a]:
            if succ == b:
                return w
        raise Unreachable(f"no edge {a}->{b} in robot {self.robot_id}'s transition system")

    def min_edge_weight(self) -> float:
        return min(w for succs in self.adjacency.values() for _, w in succs)


def build_wts(world: World, fleet: Fleet, tasks: Sequence[TaskReq], robot_id: int) -> Wts:
    """Construct a robot's transition system with task labeling.

    The robot sees its own individual task propositions and the proposition
    of every collaborative task it could contribute a required capability to.
    """
    robot = fleet.robot(robot_id)
    if robot.start not in set(world.regions):
        raise ScenarioError(f"robot {robot_id} starts on unknown region {robot.start}")
    labels: Dict[str, set] = {}
    for task in tasks:
        if task.region not in set(world.regions):
            raise ScenarioError(f"task {task.prop} placed on unknown region {task.region}")
        if task.collaborative:
            capable = any(robot_id in fleet.with_capability(c) for c in task.requirements)
            if capable:
                labels.setdefault(task.region, set()).add(task.prop)
        elif task.owner == robot_id:
            labels.setdefault(task.region, set()).add(task.prop)
    adjacency: Dict[str, list] = {r: [] for r in world.regions}
    for a, b in world.edges:
        w = world.edge_weight(a, b)
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    adjacency = {r: tuple(sorted(set(succs))) for r, succs in adjacency.items()}
    frozen_labels = {r: frozenset(props) for r, props in labels.items()}
    return Wts(robot_id, world.regions, robot.start, adjacency, frozen_labels)
