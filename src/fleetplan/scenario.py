"""Scenario files: schema, validation, and seeded random generation.

A scenario bundles the world graph, the fleet, individual and collaborative
tasks with their formulas, and run options.  The JSON schema is versioned;
serialization is canonical (sorted keys) so identical seeds produce
byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ScenarioError
from .ltl import Formula, atoms_of, parse_formula
from .world import Fleet, Robot, TaskReq, World, grid_world

SCHEMA_VERSION = 1


@dataclass
class Options:
    seed: int = 0
    adjust: bool = True
    oracle: bool = False
    max_assignments: Optional[int] = None
    budget_seconds: Optional[float] = None
    comm_pairs: object = "none"  # "none" | "all" | explicit [k, m] list
    state_cap: int = 20_000
    combination_cap: int = 10_000_000
    shuffle_candidates: bool = False

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "adjust": self.adjust,
            "oracle": self.oracle,
            "maxAssignments": self.max_assignments,
            "budgetSeconds": self.budget_seconds,
            "commPairs": self.comm_pairs,
            "stateCap": self.state_cap,
            "combinationCap": self.combination_cap,
            "shuffleCandidates": self.shuffle_candidates,
        }

    @staticmethod
    def from_json(data: Mapping) -> "Options":
        return Options(
            seed=data.get("seed", 0),
            adjust=data.get("adjust", True),
            oracle=data.get("oracle", False),
            max_assignments=data.get("maxAssignments"),
            budget_seconds=data.get("budgetSeconds"),
            comm_pairs=data.get("commPairs", "none"),
            state_cap=data.get("stateCap", 20_000),
            combination_cap=data.get("combinationCap", 10_000_000),
            shuffle_candidates=data.get("shuffleCandidates", False),
        )


@dataclass
class Scenario:
    name: str
    world: World
    fleet: Fleet
    tasks: Tuple[TaskReq, ...]
    individual_formulas: Dict[int, str]
    collaborative_formula: str
    options: Options = field(default_factory=Options)
    grid: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        self.validate()

    def collaborative_tasks(self) -> Tuple[TaskReq, ...]:
        return tuple(t for t in self.tasks if t.collaborative)

    def parsed_individual(self, robot: int) -> Formula:
        return parse_formula(self.individual_formulas.get(robot, "true"))

    def parsed_collaborative(self) -> Formula:
        return parse_formula(self.collaborative_formula)

    def validate(self):
        regions = set(self.world.regions)
        props = set()
        for task in self.tasks:
            if task.prop in props:
                raise ScenarioError(f"duplicate task proposition {task.prop!r}")
            props.add(task.prop)
            if task.region not in regions:
                raise ScenarioError(f"task {task.prop} on unknown region {task.region}")
            if task.owner is not None:
                owner = self.fleet.robot(task.owner)
                cap = next(iter(task.requirements))
                if cap not in owner.capabilities:
                    raise ScenarioError(
                        f"robot {task.owner} lacks capability {cap} for task {task.prop}")
        collab = {t.prop for t in self.tasks if t.collaborative}
        used = atoms_of(self.parsed_collaborative())
        if not used <= collab:
            raise ScenarioError(
                f"collaborative formula references unknown tasks {sorted(used - collab)}")
        for robot in self.fleet.robot_ids():
            mine = {t.prop for t in self.tasks if t.owner == robot}
            used = atoms_of(self.parsed_individual(robot))
            if not used <= mine:
                raise ScenarioError(
                    f"robot {robot}'s formula references tasks it does not own: "
                    f"{sorted(used - mine)}")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        world: dict
        if self.grid is not None:
            width, height = self.grid
            world = {"grid": {"width": width, "height": height}}
            overrides = [
                [a, b, w] for (a, b), w in sorted(self.world.weights.items()) if w != 1
            ]
            if overrides:
                world["weights"] = overrides
        else:
            world = {
                "regions": list(self.world.regions),
                "edges": [[a, b, self.world.edge_weight(a, b)] for a, b in self.world.edges],
            }
        return {
            "schemaVersion": SCHEMA_VERSION,
            "name": self.name,
            "world": world,
            "capabilities": list(self.fleet.capabilities),
            "robots": [
                {"id": r.robot_id, "capabilities": sorted(r.capabilities), "start": r.start}
                for r in self.fleet.robots
            ],
            "individualTasks": [
                {"prop": t.prop, "region": t.region, "owner": t.owner,
                 "capability": next(iter(t.requirements))}
                for t in self.tasks if not t.collaborative
            ],
            "individualFormulas": {str(r): f for r, f in sorted(self.individual_formulas.items())},
            "collaborativeTasks": [
                {"prop": t.prop, "region": t.region,
                 "requirements": dict(sorted(t.requirements.items()))}
                for t in self.tasks if t.collaborative
            ],
            "collaborativeFormula": self.collaborative_formula,
            "options": self.options.to_json(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def from_json(data: Mapping) -> "Scenario":
        if data.get("schemaVersion") != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schemaVersion {data.get('schemaVersion')!r}")
        wspec = data["world"]
        grid = None
        if "grid" in wspec:
            width = wspec["grid"]["width"]
            height = wspec["grid"]["height"]
            grid = (width, height)
            overrides = {(a, b): w for a, b, w in wspec.get("weights", [])}
            world = grid_world(width, height, overrides)
        else:
            weights = {(a, b): w for a, b, w in wspec["edges"]}
            edges = tuple((a, b) for a, b, _w in wspec["edges"])
            world = World(tuple(wspec["regions"]), edges, weights)
        fleet = Fleet(
            tuple(data["capabilities"]),
            tuple(
                Robot(r["id"], frozenset(r["capabilities"]), r["start"])
                for r in data["robots"]
            ),
        )
        tasks: List[TaskReq] = []
        for t in data.get("individualTasks", []):
            cap = t.get("capability")
            if cap is None:
                cap = sorted(fleet.robot(t["owner"]).capabilities)[0]
            tasks.append(TaskReq(t["prop"], t["region"], {cap: 1}, owner=t["owner"]))
        for t in data.get("collaborativeTasks", []):
            tasks.append(TaskReq(t["prop"], t["region"], dict(t["requirements"])))
        formulas = {int(r): f for r, f in data.get("individualFormulas", {}).items()}
        return Scenario(
            name=data.get("name", "scenario"),
            world=world,
            fleet=fleet,
            tasks=tuple(tasks),
            individual_formulas=formulas,
            collaborative_formula=data["collaborativeFormula"],
            options=Options.from_json(data.get("options", {})),
            grid=grid,
        )

    @staticmethod
    def load(path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return Scenario.from_json(json.load(fh))


def _collab_formula(props: Sequence[str], template: str) -> str:
    """Collaborative formula templates.

    With four or more tasks the mixed template combines plain eventualities,
    one until-ordering, and one nested chain; smaller task sets get the
    eventualities plus a single ordering constraint.
    """
    evs = [f"(F {p})" for p in props]
    if template == "plain" or len(props) == 1:
        return " & ".join(evs)
    if len(props) >= 4 and template in ("auto", "mixed"):
        parts = [f"(F {props[0]})", f"(F {props[1]})", f"(F {props[3]})",
                 f"(!{props[2]} U {props[1]})", f"(F ({props[3]} & F {props[2]}))"]
        parts.extend(f"(F {p})" for p in props[4:])
        return " & ".join(parts)
    # two or three tasks: eventualities plus one ordering constraint
    parts = list(evs)
    parts.append(f"(!{props[-1]} U {props[0]})")
    return " & ".join(parts)


def generate(seed: int, robots: int, collab: int, grid: Tuple[int, int] = (30, 30),
             individual_per_robot: int = 4, capabilities: Sequence[str] = ("c1", "c2", "c3"),
             template: str = "auto", options: Optional[Options] = None) -> Scenario:
    """Reproducible random scenario on a grid map.

    Starts and task regions occupy distinct cells; collaborative requirements
    are drawn so that no single task exceeds fleet capacity per capability.
    """
    if robots < 1 or collab < 0 or individual_per_robot < 0:
        raise ScenarioError("generator parameters must be positive")
    rng = random.Random(seed)
    width, height = grid
    world = grid_world(width, height)
    cells_needed = robots + collab + robots * individual_per_robot
    if cells_needed > len(world.regions):
        raise ScenarioError(
            f"{cells_needed} distinct cells needed but the grid has {len(world.regions)}")
    cells = rng.sample(world.regions, cells_needed)
    cursor = iter(cells)
    capabilities = tuple(capabilities[: max(1, min(len(capabilities), robots))])
    robot_list = []
    for r in range(robots):
        n_caps = 1 if len(capabilities) == 1 else rng.choice([1, 2])
        caps = frozenset(rng.sample(capabilities, n_caps))
        robot_list.append(Robot(r, caps, next(cursor)))
    # every capability needs at least one holder
    holders = {c for robot in robot_list for c in robot.capabilities}
    missing = [c for c in capabilities if c not in holders]
    for i, cap in enumerate(missing):
        target = robot_list[i % robots]
        robot_list[i % robots] = Robot(
            target.robot_id, target.capabilities | {cap}, target.start)
    fleet = Fleet(capabilities, tuple(robot_list))

    tasks: List[TaskReq] = []
    formulas: Dict[int, str] = {}
    for robot in robot_list:
        own_props = []
        for i in range(individual_per_robot):
            prop = f"ts{i + 1}_r{robot.robot_id}"
            cap = sorted(robot.capabilities)[0]
            tasks.append(TaskReq(prop, next(cursor), {cap: 1}, owner=robot.robot_id))
            own_props.append(prop)
        if own_props:
            parts = [f"(F {p})" for p in own_props]
            if len(own_props) >= 2:
                parts.append(f"(!{own_props[0]} U {own_props[-1]})")
            formulas[robot.robot_id] = " & ".join(parts)

    collab_props = []
    for i in range(collab):
        prop = f"ct{i + 1}"
        n_req = 1 if len(capabilities) == 1 or rng.random() < 0.7 else 2
        chosen = rng.sample(capabilities, n_req)
        requirements = {}
        for cap in chosen:
            limit = len(fleet.with_capability(cap))
            requirements[cap] = 2 if limit >= 2 and rng.random() < 0.25 else 1
        tasks.append(TaskReq(prop, next(cursor), requirements))
        collab_props.append(prop)

    formula = _collab_formula(collab_props, template) if collab_props else "true"
    opts = options or Options(seed=seed)
    return Scenario(
        name=f"random-{seed}-n{robots}-k{collab}-{width}x{height}",
        world=world,
        fleet=fleet,
        tasks=tuple(tasks),
        individual_formulas=formulas,
        collaborative_formula=formula,
        options=opts,
        grid=grid,
    )
