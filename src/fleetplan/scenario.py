"""Scenario files: schema, validation, and seeded random generation.

A scenario bundles the world graph, the fleet, individual and collaborative
tasks with their formulas, and run options.  The JSON schema is versioned;
serialization is canonical (sorted keys) so identical seeds produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ParseError, ScenarioError
from .ltl import DEFAULT_STATE_CAP, Formula, atoms_of, parse_formula
from .milp import DEFAULT_COMBINATION_CAP
from .world import Fleet, Robot, TaskReq, World, grid_world

SCHEMA_VERSION = 1


def _is_bool(value) -> bool:
    return isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_count_or_none(value) -> bool:
    return value is None or _is_count(value)


def _is_budget(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)
                             and 0 <= value < math.inf)


def _is_list(value, item=lambda _v: True) -> bool:
    return isinstance(value, (list, tuple)) and all(map(item, value))


def _is_comm_pairs(value) -> bool:
    return value in (None, "none", "all") or _is_list(
        value, lambda pair: _is_list(pair, _is_count) and len(pair) == 2)


# what a structural scenario key must be -> its rule
KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, Mapping),
    "a list of objects": lambda v: _is_list(v, lambda r: isinstance(r, Mapping)),
    "a list of strings": lambda v: _is_list(v, lambda x: isinstance(x, str)),
    "a list of [a, b, weight] lists": lambda v: _is_list(v, lambda e: _is_list(e) and len(e) == 3
                                                       and all(isinstance(x, str) for x in e[:2])),
    "an object of capability counts": lambda v: isinstance(v, Mapping) and all(
        isinstance(cap, str) and _is_count(count) for cap, count in v.items()),
    "an object of robot ids to formula strings": lambda v: isinstance(v, Mapping) and all(
        str(robot).lstrip("-").isdecimal() and isinstance(text, str) for robot, text in v.items()),
}


def _required(data: Mapping, key: str, kind: str, where: str = ""):
    """``data[key]`` if it is ``kind``; otherwise a ``ScenarioError`` naming the key."""
    if key not in data:
        raise ScenarioError(f"scenario key {where}{key} is missing")
    if not KINDS[kind](data[key]):
        raise ScenarioError(f"scenario key {where}{key} must be {kind}, not {data[key]!r}")
    return data[key]


def _optional(data: Mapping, key: str, kind: str, default, where: str = ""):
    """``data[key]`` checked as ``_required`` does, or ``default`` when it is absent."""
    return _required(data, key, kind, where) if key in data else default


def _parse(text: str, key: str) -> Formula:
    """``text`` parsed; a ``ScenarioError`` naming ``key`` if it does not parse."""
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise ScenarioError(f"{exc} in scenario key {key}") from None


# Options attribute -> (JSON key, rule, what the rule asks); defaults live on Options.__init__
OPTION_KEYS = {
    "adjust": ("adjust", _is_bool, "true or false"),
    "oracle": ("oracle", _is_bool, "true or false"),
    "max_assignments": ("maxAssignments", _is_count_or_none, "null or an integer >= 1"),
    "budget_seconds": ("budgetSeconds", _is_budget, "null or a finite number >= 0"),
    "comm_pairs": ("commPairs", _is_comm_pairs,
                   '"none", null, "all" or a list of [k, m] positive-integer pairs'),
    "state_cap": ("stateCap", _is_count, "an integer >= 1"),
    "combination_cap": ("combinationCap", _is_count, "an integer >= 1"),
}


class Options:
    def __init__(self, adjust: bool = True, oracle: bool = False,
                 max_assignments: Optional[int] = None, budget_seconds: Optional[float] = None,
                 comm_pairs: object = "none", state_cap: int = DEFAULT_STATE_CAP,
                 combination_cap: int = DEFAULT_COMBINATION_CAP):
        self.adjust = adjust
        self.oracle = oracle
        self.max_assignments = max_assignments
        self.budget_seconds = budget_seconds
        self.comm_pairs = comm_pairs  # "none" | None | "all" | explicit [k, m] list
        self.state_cap = state_cap
        self.combination_cap = combination_cap

    def __eq__(self, other):
        return self.to_json() == other.to_json() if type(other) is Options else NotImplemented

    def validate(self):
        """Raise ``ScenarioError`` naming the key of the first malformed option."""
        for name, (key, rule, wanted) in OPTION_KEYS.items():
            value = getattr(self, name)
            if not rule(value):
                raise ScenarioError(f"option {key} must be {wanted}, not {value!r}")

    def to_json(self) -> dict:
        return {key: getattr(self, name) for name, (key, _rule, _wanted) in OPTION_KEYS.items()}

    @staticmethod
    def from_json(data: Mapping) -> "Options":
        if not isinstance(data, Mapping):
            raise ScenarioError(f"options must be an object, not {data!r}")
        # unknown keys are ignored, so files with retired options still load
        return Options(**{name: data[key] for name, (key, _rule, _wanted) in OPTION_KEYS.items()
                          if key in data})


class Scenario:
    def __init__(self, name: str, world: World, fleet: Fleet, tasks: Tuple[TaskReq, ...],
                 individual_formulas: Dict[int, str], collaborative_formula: str,
                 options: Optional[Options] = None, grid: Optional[Tuple[int, int]] = None):
        self.name = name
        self.world = world
        self.fleet = fleet
        self.tasks = tasks
        self.individual_formulas = individual_formulas
        self.collaborative_formula = collaborative_formula
        self.options = Options() if options is None else options
        self.grid = grid
        self.validate()

    def collaborative_tasks(self) -> Tuple[TaskReq, ...]:
        return tuple(t for t in self.tasks if t.collaborative)

    def parsed_individual(self, robot: int) -> Formula:
        return self._individual[robot]

    def parsed_collaborative(self) -> Formula:
        return self._collaborative

    def validate(self):
        """Check the scenario and keep the formula trees it parses."""
        if not self.fleet.robots:
            raise ScenarioError("scenario key robots must list at least one robot")
        props = set()
        for task in self.tasks:
            if task.prop in props:
                raise ScenarioError(f"duplicate task proposition {task.prop!r}")
            props.add(task.prop)
            if task.region not in self.world.rank:
                raise ScenarioError(f"task {task.prop} on unknown region {task.region}")
            unknown = sorted(set(task.requirements) - set(self.fleet.capabilities))
            if unknown:
                raise ScenarioError(f"task {task.prop} requires unknown capability {unknown[0]}")
            if task.owner is not None:
                owner = self.fleet.robot(task.owner)
                cap = next(iter(task.requirements))
                if cap not in owner.capabilities:
                    raise ScenarioError(
                        f"robot {task.owner} lacks capability {cap} for task {task.prop}")
        collab = {t.prop for t in self.tasks if t.collaborative}
        self._collaborative = _parse(self.collaborative_formula, "collaborativeFormula")
        used = atoms_of(self._collaborative)
        if not used <= collab:
            raise ScenarioError(
                f"collaborative formula references unknown tasks {sorted(used - collab)}")
        strangers = sorted(set(self.individual_formulas) - set(self.fleet.robot_ids()))
        if strangers:
            raise ScenarioError(f"scenario key individualFormulas.{strangers[0]} is not a fleet robot")
        self._individual: Dict[int, Formula] = {}
        for robot in self.fleet.robot_ids():
            mine = {t.prop for t in self.tasks if t.owner == robot}
            self._individual[robot] = _parse(self.individual_formulas.get(robot, "true"),
                                             f"individualFormulas.{robot}")
            used = atoms_of(self._individual[robot])
            if not used <= mine:
                raise ScenarioError(
                    f"robot {robot}'s formula references tasks it does not own: "
                    f"{sorted(used - mine)}")
        for r in self.fleet.robots:
            if r.start not in self.world.rank:
                raise ScenarioError(f"robot {r.robot_id} starts on unknown region {r.start}")

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

    @staticmethod
    def from_json(data: Mapping) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ScenarioError(f"a scenario must be an object, not {data!r}")
        if data.get("schemaVersion") != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schemaVersion {data.get('schemaVersion')!r}")
        wspec = _required(data, "world", "an object")
        grid = None
        if "grid" in wspec:
            gspec = _required(wspec, "grid", "an object", "world.")
            grid = tuple(_required(gspec, key, "an integer", "world.grid.")
                         for key in ("width", "height"))
            overrides = {}  # grid_world rejects an edge named in both orientations
            for i, (a, b, w) in enumerate(_optional(
                    wspec, "weights", "a list of [a, b, weight] lists", [], "world.")):
                if (a, b) in overrides:
                    raise ScenarioError(f"scenario key world.weights[{i}] repeats edge ({a}, {b})")
                overrides[(a, b)] = w
            world = grid_world(*grid, overrides)
        else:
            edge_list = _required(wspec, "edges", "a list of [a, b, weight] lists", "world.")
            weights = {(a, b): w for a, b, w in edge_list}
            edges = tuple((a, b) for a, b, _w in edge_list)
            world = World(tuple(_required(wspec, "regions", "a list of strings", "world.")),
                          edges, weights)
        robots = []
        for i, r in enumerate(_required(data, "robots", "a list of objects")):
            where = f"robots[{i}]."
            caps = _required(r, "capabilities", "a list of strings", where)
            robots.append(Robot(_required(r, "id", "an integer", where), frozenset(caps),
                                _required(r, "start", "a string", where)))
        fleet = Fleet(tuple(_required(data, "capabilities", "a list of strings")), tuple(robots))
        tasks: List[TaskReq] = []
        for i, t in enumerate(_optional(data, "individualTasks", "a list of objects", [])):
            where = f"individualTasks[{i}]."
            owner = _required(t, "owner", "an integer", where)
            cap = (_required(t, "capability", "a string", where) if t.get("capability") is not None
                   else sorted(fleet.robot(owner).capabilities)[0])
            tasks.append(TaskReq(_required(t, "prop", "a string", where),
                                 _required(t, "region", "a string", where), {cap: 1}, owner=owner))
        for i, t in enumerate(_optional(data, "collaborativeTasks", "a list of objects", [])):
            where = f"collaborativeTasks[{i}]."
            requirements = _required(t, "requirements", "an object of capability counts", where)
            tasks.append(TaskReq(_required(t, "prop", "a string", where),
                                 _required(t, "region", "a string", where), dict(requirements)))
        formulas = {}
        for key, text in _optional(data, "individualFormulas",
                                   "an object of robot ids to formula strings", {}).items():
            robot = int(key)  # "1", "01" and an Arabic-Indic "1" all name robot 1
            if robot in formulas:
                raise ScenarioError(f"scenario key individualFormulas.{key} repeats robot {robot}")
            formulas[robot] = text
        return Scenario(
            name=data.get("name", "scenario"),
            world=world,
            fleet=fleet,
            tasks=tuple(tasks),
            individual_formulas=formulas,
            collaborative_formula=_required(data, "collaborativeFormula", "a string"),
            options=Options.from_json(data.get("options", {})),
            grid=grid,
        )

    @staticmethod
    def load(path) -> "Scenario":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
        return Scenario.from_json(data)


def _collab_formula(props: Sequence[str]) -> str:
    """The generated collaborative formula over ``props``.

    With four or more tasks it combines plain eventualities, one until-ordering
    and one nested chain; two or three get the eventualities plus a single
    ordering constraint, and one task its eventuality alone.
    """
    evs = [f"(F {p})" for p in props]
    if len(props) == 1:
        return " & ".join(evs)
    if len(props) >= 4:
        parts = [f"(F {props[0]})", f"(F {props[1]})", f"(F {props[3]})",
                 f"(!{props[2]} U {props[1]})", f"(F ({props[3]} & F {props[2]}))"]
        parts.extend(f"(F {p})" for p in props[4:])
        return " & ".join(parts)
    # two or three tasks: eventualities plus one ordering constraint
    parts = list(evs)
    parts.append(f"(!{props[-1]} U {props[0]})")
    return " & ".join(parts)


CAPABILITIES = ("c1", "c2", "c3")  # the capabilities a generated fleet draws from


def generate(seed: int, robots: int, collab: int, grid: Tuple[int, int] = (30, 30),
             individual_per_robot: int = 4) -> Scenario:
    """Reproducible random scenario on a grid map.

    Starts and task regions occupy distinct cells; collaborative requirements
    are drawn so that no single task exceeds fleet capacity per capability.
    """
    if robots < 1 or collab < 0 or individual_per_robot < 0:
        raise ScenarioError("generate needs robots >= 1, collab >= 0, individual_per_robot >= 0")
    width, height = grid
    if width < 1 or height < 1:
        raise ScenarioError(f"grid {width}x{height} must be at least 1x1")
    rng = random.Random(seed)
    world = grid_world(width, height)
    cells_needed = robots + collab + robots * individual_per_robot
    if cells_needed > len(world.regions):
        raise ScenarioError(
            f"{cells_needed} distinct cells needed but the grid has {len(world.regions)}")
    cells = rng.sample(world.regions, cells_needed)
    cursor = iter(cells)
    capabilities = CAPABILITIES[:robots]
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

    formula = _collab_formula(collab_props) if collab_props else "true"
    return Scenario(
        name=f"random-{seed}-n{robots}-k{collab}-{width}x{height}",
        world=world,
        fleet=fleet,
        tasks=tuple(tasks),
        individual_formulas=formulas,
        collaborative_formula=formula,
        grid=grid,
    )
