"""Benchmark workloads: seeded scenario files generated from templates.

Each workload takes the structure of its scenarios from ``fleetplan.generate``
(fleet capabilities, task requirements and formulas) at a list of template
seeds, and the benchmark seed places robot starts and task regions on the
workload's grid.  The last ``held_out`` template seeds also move with the
benchmark seed, from ``t`` to ``t + seed * held_out``, so another seed gives
new fleets and formulas there: a held-out set for allocation, translation and
mission decomposition, not only for the geometry.

Only part of one workload moves, because how much work a structure takes
varies far more than a run may: one pass of ``synth-enum`` took 0.6 to 7.4 s
over six template seeds, one of ``alloc-oracle`` 5.8 to 138 s, and the sum
of ``enum-sweep`` moved by a quarter when all 60 of its fleets moved, so
six of them move there.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    template_seeds: Sequence[int]
    robots: int
    collab: int
    individual: int
    template_grid: Tuple[int, int]
    grid: Tuple[int, int]
    oracle: bool
    max_assignments: int
    combination_cap: Optional[int] = None
    held_out: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-enum",
            template_seeds=(7,), robots=5, collab=4, individual=4,
            template_grid=(20, 20), grid=(10, 10), oracle=False, max_assignments=12),
        Workload(
            name="alloc-oracle",
            template_seeds=tuple(range(6001, 6011)), robots=10, collab=6, individual=2,
            template_grid=(20, 20), grid=(8, 8), oracle=True, max_assignments=1),
        Workload(
            name="enum-sweep",
            template_seeds=tuple(range(1000, 1060)), robots=4, collab=3, individual=2,
            template_grid=(6, 6), grid=(6, 6), oracle=True, max_assignments=96,
            combination_cap=100_000, held_out=6),
    )
}


def scenario_json(workload: Workload, template_seed: int, seed: int) -> dict:
    """The scenario ``generate`` gives at ``template_seed``, placed on the
    workload grid by ``seed``."""
    from fleetplan import generate

    data = generate(seed=template_seed, robots=workload.robots, collab=workload.collab,
                    grid=workload.template_grid,
                    individual_per_robot=workload.individual).to_json()
    width, height = workload.grid
    data["name"] = f"{workload.name}-t{template_seed}-s{seed}"
    data["world"] = {"grid": {"width": width, "height": height}}
    placed = data["robots"] + data["individualTasks"] + data["collaborativeTasks"]
    rng = random.Random(seed * 1_000_003 + template_seed)
    cells = rng.sample([f"q{x}_{y}" for y in range(height) for x in range(width)], len(placed))
    for item, cell in zip(placed, cells):
        item["start" if "start" in item else "region"] = cell
    options = data["options"]
    options.update(adjust=True, oracle=workload.oracle, maxAssignments=workload.max_assignments)
    if workload.combination_cap is not None:
        options["combinationCap"] = workload.combination_cap
    return data


def write_scenarios(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    """Write one validated scenario file per template; return their paths."""
    from fleetplan import Scenario

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    fixed = len(workload.template_seeds) - workload.held_out
    for index, template_seed in enumerate(workload.template_seeds):
        if index >= fixed:
            template_seed += seed * workload.held_out
        data = scenario_json(workload, template_seed, seed)
        Scenario.from_json(data)
        path = out_dir / f"{data['name']}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths
