"""The planner's record classes: what callers compare, hash and write, and a lean import."""

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

from fleetplan.framework import METRIC_COLUMNS, AssignmentRow, RunReport, write_metrics_csv
from fleetplan.ltl import DEFAULT_STATE_CAP
from fleetplan.milp import DEFAULT_COMBINATION_CAP
from fleetplan.scenario import Options, generate
from fleetplan.schedule import CostReport, Timeline

from oracles import FALSE_GUARD, TRUE_GUARD, Guard

LOAD_AND_LIST_MODULES = """
import sys
import fleetplan
fleetplan.Scenario.load(sys.argv[1])
print(" ".join(sorted(sys.modules)))
"""


def test_importing_the_planner_and_loading_a_scenario_loads_no_dataclasses(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(generate(seed=3, robots=2, collab=2, grid=(5, 5),
                             individual_per_robot=2).dumps(), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", LOAD_AND_LIST_MODULES, str(path)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": pythonpath})
    assert result.returncode == 0, result.stderr
    modules = set(result.stdout.split())
    assert "fleetplan.scenario" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_the_planner_imports_only_the_standard_library():
    package = Path(__file__).resolve().parents[1] / "src" / "fleetplan"
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"fleetplan"}]
    assert not outside


def test_guards_compare_and_hash_by_cubes():
    cubes = [(frozenset({"a"}), frozenset()), (frozenset(), frozenset({"b"}))]
    one, two = Guard(tuple(cubes)), Guard(tuple(list(cubes)))
    assert one == two and hash(one) == hash(two) and len({one, two}) == 1
    assert one != Guard(tuple(cubes[:1]))
    assert Guard(((frozenset(), frozenset()),)) == TRUE_GUARD
    assert Guard(()) == FALSE_GUARD != TRUE_GUARD
    assert {TRUE_GUARD: 1}[Guard(((frozenset(), frozenset()),))] == 1


def test_timelines_and_cost_reports_compare_by_fields():
    timeline = Timeline(0, {(1, 1): 2.0}, 3.0, (4, 5, 6))
    assert timeline == Timeline(0, {(1, 1): 2.0}, 3.0, (4, 5, 6))
    assert timeline != Timeline(1, {(1, 1): 2.0}, 3.0, (4, 5, 6))
    assert timeline != Timeline(0, {(1, 1): 2.5}, 3.0, (4, 5, 6))
    assert timeline != Timeline(0, {(1, 1): 2.0}, 4.0, (4, 5, 6))
    assert timeline != Timeline(0, {(1, 1): 2.0}, 3.0, (4, 7, 6))
    assert timeline != Timeline(0, {(1, 1): 2.0}, 3.0, None)
    fields = ({(1, 1): 2.0}, {0: 1.0}, {0: 4.0}, 4.0)
    assert CostReport(*fields) == CostReport(*fields)
    for i in range(len(fields)):
        changed = list(fields)
        changed[i] = {} if i < 3 else 5.0
        assert CostReport(*changed) != CostReport(*fields)


def test_options_defaults_equality_and_mutability():
    opts = Options()
    assert (opts.adjust, opts.oracle, opts.max_assignments, opts.budget_seconds,
            opts.comm_pairs, opts.state_cap, opts.combination_cap) == (
        True, False, None, None, "none", DEFAULT_STATE_CAP, DEFAULT_COMBINATION_CAP)
    assert opts == Options()
    opts.oracle = True
    opts.max_assignments = 4
    assert opts != Options()
    assert opts == Options(oracle=True, max_assignments=4)


def test_metrics_row_of_a_default_assignment_row(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(RunReport("sc", None, [AssignmentRow(index=0, status="evaluated")],
                                None, "unsat"), path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert header == METRIC_COLUMNS
    assert dict(zip(header, row)) == {
        "assignment": "0", "status": "evaluated", "detail": "", "t_init": "",
        "t_adjusted": "", "oracle_j": "", "cycles": "0", "messages": "0",
        "product_states": "0", "max_level_width": "0", "product_edges": "0",
        "sim_matches": "", "collab_accepted": "", "locals_accepted": "",
        "element_sync_ok": "", "element_order_ok": "", "wall_prune_avg": "0.000000",
        "wall_adjust": "0.000000", "wall_oracle": "0.000000"}
