"""Scenario round-trips, the outer loop, report files, and the CLI."""

import ast
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fleetplan import framework, scenario as scenario_module
from fleetplan.alloc import next_assignment
from fleetplan.cli import main as cli_main
from fleetplan.errors import BudgetExceeded, InfeasibleMission, ScenarioError
from fleetplan.framework import WALL_COLUMNS, run_framework, write_reports
from fleetplan.ltl import MAX_NESTING
from fleetplan.milp import build_milp, emit_lp
from fleetplan.scenario import Scenario, generate


def small_scenario(seed=3, **kwargs):
    params = dict(seed=seed, robots=2, collab=2, grid=(5, 5), individual_per_robot=2)
    params.update(kwargs)
    return generate(**params)


def test_generate_is_deterministic():
    a = generate(seed=11, robots=2, collab=4, grid=(8, 8)).dumps()
    b = generate(seed=11, robots=2, collab=4, grid=(8, 8)).dumps()
    assert a == b
    c = generate(seed=12, robots=2, collab=4, grid=(8, 8)).dumps()
    assert a != c


def test_generate_matches_requested_shape():
    sc = generate(seed=0, robots=2, collab=4, grid=(30, 30))
    assert len(sc.fleet.robots) == 2
    assert len(sc.collaborative_tasks()) == 4
    assert len(sc.world.regions) == 900
    # requirements never exceed per-capability fleet capacity
    for task in sc.collaborative_tasks():
        for cap, count in task.requirements.items():
            assert count <= len(sc.fleet.with_capability(cap))


def test_generate_rejects_overfull_grid():
    with pytest.raises(ScenarioError):
        generate(seed=0, robots=3, collab=3, grid=(2, 2))


@pytest.mark.parametrize("grid", [(0, 5), (5, 0), (-1, 3)])
def test_generate_rejects_empty_grid(grid, capsys):
    name = f"grid {grid[0]}x{grid[1]} "
    with pytest.raises(ScenarioError, match=name):
        generate(seed=0, robots=1, collab=0, grid=grid)
    assert cli_main(["generate", "--robots", "1", "--collab", "0",
                     "--grid", str(grid[0]), str(grid[1])]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name}")


@pytest.mark.parametrize("params", [dict(robots=0), dict(collab=-1), dict(individual_per_robot=-1)])
def test_generate_parameter_error_states_the_allowed_ranges(params):
    args = dict(seed=0, robots=2, collab=0, grid=(5, 5), individual_per_robot=0)
    with pytest.raises(ScenarioError) as exc:
        generate(**dict(args, **params))
    assert "positive" not in str(exc.value) and "collab >= 0" in str(exc.value)
    generate(**args)  # zero collaborative and individual tasks are allowed


def test_scenario_round_trip(tmp_path):
    sc = small_scenario()
    path = tmp_path / "scenario.json"
    path.write_text(sc.dumps(), encoding="utf-8")
    loaded = Scenario.load(path)
    assert loaded.dumps() == sc.dumps()


def test_scenario_rejects_foreign_formula_atoms():
    sc = small_scenario()
    data = json.loads(sc.dumps())
    data["collaborativeFormula"] = "F nosuch"
    with pytest.raises(ScenarioError):
        Scenario.from_json(data)


def test_scenario_rejects_an_unknown_robot_start_at_load():
    data = json.loads(small_scenario().dumps())
    data["robots"][1]["start"] = "q9_9"
    robot = data["robots"][1]["id"]
    with pytest.raises(ScenarioError, match=f"robot {robot} starts on unknown region q9_9"):
        Scenario.from_json(data)


def test_one_region_world_plans_through_the_protocol():
    # no edges, so the protocol's cycle bound divides by a least weight of inf
    data = {"schemaVersion": 1, "world": {"grid": {"width": 1, "height": 1}},
            "capabilities": ["c1"], "robots": [{"id": 0, "capabilities": ["c1"], "start": "q0_0"}],
            "collaborativeTasks": [{"prop": "ct1", "region": "q0_0", "requirements": {"c1": 1}}],
            "collaborativeFormula": "F ct1"}
    report = run_framework(Scenario.from_json(data))
    assert [row.status for row in report.rows] == ["evaluated"]


def test_planning_parses_no_formula_after_load(monkeypatch):
    sc = small_scenario()
    calls = []
    real = scenario_module.parse_formula
    monkeypatch.setattr(scenario_module, "parse_formula",
                        lambda text: calls.append(text) or real(text))
    run_framework(sc)
    assert calls == []


@pytest.mark.parametrize("formula", ["F ct1 & F ct2", "F ct1 | F ct2"])
def test_task_requiring_an_unknown_capability_exits_1_naming_it(tmp_path, capsys, formula):
    data = {"schemaVersion": 1, "world": {"grid": {"width": 4, "height": 4}},
            "capabilities": ["c1"],
            "robots": [{"id": 0, "capabilities": ["c1"], "start": "q0_0"},
                       {"id": 1, "capabilities": ["c1"], "start": "q3_3"}],
            "collaborativeTasks": [{"prop": "ct1", "region": "q1_1", "requirements": {"cl": 1}},
                                   {"prop": "ct2", "region": "q2_2", "requirements": {"c1": 2}}],
            "collaborativeFormula": formula}
    with pytest.raises(ScenarioError, match="^task ct1 requires unknown capability cl$"):
        Scenario.from_json(data)
    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(json.dumps(data))
    assert cli_main(["plan", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: task ct1 requires unknown capability cl\n"
    assert not (tmp_path / "o").exists()


def test_scenario_rejects_unknown_schema_version():
    data = json.loads(small_scenario().dumps())
    data["schemaVersion"] = 99
    with pytest.raises(ScenarioError):
        Scenario.from_json(data)


MISSING = object()


def edited_scenario(explicit_world, path, value):
    """``small_scenario``'s JSON, its world as regions and edges if asked, with the
    key at ``path`` set to ``value`` (deleted if MISSING; the whole scenario if
    ``path`` is empty)."""
    sc = small_scenario()
    if explicit_world:
        sc.grid = None
    data = sc.to_json()
    if not path:
        return value
    *parents, last = path
    target = data
    for step in parents:
        target = target[step]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return data


MALFORMED_STRUCTURE = [  # (key, world as regions and edges, path to edit, new value)
    ("world", False, ["world"], MISSING),
    ("world.grid.width", False, ["world", "grid", "width"], "5"),
    ("world.grid.height", False, ["world", "grid", "height"], MISSING),
    ("world.regions", True, ["world", "regions"], MISSING),
    ("world.edges", True, ["world", "edges"], [["q0_0", "q1_0"]]),
    ("capabilities", False, ["capabilities"], "c1"),
    ("robots[1].id", False, ["robots", 1, "id"], "1"),
    ("robots[0].capabilities", False, ["robots", 0, "capabilities"], MISSING),
    ("robots[0].start", False, ["robots", 0, "start"], 3),
    ("collaborativeFormula", False, ["collaborativeFormula"], MISSING),
    ("collaborativeTasks[0].region", False, ["collaborativeTasks", 0, "region"], MISSING),
    ("world.weights", False, ["world", "weights"], [["q0_0", "q1_0"]]),
    ("world.weights[1]", False, ["world", "weights"],
     [["q0_0", "q1_0", 2], ["q1_0", "q0_0", 5]]),
    ("world.weights[2]", False, ["world", "weights"],
     [["q0_0", "q1_0", 2], ["q1_1", "q1_2", 3], ["q0_0", "q1_0", 5]]),
    ("individualFormulas", False, ["individualFormulas", "x"], "true"),
    ("individualFormulas.99", False, ["individualFormulas", "99"], "F nosuch & G"),
    ("individualFormulas.01", False, ["individualFormulas", "01"], "true"),  # robot 1 again
    ("individualFormulas.\u0661", False, ["individualFormulas", "\u0661"], "true"),  # Arabic-Indic 1
    ("collaborativeTasks[0].requirements", False, ["collaborativeTasks", 0, "requirements"],
     ["c1"]),
    ("world.regions[1]", True, ["world", "regions", 1], "q0_0"),
    ("world.edges[1]", True, ["world", "edges", 1], ["q1_0", "q0_0", 5]),
    ("robots[1]", False, ["robots", 1, "id"], 0),
]


@pytest.mark.parametrize("key, explicit_world, path, value", MALFORMED_STRUCTURE,
                         ids=[case[0] for case in MALFORMED_STRUCTURE])
def test_malformed_structural_key_exits_1_naming_it(tmp_path, capsys, key, explicit_world,
                                                    path, value):
    data = edited_scenario(explicit_world, path, value)
    with pytest.raises(ScenarioError, match=re.escape(f"scenario key {key} ")):
        Scenario.from_json(data)
    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(json.dumps(data))
    assert cli_main(["plan", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario key {key} ") and err.count("\n") == 1


INVALID_SCENARIO = [  # (id, world as regions and edges, path to edit, new value, message)
    ("duplicate-prop", False, ["collaborativeTasks", 1, "prop"], "ct1",
     "duplicate task proposition 'ct1'"),
    ("task-on-unknown-region", False, ["collaborativeTasks", 0, "region"], "q9_9",
     "task ct1 on unknown region q9_9"),
    ("owner-lacks-capability", False, ["individualTasks", 0, "capability"], "c1",
     "robot 0 lacks capability c1 for task ts1_r0"),
    ("formula-names-another-robots-task", False, ["individualFormulas", "0"], "F ts1_r1",
     "robot 0's formula references tasks it does not own: ['ts1_r1']"),
    ("not-an-object", False, [], ["robots"], "a scenario must be an object, not ['robots']"),
    ("edge-to-unknown-region", True, ["world", "edges", 0], ["q0_0", "zz", 1],
     "edge (q0_0, zz) references unknown region"),
    ("robot-without-capability", False, ["robots", 0, "capabilities"], [],
     "robot 0 has no capability"),
    ("robot-with-unknown-capability", False, ["robots", 0, "capabilities"], ["c9"],
     "robot 0 has unknown capabilities ['c9']"),
    ("task-owned-by-no-robot", False, ["individualTasks", 0, "owner"], 99, "unknown robot 99"),
    ("task-requiring-nothing", False, ["collaborativeTasks", 0, "requirements"], {},
     "task ct1 requires no capability"),
]


@pytest.mark.parametrize("explicit_world, path, value, message",
                         [case[1:] for case in INVALID_SCENARIO],
                         ids=[case[0] for case in INVALID_SCENARIO])
def test_invalid_scenario_exits_1_with_its_message(tmp_path, capsys, explicit_world, path,
                                                   value, message):
    data = edited_scenario(explicit_world, path, value)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        Scenario.from_json(data)
    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(json.dumps(data))
    assert cli_main(["plan", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_empty_fleet_exits_1_with_one_error_line(tmp_path, capsys):
    data = small_scenario().to_json()
    data.update(robots=[], individualTasks=[], individualFormulas={}, collaborativeTasks=[],
                collaborativeFormula="true")
    with pytest.raises(ScenarioError, match=re.escape("scenario key robots ")):
        Scenario.from_json(data)
    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(json.dumps(data))
    assert cli_main(["plan", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario key robots ") and err.count("\n") == 1


def test_deeply_nested_formula_exits_1_with_one_error_line(tmp_path, capsys):
    """A formula nested past the parser's limit is refused by a ParseError, not
    by a RecursionError traceback."""
    data = generate(seed=1, robots=2, collab=2, grid=(4, 4), individual_per_robot=1).to_json()
    robot = sorted(data["individualFormulas"])[0]
    data["individualFormulas"][robot] = ("F (a & " * 300 + "F a" + ")" * 300
                                         + " & " + data["individualFormulas"][robot])
    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(json.dumps(data))
    assert cli_main(["plan", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: formula nests deeper than {MAX_NESTING} levels")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["collaborativeFormula", "individualFormulas"])
def test_unparsable_formula_exits_1_naming_its_scenario_key(tmp_path, capsys, key):
    data = generate(seed=1, robots=2, collab=2, grid=(4, 4), individual_per_robot=1).to_json()
    if key == "collaborativeFormula":
        data[key] += " &"
        where = key
    else:
        data[key]["1"] = "F (" + data[key]["1"]
        where = f"{key}.1"
    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(json.dumps(data))
    assert cli_main(["plan", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unexpected end of formula (at position ")
    assert err.endswith(f") in scenario key {where}\n") and err.count("\n") == 1


def test_framework_single_assignment_is_incumbent():
    sc = small_scenario(seed=21, robots=1, collab=1)
    sc.options.max_assignments = 5
    report = run_framework(sc)
    evaluated = [r for r in report.rows if r.status == "evaluated"]
    assert evaluated
    assert report.incumbent is not None
    assert report.incumbent.total == min(r.t_adjusted for r in evaluated)


def test_framework_filters_supersets_without_synthesis():
    sc = small_scenario(seed=3)
    sc.options.max_assignments = 12
    report = run_framework(sc)
    statuses = [r.status for r in report.rows]
    assert "filtered" in statuses
    for row in report.rows:
        if row.status == "filtered":
            assert row.t_init is None  # no synthesis work recorded


def test_framework_indexes_only_the_assignments_it_evaluates(monkeypatch):
    """A filtered vector is judged on its bits and compared as an int, never indexed."""
    returned = []

    def recording(model, deadline=None):
        returned.append(next_assignment(model, deadline))
        return returned[-1]

    monkeypatch.setattr(framework, "next_assignment", recording)
    sc = small_scenario(seed=3)
    sc.options.max_assignments = 12
    report = run_framework(sc)
    statuses = [r.status for r in report.rows]
    indexed = [a for a in returned if a is not None and "_index" in vars(a)]
    assert statuses.count("filtered") > 0
    assert len(indexed) == statuses.count("evaluated") + statuses.count("infeasible")


def test_framework_infeasible_mission_raises():
    sc = small_scenario(seed=3)
    # demand more robots than exist for every task
    data = json.loads(sc.dumps())
    for t in data["collaborativeTasks"]:
        t["requirements"] = {"c1": 9}
    with pytest.raises(InfeasibleMission):
        run_framework(Scenario.from_json(data))


def test_framework_incumbent_is_minimum_over_rows():
    sc = small_scenario(seed=6)
    sc.options.max_assignments = 10
    report = run_framework(sc)
    totals = [r.t_adjusted for r in report.rows if r.status == "evaluated"]
    if report.incumbent is not None:
        assert report.incumbent.total == min(totals)


# sha256 of the report files of the README scenario (``generate(seed=7, robots=5,
# collab=4, grid=(20, 20))``), ``metrics.csv`` without its wall columns and
# rewritten with "\n" line ends, with the default options (oracle off) and with
# the oracle on, which adds the ``oracle_j`` column and leaves the other files
# as they are.  The oracle-off digests were recorded before the clean-hop
# product search replaced the search over every product state, the oracle-on
# one before the oracle resumed the cost fold at each search node; the digests
# are the same under PYTHONHASHSEED 0, 1 and 12345, and CI runs this test under
# each.  The LP text of the incumbent assignment is pinned too: its column
# order is the one output that follows the order of product states.
README_SCENARIO_LP_DIGEST = "04525ca60dfcb1a3467a5c47b448202944b856f9fcc2eba9c8cbed149bd18124"
README_SCENARIO_DIGESTS = {
    "metrics.csv": "0d945e7f1900f8ca229afe1f3e3b2268e5410549311ad4c51a9fe9d06401d45f",
    "tcolla_series.csv": "7a6f599f1a14173b7c56b13fe76f11d11ddd57f378a227e44c93a7294a034d02",
    "schedule.json": "1a06082930d0ede86c58dac3d7b0fb2d92da6fef3ce095d86303366c5494da1b",
    "protocol_trace.txt": "f8dbde0dc892f50d62019b106e8bd0a0cd9b30e408df3d14c92ae86e5b500863",
}
README_SCENARIO_ORACLE_DIGESTS = {
    **README_SCENARIO_DIGESTS,
    "metrics.csv": "032ac8c20de2ae29d37456ce129cef8c82dc381ba590bb6f928ff7fa0841d877",
}


def test_readme_scenario_reports_match_the_recorded_digests(tmp_path):
    for oracle, expected in ((False, README_SCENARIO_DIGESTS),
                             (True, README_SCENARIO_ORACLE_DIGESTS)):
        scenario = generate(seed=7, robots=5, collab=4, grid=(20, 20))
        scenario.options.oracle = oracle
        report = run_framework(scenario)
        out = tmp_path / f"oracle{int(oracle)}"
        write_reports(report, out)
        plan = report.incumbent
        lp = emit_lp(build_milp(plan.pruned_map, report.mission, plan.assignment))
        assert hashlib.sha256(lp.encode()).hexdigest() == README_SCENARIO_LP_DIGEST
        digests = {}
        for name in expected:
            data = (out / name).read_bytes()
            if name == "metrics.csv":
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(_strip_wall_columns(out / name))
                data = buf.getvalue().encode()
            digests[name] = hashlib.sha256(data).hexdigest()
        assert digests == expected, f"oracle {'on' if oracle else 'off'}"


def test_report_files_round_trip(tmp_path):
    sc = small_scenario(seed=3)
    sc.options.max_assignments = 6
    sc.options.oracle = True
    report = run_framework(sc)
    write_reports(report, tmp_path)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.rows)
    for file_row, row in zip(rows, report.rows):
        assert int(file_row["assignment"]) == row.index
        assert file_row["status"] == row.status
        if row.t_init is not None:
            assert float(file_row["t_init"]) == row.t_init
    schedule = json.loads((tmp_path / "schedule.json").read_text())
    if report.incumbent is not None:
        assert schedule["totalCost"] == report.incumbent.total
        assert set(schedule["robots"]) == {str(r) for r in sc.fleet.robot_ids()}
    series_lines = (tmp_path / "tcolla_series.csv").read_text().strip().splitlines()
    assert series_lines[0] == "assignment,step,total_cost"


def test_metrics_report_element_order(tmp_path):
    sc = small_scenario(seed=3)
    sc.options.max_assignments = 6
    report = run_framework(sc)
    write_reports(report, tmp_path)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = [row for row in reader if row["status"] == "evaluated"]
    assert header.index("element_order_ok") == header.index("element_sync_ok") + 1
    assert rows and all(row["element_order_ok"] == "yes" for row in rows)


def test_budget_hit_inside_allocation_keeps_rows(monkeypatch):
    sc = small_scenario(seed=3)
    sc.options.budget_seconds = 1000.0
    deadlines = []
    real_next = framework.next_assignment

    def next_then_expire(model, deadline=None):
        deadlines.append(deadline)
        if len(deadlines) > 2:
            raise BudgetExceeded("allocation search ran past the deadline")
        return real_next(model, deadline)

    monkeypatch.setattr(framework, "next_assignment", next_then_expire)
    report = run_framework(sc)
    assert report.stopped_because == "budget" and len(report.rows) == 2
    assert all(d is not None and d > time.perf_counter() for d in deadlines)


def enumerating_scenario():
    sc = generate(seed=1, robots=4, collab=3, grid=(6, 6), individual_per_robot=1)
    sc.options.max_assignments = 12
    return sc


def test_one_fold_plan_per_evaluated_assignment(monkeypatch):
    """The adjustment, the oracle and every cost report fold the one plan that
    the framework lays out per evaluated assignment."""
    from fleetplan import schedule

    plans = []
    real_init = schedule.FoldPlan.__init__
    monkeypatch.setattr(schedule.FoldPlan, "__init__",
                        lambda self, *args: plans.append(args) or real_init(self, *args))
    sc = enumerating_scenario()
    sc.options.oracle = True
    report = run_framework(sc)
    evaluated = [r for r in report.rows if r.status == "evaluated"]
    assert len(evaluated) > 1 and all(r.oracle_j is not None and r.cycles for r in evaluated)
    assert len(plans) == len(evaluated)
    assert len({id(assignment) for _mission, assignment in plans}) == len(plans)


def test_budget_hit_between_robots_drops_partial_row(monkeypatch):
    full = run_framework(enumerating_scenario())
    evaluated = [r.index for r in full.rows if r.status == "evaluated"]
    assert len(evaluated) >= 3
    sc = enumerating_scenario()
    sc.options.budget_seconds = 1000.0
    calls = []
    real_check = framework.check_deadline

    def expire_on_third_assignment(deadline):
        # four robots, the protocol and the simulation per evaluated assignment:
        # call 14 is the third one's second robot
        calls.append(deadline)
        real_check(time.perf_counter() - 1.0 if len(calls) == 14 else deadline)

    monkeypatch.setattr(framework, "check_deadline", expire_on_third_assignment)
    report = run_framework(sc)
    assert report.stopped_because == "budget"
    assert [(r.index, r.status, r.t_adjusted) for r in report.rows] == \
        [(r.index, r.status, r.t_adjusted) for r in full.rows[:evaluated[2]]]
    assert report.incumbent is not None and report.incumbent.assignment_index in evaluated[:2]


def test_protocol_overrun_drops_the_row_before_simulation(monkeypatch):
    from types import SimpleNamespace

    from fleetplan import alloc

    full = run_framework(enumerating_scenario())
    evaluated = [r.index for r in full.rows if r.status == "evaluated"]
    sc = enumerating_scenario()
    sc.options.budget_seconds = 1000.0
    protocols, simulations = [], []
    real_protocol, real_simulate = framework.run_protocol, framework.simulate

    def overrunning_protocol(ctx):
        protocols.append(ctx.plan.assignment)
        result = real_protocol(ctx)
        if len(protocols) == 3:  # the third evaluated assignment's protocol overruns
            monkeypatch.setattr(alloc, "time", SimpleNamespace(perf_counter=lambda: math.inf))
        return result

    def counting_simulate(*args):
        simulations.append(args[2])
        return real_simulate(*args)

    monkeypatch.setattr(framework, "run_protocol", overrunning_protocol)
    monkeypatch.setattr(framework, "simulate", counting_simulate)
    report = run_framework(sc)
    assert report.stopped_because == "budget"
    assert [(r.index, r.status, r.t_adjusted) for r in report.rows] == \
        [(r.index, r.status, r.t_adjusted) for r in full.rows[:evaluated[2]]]
    assert len(protocols) == 3 and simulations == protocols[:2]
    assert report.incumbent is not None and report.incumbent.assignment_index in evaluated[:2]


@pytest.mark.parametrize("budget", [math.nan, math.inf, -5.0])
def test_budget_not_finite_and_nonnegative_is_rejected(tmp_path, capsys, budget):
    path = tmp_path / "sc.json"
    path.write_text(small_scenario().dumps())
    assert cli_main(["plan", str(path), "--budget", str(budget), "--out", str(tmp_path / "o")]) == 1
    assert "budget" in capsys.readouterr().err
    data = json.loads(small_scenario().dumps())
    data["options"]["budgetSeconds"] = budget
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "budget" in capsys.readouterr().err


def test_zero_budget_stops_with_budget(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(small_scenario().dumps())
    assert cli_main(["plan", str(path), "--budget", "0", "--out", str(tmp_path / "o")]) == 3
    assert "(budget)" in capsys.readouterr().err
    data = json.loads(small_scenario().dumps())
    data["options"]["budgetSeconds"] = 0
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o2")]) == 3
    assert json.loads((tmp_path / "o2" / "schedule.json").read_text())["stopped"] == "budget"


def test_oracle_budget_hit_is_row_detail(monkeypatch):
    sc = enumerating_scenario()
    sc.options.max_assignments = 1
    sc.options.oracle = True
    real_solve = framework.solve_exact

    def solve_expired(pruned_map, plan, cap, deadline):
        return real_solve(pruned_map, plan, cap, time.perf_counter() - 1.0)

    monkeypatch.setattr(framework, "solve_exact", solve_expired)
    row, = run_framework(sc).rows
    assert (row.status, row.detail, row.oracle_j) == ("evaluated", "oracle skipped: budget", None)
    assert row.t_adjusted is not None and row.sim_matches


def test_empty_report_writes_header_only_csv(tmp_path):
    from fleetplan.framework import RunReport, write_metrics_csv

    report = RunReport("empty", None, [], None, "unsat")
    path = tmp_path / "metrics.csv"
    write_metrics_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("assignment,")


def test_series_is_nonincreasing_per_assignment(tmp_path):
    sc = small_scenario(seed=6)
    sc.options.max_assignments = 10
    report = run_framework(sc)
    for row in report.rows:
        assert all(b <= a for a, b in zip(row.history, row.history[1:]))


def test_filter_safety_logged_not_asserted(capsys):
    """Empirical check: filtered assignments would not have beaten the kept ones.

    The dominance filter is a heuristic; this re-evaluates filtered rows with
    the exact optimizer and logs the comparison instead of asserting it.
    """
    from fleetplan.alloc import Assignment
    from fleetplan.errors import LevelDisconnected, NoAcceptingPath, StateLimitExceeded
    from fleetplan.ltl import to_nfa
    from fleetplan.milp import solve_exact
    from fleetplan.product import build_local_formula, build_product, prune_product
    from fleetplan.schedule import FoldPlan
    from fleetplan.world import build_wts

    sc = small_scenario(seed=6)
    sc.options.max_assignments = 10
    sc.options.oracle = True
    report = run_framework(sc)
    kept = [r.t_adjusted for r in report.rows if r.status == "evaluated"]
    filtered = [r for r in report.rows if r.status == "filtered"]
    if not kept or not filtered or report.mission is None:
        print("FILTER-SAFETY: no filtered rows to compare")
        return
    mission = report.mission
    collab = frozenset(t.prop for t in sc.collaborative_tasks())
    # replay the enumeration to recover the filtered assignment vectors
    from fleetplan.alloc import AllocModel, next_assignment

    model = AllocModel(mission, sc.fleet, sc.collaborative_tasks())
    vectors = []
    for _ in range(len(report.rows)):
        a = next_assignment(model)
        if a is None:
            break
        vectors.append(a)
    filtered_js = []
    for row in filtered:
        assignment = vectors[row.index]
        pruned = {}
        try:
            for r in sc.fleet.robot_ids():
                assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
                wts = build_wts(sc.world, sc.fleet, list(sc.tasks), r)
                phi = build_local_formula(sc.parsed_individual(r), assigned)
                pruned[r] = prune_product(build_product(wts, to_nfa(phi), assigned, collab))
            filtered_js.append(solve_exact(pruned, FoldPlan(mission, assignment)).objective)
        except (NoAcceptingPath, LevelDisconnected, StateLimitExceeded, BudgetExceeded):
            continue
    if filtered_js:
        safe = min(filtered_js) >= min(kept)
        print(f"FILTER-SAFETY: best filtered J {min(filtered_js)} vs best kept "
              f"T {min(kept)} -> {'safe' if safe else 'UNSAFE (heuristic miss)'}")


def test_cli_generate_and_plan_deterministic(tmp_path):
    scenario_path = tmp_path / "sc.json"
    code = cli_main(["generate", "--robots", "2", "--collab", "2",
                     "--grid", "5", "5", "--seed", "9",
                     "--out", str(scenario_path)])
    assert code == 0
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert cli_main(["plan", str(scenario_path), "--max-assignments", "6",
                     "--out", str(out1)]) == 0
    assert cli_main(["plan", str(scenario_path), "--max-assignments", "6",
                     "--out", str(out2)]) == 0
    s1 = (out1 / "schedule.json").read_text()
    s2 = (out2 / "schedule.json").read_text()
    assert s1 == s2
    m1 = _strip_wall_columns(out1 / "metrics.csv")
    m2 = _strip_wall_columns(out2 / "metrics.csv")
    assert m1 == m2


def _strip_wall_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if not name.startswith("wall_")]
    return [[row[i] for i in keep] for row in rows]


def test_cli_exit_code_for_infeasible_mission(tmp_path):
    sc = small_scenario(seed=3)
    data = json.loads(sc.dumps())
    for t in data["collaborativeTasks"]:
        t["requirements"] = {"c1": 9}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 2


def test_cli_emit_lp(tmp_path):
    scenario_path = tmp_path / "sc.json"
    cli_main(["generate", "--robots", "2", "--collab", "1", "--grid", "5", "5",
              "--seed", "4", "--out", str(scenario_path)])
    out = tmp_path / "out"
    lp_dir = tmp_path / "lp"
    code = cli_main(["plan", str(scenario_path), "--max-assignments", "4",
                     "--out", str(out), "--emit-lp", str(lp_dir)])
    assert code == 0
    files = os.listdir(lp_dir)
    assert any(f.endswith(".lp") for f in files)
    text = (lp_dir / files[0]).read_text()
    assert text.startswith("\\ big-M") and text.rstrip().endswith("End")


def test_cli_emit_lp_reuses_the_incumbent_synthesis(tmp_path, monkeypatch):
    import fleetplan.cli
    import fleetplan.product
    from fleetplan.ltl import to_nfa
    from fleetplan.milp import build_milp, emit_lp
    from fleetplan.product import build_local_formula, build_product, prune_product
    from fleetplan.world import build_wts

    scenario_path = tmp_path / "sc.json"
    cli_main(["generate", "--robots", "2", "--collab", "1", "--grid", "5", "5",
              "--seed", "4", "--out", str(scenario_path)])
    reports = []

    def run_then_forbid_synthesis(scenario):
        reports.append(run_framework(scenario))

        def no_build(*_args):
            raise AssertionError("build_product called after run_framework returned")

        monkeypatch.setattr(framework, "build_product", no_build)
        monkeypatch.setattr(fleetplan.product, "build_product", no_build)
        return reports[0]

    monkeypatch.setattr(fleetplan.cli, "run_framework", run_then_forbid_synthesis)
    lp_dir = tmp_path / "lp"
    assert cli_main(["plan", str(scenario_path), "--max-assignments", "4",
                     "--out", str(tmp_path / "out"), "--emit-lp", str(lp_dir)]) == 0
    monkeypatch.undo()

    # reference: the incumbent's automatons synthesized afresh
    sc = Scenario.load(scenario_path)
    report, = reports
    mission, assignment = report.mission, report.incumbent.assignment
    collab = frozenset(t.prop for t in sc.collaborative_tasks())
    pruned = {}
    for r in sorted(sc.fleet.robot_ids()):
        assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
        phi = build_local_formula(sc.parsed_individual(r), assigned)
        wts = build_wts(sc.world, sc.fleet, list(sc.tasks), r)
        pa = build_product(wts, to_nfa(phi, sc.options.state_cap), assigned, collab)
        pruned[r] = prune_product(pa)
    expected = emit_lp(build_milp(pruned, mission, assignment))
    emitted = lp_dir / f"assignment_{report.incumbent.assignment_index}.lp"
    assert os.listdir(lp_dir) == [emitted.name]
    assert emitted.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("content", [small_scenario().dumps()[:200].encode(), b"\xff\xfe{", None],
                         ids=["truncated", "not-utf8", "missing"])
def test_cli_unreadable_scenario_file_exits_1_naming_it(tmp_path, capsys, content):
    path = tmp_path / "sc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ScenarioError, match=re.escape(f"cannot read scenario file {path}: ")):
        Scenario.load(path)
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario file {path}: ")


def _plan_writing_to(tmp_path, *flags):
    path = tmp_path / "sc.json"
    path.write_text(small_scenario().dumps())
    return cli_main(["plan", str(path), "--max-assignments", "2", *flags])


def _one_cannot_write_line(capsys, target):
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1, err


def test_cli_plan_out_onto_a_file_exits_1_with_one_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert _plan_writing_to(tmp_path, "--out", str(taken)) == 1
    _one_cannot_write_line(capsys, taken)


def test_cli_emit_lp_onto_a_file_exits_1_with_one_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert _plan_writing_to(tmp_path, "--out", str(tmp_path / "o"), "--emit-lp", str(taken)) == 1
    _one_cannot_write_line(capsys, taken)


def test_cli_generate_into_a_missing_directory_exits_1_with_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.json"
    assert cli_main(["generate", "--robots", "2", "--collab", "1", "--grid", "5", "5",
                     "--out", str(target)]) == 1
    _one_cannot_write_line(capsys, target)


def test_cli_rejects_zero_weight_with_exit_1(tmp_path, capsys):
    data = json.loads(small_scenario().dumps())
    data["world"]["weights"] = [["q0_0", "q1_0", 0]]
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "weight" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    # run from an unrelated directory, with this checkout's sources on the path
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "fleetplan.cli", "generate", "--robots", "1",
         "--collab", "1", "--grid", "4", "4", "--seed", "1"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert result.returncode == 0
    assert '"schemaVersion": 1' in result.stdout


def _plan_outputs(sc, out_dir):
    """schedule.json and metrics.csv without the wall-clock columns."""
    write_reports(run_framework(sc), out_dir)
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(rows[0]) if col not in WALL_COLUMNS]
    return (out_dir / "schedule.json").read_text(), [[row[i] for i in keep] for row in rows]


def test_synthesis_cache_builds_each_key_once(tmp_path, monkeypatch):
    sc = generate(seed=1, robots=4, collab=3, grid=(6, 6), individual_per_robot=1)
    sc.options.max_assignments = 30
    keys = []
    real_build = framework.build_product

    def counting_build(wts, nfa, assigned, collab_props):
        keys.append((wts.robot_id, tuple(assigned)))
        return real_build(wts, nfa, assigned, collab_props)

    monkeypatch.setattr(framework, "build_product", counting_build)
    cached = _plan_outputs(sc, tmp_path / "cached")
    cached_keys = list(keys)
    assert cached_keys and len(cached_keys) == len(set(cached_keys))

    # reference: every assignment synthesizes its robots from scratch
    real_evaluate = framework._evaluate_assignment

    def fresh_evaluate(scenario, mission, assignment, collab_props, _cache, *rest):
        return real_evaluate(scenario, mission, assignment, collab_props, {}, *rest)

    monkeypatch.setattr(framework, "_evaluate_assignment", fresh_evaluate)
    keys.clear()
    fresh = _plan_outputs(sc, tmp_path / "fresh")
    assert len(keys) > len(cached_keys)
    assert set(keys) == set(cached_keys)
    assert cached == fresh


def test_runs_leave_no_planner_object_to_the_cyclic_collector():
    """A run frees what it made by reference counting.  With the cyclic collector off,
    a run stopped by the assignment cap, one with the oracle on and one where robot 0's
    synthesis fails on the same key twice leave no planner object alive once the
    report is dropped, and none for ``gc.collect()`` to find.  Both checks are needed:
    the collector finalizes a suspended generator, which can free a cycle through it
    without saving it in ``gc.garbage``."""
    capped = generate(seed=7, robots=6, collab=3, grid=(10, 10))
    capped.options.max_assignments = 4
    oracle = generate(seed=7, robots=6, collab=3, grid=(10, 10))
    oracle.options.max_assignments = 4
    oracle.options.oracle = True
    data = json.loads(generate(seed=2, robots=3, collab=2, grid=(5, 5),
                               individual_per_robot=1).dumps())
    data["individualFormulas"]["0"] = "(F ts1_r0) & (G !ts1_r0)"
    failing = Scenario.from_json(data)

    def planner_objects(objects, known=frozenset()):
        return [type(o).__qualname__ for o in objects if id(o) not in known and (
            o.__module__ if isinstance(o, type(run_framework)) else type(o).__module__
        ).startswith("fleetplan")]

    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for sc in (capped, oracle, failing):
            known = frozenset(map(id, gc.get_objects()))
            report = run_framework(sc)
            if sc is capped:
                assert report.stopped_because == "assignment-cap"
            elif sc is oracle:
                assert any(row.oracle_j is not None for row in report.rows)
            else:
                assert [row.status for row in report.rows] == ["infeasible", "infeasible"]
            del report
            assert not planner_objects(gc.get_objects(), known), sc.name
            gc.collect()
            assert not planner_objects(gc.garbage), sc.name
            gc.garbage.clear()
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def test_local_state_limit_becomes_infeasible_row(monkeypatch):
    sc = generate(seed=1, robots=4, collab=3, grid=(6, 6), individual_per_robot=1)
    sc.options.max_assignments = 12
    real_to_nfa = framework.to_nfa
    calls = []

    def capped_to_nfa(phi, state_cap=20_000, memo=None):
        # the collaborative automaton is read on demand: every call is local
        calls.append(phi)
        return real_to_nfa(phi, 1, memo)

    monkeypatch.setattr(framework, "to_nfa", capped_to_nfa)
    report = run_framework(sc)
    synthesized = [r for r in report.rows if r.status != "filtered"]
    assert len(synthesized) > 1
    for row in synthesized:
        assert row.status == "infeasible"
        assert "exceeds 1 states" in row.detail
    assert report.incumbent is None
    # a key whose synthesis failed is remembered, not translated again
    assert len(calls) < len(synthesized)


def test_forbidden_firing_in_simulation_becomes_infeasible_row(tmp_path):
    """Without coordinator pairs, the robot serving only ct3 reaches it while
    ct1 fires, before ct2: the simulation rejects that assignment alone."""
    data = {
        "schemaVersion": 1, "name": "forbidden-firing",
        "world": {"grid": {"width": 4, "height": 4}},
        "capabilities": ["c1"],
        "robots": [{"id": r, "capabilities": ["c1"], "start": f"q{r}_0"} for r in range(3)],
        "collaborativeTasks": [
            {"prop": prop, "region": region, "requirements": {"c1": 1}}
            for prop, region in (("ct1", "q0_3"), ("ct2", "q2_3"), ("ct3", "q3_2"))],
        "collaborativeFormula": "(!ct2 U (ct1 & !ct2)) & (!ct3 U (ct2 & !ct3)) & F ct3",
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert cli_main(["plan", str(path), "--max-assignments", "40", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "metrics.csv", encoding="utf-8")))
    assert len(rows) == 40
    bad = rows[27]
    assert bad["status"] == "infeasible"
    assert bad["detail"] == "proposition 'ct3' fired at t=5.0 while forbidden by element (1, 1)"
    assert bad["t_init"] == bad["t_adjusted"] == ""
    assert bad["messages"] == bad["cycles"] == "0"
    series = list(csv.DictReader(open(out / "tcolla_series.csv", encoding="utf-8")))
    assert all(r["assignment"] != "27" for r in series)
    assert any(r["status"] == "evaluated" for r in rows[28:])
    schedule = json.loads((out / "schedule.json").read_text())
    assert schedule["assignment"] != 27


MALFORMED_OPTIONS = [
    ("maxAssignments", -1), ("maxAssignments", 0), ("maxAssignments", 1.5),
    ("maxAssignments", True), ("stateCap", -5), ("stateCap", None), ("combinationCap", 0),
    ("adjust", "no"), ("oracle", "no"), ("commPairs", "al"), ("commPairs", [[1]]),
    ("commPairs", [[1, 0]]), ("budgetSeconds", "5"),
]


@pytest.mark.parametrize("key, value", MALFORMED_OPTIONS)
def test_malformed_option_exits_1_naming_its_key(tmp_path, capsys, key, value):
    data = json.loads(small_scenario().dumps())
    data["options"][key] = value
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("options", [None, [], "all"])
def test_options_that_are_not_an_object_exit_1(tmp_path, capsys, options):
    data = json.loads(small_scenario().dumps())
    data["options"] = options
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "options must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--max-assignments", "-1", "maxAssignments"),
    ("--max-assignments", "0", "maxAssignments"),
    ("--max-assignments", "1.5", "--max-assignments"),
    ("--max-assignments", "true", "--max-assignments"),
    ("--adjust", "no", "--adjust"),
    ("--oracle", "no", "--oracle"),
])
def test_malformed_option_flag_exits_1_naming_it(tmp_path, capsys, flag, value, named):
    path = tmp_path / "sc.json"
    path.write_text(small_scenario().dumps())
    assert cli_main(["plan", str(path), flag, value, "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    {}, {"commPairs": None}, {"commPairs": "none"}, {"commPairs": "all"},
    {"commPairs": [[1, 1], [2, 3]]}, {"maxAssignments": 1, "budgetSeconds": 1000},
    {"adjust": False, "oracle": True, "stateCap": 5000, "combinationCap": 1000},
])
def test_valid_options_plan(tmp_path, options):
    data = json.loads(small_scenario().dumps())
    data["options"] = options
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 0


def test_options_json_keys_defaults_and_round_trip():
    import inspect

    from fleetplan.scenario import OPTION_KEYS, Options

    assert list(inspect.signature(Options).parameters) == list(OPTION_KEYS)
    assert len(OPTION_KEYS) == 7
    assert sorted(Options().to_json()) == sorted([
        "adjust", "oracle", "maxAssignments", "budgetSeconds", "commPairs", "stateCap",
        "combinationCap"])
    assert Options.from_json({}) == Options()
    changed = Options(adjust=False, oracle=True, max_assignments=3, budget_seconds=2.5,
                      comm_pairs=[[1, 1]], state_cap=7, combination_cap=9)
    assert Options.from_json(json.loads(json.dumps(changed.to_json()))) == changed


def test_retired_option_keys_load_and_plan_identically(tmp_path):
    sc = small_scenario()
    current = tmp_path / "current.json"
    current.write_text(sc.dumps())
    data = json.loads(sc.dumps())
    data["options"].update(seed=3, shuffleCandidates=False)
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps(data))
    assert Scenario.load(retired).dumps() == sc.dumps()
    outputs = []
    for path in (current, retired):
        out = tmp_path / path.stem
        assert cli_main(["plan", str(path), "--max-assignments", "6", "--out", str(out)]) == 0
        outputs.append([_strip_wall_columns(out / "metrics.csv")] + [
            (out / name).read_text()
            for name in ("tcolla_series.csv", "schedule.json", "protocol_trace.txt")])
    assert outputs[0] == outputs[1]


def test_cli_usage_error_exits_1_and_help_exits_0(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(small_scenario().dumps())
    assert cli_main(["plan", str(path), "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert cli_main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert cli_main(["plan", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--max-assignments" in usage and "--seed" not in usage
    assert cli_main(["--help"]) == 0


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_adjust_off_keeps_the_initial_strategies(tmp_path):
    adjusted = run_framework(enumerating_scenario())
    sc = enumerating_scenario()
    sc.options.adjust = False
    report = run_framework(sc)
    evaluated = [r for r in report.rows if r.status == "evaluated"]
    assert evaluated
    assert [r.t_init for r in evaluated] == \
        [r.t_init for r in adjusted.rows if r.status == "evaluated"]
    for row in evaluated:
        assert row.t_adjusted == row.t_init and row.history == [row.t_init]
        assert (row.cycles, row.messages, row.trace_lines) == (0, 0, [])
        assert row.sim_matches
    framework.write_protocol_trace(report, tmp_path / "protocol_trace.txt")
    assert (tmp_path / "protocol_trace.txt").read_text() == ""


def test_planning_builds_no_guard(monkeypatch):
    """Automata step by their labeling tables, and the pruned collaborative
    automaton reads its essential steps, self-loops and steps off them: no
    planner module defines or names a guard, and planning the README scenario
    reads every essential step off the pruned automaton."""
    from fleetplan import ltl

    package = Path(framework.__file__).resolve().parent
    assert not (package / "guards.py").exists()
    guard_names = {"Guard", "FALSE_GUARD", "guard_from_minterms", "guard", "transitions"}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "name", None) for node in ast.walk(tree)}
        names |= {getattr(node, "attr", None) for node in ast.walk(tree)}
        names |= {getattr(node, "id", None) for node in ast.walk(tree)}
        assert not names & guard_names, (path.name, names & guard_names)

    steps, pruned = [], []
    real_step, real_prune = ltl.Nfa.essential_step, framework.prune_nfa
    monkeypatch.setattr(ltl.Nfa, "essential_step",
                        lambda nfa, a, b: steps.append(nfa) or real_step(nfa, a, b))
    monkeypatch.setattr(framework, "prune_nfa",
                        lambda *args: pruned.append(real_prune(*args)) or pruned[-1])
    report = run_framework(generate(seed=7, robots=5, collab=4, grid=(20, 20)))
    monkeypatch.undo()
    assert report.incumbent is not None and len(pruned) == 1 and steps
    assert set(steps) == {pruned[0]} and pruned[0].staffable is not None


def test_every_acceptance_check_goes_through_framework_nfa_accepts(monkeypatch):
    """Per evaluated row, one collaborative check and one local check per robot,
    all through the name the framework imports (which is what a tracer wraps)."""
    calls = []
    real = framework.nfa_accepts

    def counted(nfa, sequence):
        calls.append(nfa)
        return real(nfa, sequence)

    monkeypatch.setattr(framework, "nfa_accepts", counted)
    sc = small_scenario()
    report = run_framework(sc)
    evaluated = [r for r in report.rows if r.status == "evaluated"]
    assert evaluated and all(r.locals_accepted for r in evaluated)
    assert len(calls) == len(evaluated) * (1 + len(sc.fleet.robots))


def _pairs_scenario(comm_pairs):
    """Three single-capability robots and three strictly ordered collaborative tasks,
    so the mission is one subsequence of three elements and pairs (1, 1), (1, 2)."""
    from fleetplan.world import Fleet, Robot, TaskReq, grid_world

    starts = ("q0_1", "q1_2", "q1_3")
    fleet = Fleet(("c1",), tuple(Robot(r, frozenset({"c1"}), s) for r, s in enumerate(starts)))
    tasks = tuple(TaskReq(prop, region, {"c1": 1})
                  for prop, region in (("ct1", "q0_3"), ("ct2", "q1_0"), ("ct3", "q3_3")))
    sc = Scenario("pairs", grid_world(4, 4), fleet, tasks, {},
                  "(!ct2 U (ct1 & !ct2)) & (!ct3 U (ct2 & !ct3)) & F ct3")
    sc.options.max_assignments = 12
    sc.options.comm_pairs = comm_pairs
    return sc


def _staffed_pairs(comm_pairs, monkeypatch):
    """Per evaluated assignment, the consecutive element pairs one robot staffs."""
    evaluated = []
    real_evaluate = framework._evaluate_assignment

    def recording_evaluate(scenario, mission, assignment, *rest):
        evaluated.append(assignment)
        return real_evaluate(scenario, mission, assignment, *rest)

    monkeypatch.setattr(framework, "_evaluate_assignment", recording_evaluate)
    report = run_framework(_pairs_scenario(comm_pairs))
    mission = report.mission
    assert mission.consecutive_element_pairs() == ((1, 1), (1, 2))
    assert len(evaluated) == sum(r.status == "evaluated" for r in report.rows) > 1

    def robots_of(assignment, element):
        return set().union(*(assignment.robots_for(o)
                             for o in mission.element_occurrences(element)))

    return [{(k, m) for k, m in mission.consecutive_element_pairs()
             if robots_of(a, (k, m)) & robots_of(a, (k, m + 1))}
            for a in evaluated]


def test_comm_pairs_all_staff_every_consecutive_pair(monkeypatch):
    assert any(staffed != {(1, 1), (1, 2)} for staffed in _staffed_pairs("none", monkeypatch))
    assert all(staffed == {(1, 1), (1, 2)} for staffed in _staffed_pairs("all", monkeypatch))


def test_comm_pairs_list_staffs_only_the_chosen_pairs(monkeypatch):
    staffed = _staffed_pairs([[1, 2]], monkeypatch)
    assert all((1, 2) in pairs for pairs in staffed)
    assert any((1, 1) not in pairs for pairs in staffed)
