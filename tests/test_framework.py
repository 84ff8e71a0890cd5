"""Scenario round-trips, the outer loop, report files, and the CLI."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fleetplan import framework
from fleetplan.cli import main as cli_main
from fleetplan.errors import BudgetExceeded, InfeasibleMission, ScenarioError
from fleetplan.framework import WALL_COLUMNS, run_framework, write_reports
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


def test_scenario_round_trip(tmp_path):
    sc = small_scenario()
    path = tmp_path / "scenario.json"
    sc.save(path)
    loaded = Scenario.load(path)
    assert loaded.dumps() == sc.dumps()


def test_scenario_rejects_foreign_formula_atoms():
    sc = small_scenario()
    data = json.loads(sc.dumps())
    data["collaborativeFormula"] = "F nosuch"
    with pytest.raises(ScenarioError):
        Scenario.from_json(data)


def test_scenario_rejects_unknown_schema_version():
    data = json.loads(small_scenario().dumps())
    data["schemaVersion"] = 99
    with pytest.raises(ScenarioError):
        Scenario.from_json(data)


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

    def overrunning_protocol(ctx, net):
        protocols.append(ctx.assignment)
        result = real_protocol(ctx, net)
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

    def solve_expired(pruned_map, mission, assignment, cap, deadline):
        return real_solve(pruned_map, mission, assignment, cap, time.perf_counter() - 1.0)

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
    from fleetplan.ltl import to_nfa
    from fleetplan.milp import solve_exact
    from fleetplan.product import build_local_formula, build_product, prune_product
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
            filtered_js.append(solve_exact(pruned, mission, assignment).objective)
        except Exception:
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
    expected = tmp_path / "expected.lp"
    emit_lp(build_milp(pruned, mission, assignment), expected)
    emitted = lp_dir / f"assignment_{report.incumbent.assignment_index}.lp"
    assert os.listdir(lp_dir) == [emitted.name]
    assert emitted.read_bytes() == expected.read_bytes()


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

    def fresh_evaluate(scenario, mission, assignment, wts, collab_props, _cache, *rest):
        return real_evaluate(scenario, mission, assignment, wts, collab_props, {}, *rest)

    monkeypatch.setattr(framework, "_evaluate_assignment", fresh_evaluate)
    keys.clear()
    fresh = _plan_outputs(sc, tmp_path / "fresh")
    assert len(keys) > len(cached_keys)
    assert set(keys) == set(cached_keys)
    assert cached == fresh


def test_local_state_limit_becomes_infeasible_row(monkeypatch):
    sc = generate(seed=1, robots=4, collab=3, grid=(6, 6), individual_per_robot=1)
    sc.options.max_assignments = 12
    real_to_nfa = framework.to_nfa
    calls = []

    def capped_to_nfa(phi, state_cap=20_000):
        # the first call translates the collaborative formula, the rest are local
        calls.append(phi)
        return real_to_nfa(phi, state_cap if len(calls) == 1 else 1)

    monkeypatch.setattr(framework, "to_nfa", capped_to_nfa)
    report = run_framework(sc)
    synthesized = [r for r in report.rows if r.status != "filtered"]
    assert len(synthesized) > 1
    for row in synthesized:
        assert row.status == "infeasible"
        assert "exceeds 1 states" in row.detail
    assert report.incumbent is None
    # a key whose synthesis failed is remembered, not translated again
    assert len(calls) - 1 < len(synthesized)
