"""Exact optimizer: enumeration correctness, dominance, LP emission."""

import functools
import re
import time
from itertools import product as iter_product

import pytest

from fleetplan.alloc import Assignment
from fleetplan.errors import BudgetExceeded
from fleetplan.ltl import parse_formula, to_nfa
from fleetplan import milp
from fleetplan.milp import MilpModel, Row, build_milp, emit_lp, solve_exact
from fleetplan.mission import Mission
from fleetplan.product import build_local_formula, build_product, prune_product
from fleetplan.protocol import ProtocolContext, run_protocol
from fleetplan.schedule import FoldPlan, Timeline, choice_timeline, compute_time_cost
from fleetplan.world import Fleet, Robot, TaskReq, build_wts, grid_world

from oracles import (
    ReferencePrunedPa,
    partial_time_cost,
    reference_solve_exact,
    refold_solve_exact,
    state_id,
    variable_names,
)


def build_instance(width, height, ct_regions, starts, individual=None, formulas=None):
    """Full instance where every robot serves every collaborative task."""
    world = grid_world(width, height)
    robots = tuple(range(len(starts)))
    fleet = Fleet(("c1",), tuple(
        Robot(r, frozenset({"c1"}), s) for r, s in zip(robots, starts)))
    props = sorted(ct_regions)
    tasks = [TaskReq(p, ct_regions[p], {"c1": len(robots)}) for p in props]
    for prop, region, owner in (individual or ()):
        tasks.append(TaskReq(prop, region, {"c1": 1}, owner=owner))
    mission = Mission((tuple((p,) for p in props),))
    occs = mission.sorted_occurrences
    vector = [True] * (len(robots) * len(occs))
    assignment = Assignment(robots, occs, vector)
    collab = frozenset(props)
    pruned = {}
    for r in robots:
        assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
        wts = build_wts(world, fleet, tasks, r)
        base = parse_formula((formulas or {}).get(r, "true"))
        phi = build_local_formula(base, assigned)
        pruned[r] = prune_product(build_product(wts, to_nfa(phi), assigned, collab))
    return mission, assignment, pruned


def flat_enumeration_optimum(pruned_map, mission, assignment):
    """Oracle: walk the full cross product of per-robot level placements."""
    per_robot = {}
    for r, pruned in pruned_map.items():
        options = []
        inner = pruned.levels[1:-1]
        for combo in iter_product(*inner) if inner else [()]:
            best = None
            for init in pruned.levels[0]:
                if combo:
                    w = pruned.edge_weight(0, init, combo[0])
                    if w is None:
                        continue
                    arrivals = [w]
                    ok = True
                    for li in range(1, len(combo)):
                        step = pruned.edge_weight(li, combo[li - 1], combo[li])
                        if step is None:
                            ok = False
                            break
                        arrivals.append(arrivals[-1] + step)
                    if not ok:
                        continue
                    tail_src = combo[-1]
                    tail_level = len(pruned.levels) - 2
                else:
                    arrivals = []
                    tail_src = init
                    tail_level = 0
                tails = [pruned.edge_weight(tail_level, tail_src, acc)
                         for acc in pruned.levels[-1]]
                tails = [t for t in tails if t is not None]
                if not tails:
                    continue
                completion = (arrivals[-1] if arrivals else 0) + min(tails)
                cand = (completion, arrivals)
                if best is None or cand < best:
                    best = cand
            if best is not None:
                arrivals = {pruned.assigned[i][0]: a for i, a in enumerate(best[1])}
                options.append(Timeline(r, arrivals, best[0]))
        per_robot[r] = options
    best_total = None
    for joint in iter_product(*(per_robot[r] for r in sorted(per_robot))):
        timelines = {tl.robot_id: tl for tl in joint}
        total = compute_time_cost(timelines, mission, assignment).total
        if best_total is None or total < best_total:
            best_total = total
    return best_total


def test_single_robot_objective_is_travel_weight():
    mission, assignment, pruned = build_instance(
        5, 1, {"ct1": "q3_0"}, ["q0_0"])
    result = solve_exact(pruned, mission, assignment)
    assert result.objective == 3.0
    assert pruned[0].expand(result.choices[0].choice).weight == 3.0


def test_exact_matches_flat_enumeration():
    mission, assignment, pruned = build_instance(
        6, 2,
        {"ct1": "q2_0", "ct2": "q4_1"},
        ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0), ("ts2", "q3_0", 1)],
        formulas={0: "F ts1", 1: "F ts2"},
    )
    result = solve_exact(pruned, mission, assignment)
    oracle = flat_enumeration_optimum(pruned, mission, assignment)
    assert result.objective == oracle


def test_exact_dominates_protocol_output():
    mission, assignment, pruned = build_instance(
        7, 2,
        {"ct1": "q3_0", "ct2": "q5_1"},
        ["q0_0", "q6_0"],
        individual=[("ts1", "q2_1", 0)],
        formulas={0: "F ts1"},
    )
    choices = {r: pruned[r].shortest_choice() for r in pruned}
    timelines = {r: choice_timeline(pruned[r], choices[r]) for r in pruned}
    initial_total = compute_time_cost(timelines, mission, assignment).total
    ctx = ProtocolContext(mission, assignment, pruned, dict(choices), dict(timelines))
    adjusted = run_protocol(ctx)
    exact = solve_exact(pruned, mission, assignment)
    assert exact.objective <= adjusted.report.total + 1e-9 <= initial_total + 2e-9


def test_entry_firing_zero_edge_through_the_whole_chain():
    """A robot starting on its first task region fires at t=0 everywhere."""
    pytest.importorskip("scipy")
    mission, assignment, pruned = build_instance(
        5, 1, {"ct1": "q0_0", "ct2": "q3_0"}, ["q0_0", "q1_0"])
    exact = solve_exact(pruned, mission, assignment)
    assert exact.report.task_times[(1, 1)] == 1.0  # robot 1 needs one step to q0_0
    assert exact.choices[0].timeline.arrivals[(1, 1)] == 0.0
    external = _solve_lp_with_scipy(build_milp(pruned, mission, assignment))
    assert abs(external - exact.objective) < 1e-6
    oracle = flat_enumeration_optimum(pruned, mission, assignment)
    assert exact.objective == oracle


def test_budget_cap_raises():
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0)], formulas={0: "F ts1"})
    with pytest.raises(BudgetExceeded):
        solve_exact(pruned, mission, assignment, combination_cap=1)


def test_expired_deadline_raises_budget():
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0)], formulas={0: "F ts1"})
    assert solve_exact(pruned, mission, assignment, deadline=time.perf_counter() + 1000)
    with pytest.raises(BudgetExceeded, match="^budget$"):
        solve_exact(pruned, mission, assignment, deadline=time.perf_counter() - 1.0)


def test_deadline_checked_on_entry_and_every_deadline_every_nodes(monkeypatch):
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0)], formulas={0: "F ts1"})
    calls = []
    monkeypatch.setattr(milp, "check_deadline", calls.append)
    counts = {}
    for every in (1, 3):
        monkeypatch.setattr(milp, "DEADLINE_EVERY", every)
        calls.clear()
        solve_exact(pruned, mission, assignment, deadline=123.0)
        assert set(calls) == {123.0}
        counts[every] = len(calls)
    nodes = counts[1]  # one check per search node
    assert nodes > 3 and counts[3] == -(-nodes // 3)


def parse_lp(text):
    """Round-trip reader for the emitted LP format."""
    lines = [l for l in text.splitlines() if l and not l.startswith("\\")]
    section = None
    objective = {}
    rows = {}
    binaries = set()
    bounds = []
    for line in lines:
        if line in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = line
            continue
        body = line.strip()
        if section == "Minimize":
            _name, expr = body.split(":", 1)
            objective = _parse_terms(expr)
        elif section == "Subject To":
            name, rest = body.split(":", 1)
            m = re.match(r"(.*?)(<=|>=|=)\s*([-\d.]+)$", rest.strip())
            rows[name.strip()] = (_parse_terms(m.group(1)), m.group(2), float(m.group(3)))
        elif section == "Bounds":
            bounds.append(body)
        elif section == "Binaries":
            binaries.add(body)
    return objective, rows, binaries


def _parse_terms(expr):
    terms = {}
    tokens = expr.replace("+", " + ").replace("-", " - ").split()
    sign = 1.0
    coef = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        else:
            try:
                coef = float(tok)
            except ValueError:
                terms[tok] = terms.get(tok, 0.0) + sign * (coef if coef is not None else 1.0)
                sign = 1.0
                coef = None
    return terms


def test_lp_round_trip_preserves_model():
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"])
    model = build_milp(pruned, mission, assignment)
    objective, rows, binaries = parse_lp(emit_lp(model))
    assert binaries == set(model.binaries)
    expected_obj = {}
    for coef, var in model.objective:
        expected_obj[var] = expected_obj.get(var, 0.0) + coef
    assert objective == expected_obj
    assert len(rows) == len(model.rows)
    for row in model.rows:
        terms, sense, rhs = rows[row.name]
        expected = {}
        for coef, var in row.terms:
            expected[var] = expected.get(var, 0.0) + coef
        assert terms == expected, row.name
        assert sense == row.sense
        assert rhs == row.rhs


def test_lp_round_trip_is_exact_for_non_unit_weights():
    weights = [0.1234567, 1234567.0, 2.5e-07, 98765432.125]
    rows = [
        Row(f"w{i}", ((w, "y_a"), (-w, "t_b"), (1.0, "z")), sense, -w if i % 2 else w)
        for i, (w, sense) in enumerate(zip(weights, ["<=", ">=", "=", "<="]))
    ]
    model = MilpModel(tuple((w, f"t_{i}") for i, w in enumerate(weights)), rows,
                      ("y_a",), ("t_b", "z"), {0: 1234567.0})
    text = emit_lp(model)
    assert "e+" not in text and "e-" not in text
    objective, parsed, binaries = parse_lp(text)
    assert objective == {f"t_{i}": w for i, w in enumerate(weights)}
    assert binaries == {"y_a"}
    for row in rows:
        assert parsed[row.name] == ({"y_a": row.terms[0][0], "t_b": row.terms[1][0], "z": 1.0},
                                    row.sense, row.rhs)


def test_empty_model_emits_trivial_objective():
    mission = Mission(())
    assignment = Assignment((), (), ())
    model = build_milp({}, mission, assignment)
    text = emit_lp(model)
    assert " obj: 0" in text
    assert "Subject To" in text


def test_feasible_valuation_satisfies_all_rows_and_big_m_is_tight():
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0)], formulas={0: "F ts1"})
    model = build_milp(pruned, mission, assignment)
    exact = solve_exact(pruned, mission, assignment)
    values = _valuation_from_solution(model, pruned, exact)
    for row in model.rows:
        lhs = sum(coef * values.get(var, 0.0) for coef, var in row.terms)
        if row.sense == "=":
            assert abs(lhs - row.rhs) < 1e-9, row.name
        elif row.sense == "<=":
            assert lhs <= row.rhs + 1e-9, row.name
        else:
            assert lhs >= row.rhs - 1e-9, row.name
    # arrival rows are tight exactly on selected edges
    for row in model.rows:
        if not row.name.startswith(("arrlo", "arrhi")):
            continue
        y_var = next(var for coef, var in row.terms if var.startswith("y_"))
        lhs = sum(coef * values.get(var, 0.0) for coef, var in row.terms)
        if values.get(y_var):
            assert abs(lhs - row.rhs) < 1e-9, row.name
    obj = sum(coef * values.get(var, 0.0) for coef, var in model.objective)
    assert abs(obj - exact.objective) < 1e-9


def test_emitted_model_has_one_final_column_per_final_source():
    """The final level keeps only each source's cheapest edge, so the accepting
    row holds one column per final-level source that reaches an accepting state."""
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0)], formulas={0: "F ts1"})
    _objective, rows, binaries = parse_lp(emit_lp(build_milp(pruned, mission, assignment)))
    for r, p in pruned.items():
        index = milp._state_index(p)
        final = len(p.levels) - 2
        ref_edges = [key for key in ReferencePrunedPa(p.pa).edges if key[0] == final]
        columns = rows[f"snk_{r}"][0]
        assert set(columns) <= binaries
        assert sorted(int(name.split("_")[2]) for name in columns) == sorted(
            {index[state_id(p.pa, a)] for _li, a, _b in ref_edges})
        assert len(columns) < len(ref_edges)


def test_external_milp_solver_agrees_with_exact():
    """Cross-solver check: solve the emitted LP with scipy's HiGHS backend."""
    pytest.importorskip("scipy")
    mission, assignment, pruned = build_instance(
        6, 2, {"ct1": "q2_0", "ct2": "q4_1"}, ["q0_0", "q5_0"],
        individual=[("ts1", "q1_1", 0)], formulas={0: "F ts1"})
    external = _solve_lp_with_scipy(build_milp(pruned, mission, assignment))
    exact = solve_exact(pruned, mission, assignment)
    assert abs(external - exact.objective) < 1e-6


def test_external_solver_agrees_on_generated_instances():
    """Cross-solver sweep over random scenarios, including entry firings."""
    pytest.importorskip("scipy")
    from fleetplan.alloc import AllocModel, next_assignment
    from fleetplan.errors import EmptyLanguage, LevelDisconnected, NoAcceptingPath
    from fleetplan.mission import (
        build_mission,
        decomposition_states,
        prune_nfa,
        shortest_accepting_run,
    )
    from fleetplan.scenario import generate
    from fleetplan.world import build_wts as bw

    checked = 0
    for seed in (70, 71, 73, 82):
        sc = generate(seed=seed, robots=3, collab=3, grid=(6, 6),
                      individual_per_robot=2)
        try:
            nfa = to_nfa(sc.parsed_collaborative())
            pruned_nfa = prune_nfa(nfa, sc.fleet, sc.collaborative_tasks())
        except EmptyLanguage:
            continue
        run = shortest_accepting_run(pruned_nfa)
        mission = build_mission(pruned_nfa, run, decomposition_states(pruned_nfa, run))
        model = AllocModel(mission, sc.fleet, sc.collaborative_tasks())
        assignment = next_assignment(model)
        if assignment is None:
            continue
        collab = frozenset(t.prop for t in sc.collaborative_tasks())
        pruned = {}
        try:
            for r in sc.fleet.robot_ids():
                assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
                wts = bw(sc.world, sc.fleet, list(sc.tasks), r)
                phi = build_local_formula(sc.parsed_individual(r), assigned)
                pruned[r] = prune_product(build_product(wts, to_nfa(phi), assigned, collab))
        except (NoAcceptingPath, LevelDisconnected):
            continue
        exact = solve_exact(pruned, mission, assignment)
        external = _solve_lp_with_scipy(build_milp(pruned, mission, assignment))
        assert abs(external - exact.objective) < 1e-6, seed
        checked += 1
    assert checked >= 2


def _solve_lp_with_scipy(model):
    """The emitted LP's optimum: HiGHS's MIP solve picks the binaries, which are
    then fixed at their rounded values for a tight-tolerance LP re-solve, so
    the objective carries no MIP feasibility slack."""
    import numpy as np
    from scipy.optimize import LinearConstraint, linprog, milp

    objective, rows, binaries = parse_lp(emit_lp(model))
    variables = sorted(set(variable_names(model)))
    index = {v: i for i, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for var, coef in objective.items():
        c[index[var]] = coef
    a = np.zeros((len(rows), len(variables)))
    lo, hi = np.zeros(len(rows)), np.zeros(len(rows))
    for i, (terms, sense, rhs) in enumerate(rows.values()):
        for var, coef in terms.items():
            a[i, index[var]] = coef
        lo[i], hi[i] = {"=": (rhs, rhs), "<=": (-np.inf, rhs), ">=": (rhs, np.inf)}[sense]
    binary = np.array([v in binaries for v in variables])
    lower = np.zeros(len(variables))
    upper = np.where(binary, 1.0, np.inf)
    result = milp(c, constraints=LinearConstraint(a, lo, hi), integrality=binary.astype(int),
                  bounds=(lower, upper))
    assert result.success, result.message
    rounded = np.round(result.x[binary])
    assert np.all(np.abs(result.x[binary] - rounded) <= 1e-6), result.x[binary]
    lower[binary] = upper[binary] = rounded
    eq = lo == hi
    below, above = ~eq & (hi < np.inf), ~eq & (lo > -np.inf)
    fixed = linprog(c, np.vstack([a[below], -a[above]]), np.concatenate([hi[below], -lo[above]]),
                    a[eq], lo[eq], bounds=list(zip(lower, upper)), method="highs",
                    options={"primal_feasibility_tolerance": 1e-10,
                             "dual_feasibility_tolerance": 1e-10})
    assert fixed.success, fixed.message
    return fixed.fun


def _valuation_from_solution(model, pruned_map, exact):
    from fleetplan.milp import _state_index

    values = {}
    for r in sorted(pruned_map):
        pruned = pruned_map[r]
        index = _state_index(pruned)
        choice = exact.choices[r].choice
        for li, (a, b) in enumerate(zip(choice, choice[1:])):
            values[f"y_{r}_{index[a]}_{index[b]}"] = 1.0
        timeline = exact.choices[r].timeline
        for occ in timeline.arrivals:
            k, l = occ
            values[f"t_{r}_{k}_{l}"] = timeline.arrivals[occ]
            values[f"d_{r}_{k}_{l}"] = exact.report.task_times[occ] - timeline.arrivals[occ]
    for occ, t in exact.report.task_times.items():
        values[f"z_{occ[0]}_{occ[1]}"] = t
    return values


# ---------------------------------------------------------------------------
# Wait-aware bound: same optimum as the reference oracle, fewer leaves
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def oracle_inputs(fixtures):
    """``(pruned_map, mission, assignment)`` of every oracle call the planner
    makes on the scenarios ``fixtures()`` yields, planned once and cached."""
    from fleetplan import framework
    from fleetplan.errors import InfeasibleMission

    calls = []
    real = framework.solve_exact

    def record(pruned_map, mission, assignment, cap, deadline):
        calls.append((pruned_map, mission, assignment))
        return real(pruned_map, mission, assignment, cap, deadline)

    framework.solve_exact = record
    try:
        for sc in fixtures():
            sc.options.oracle = True
            try:
                framework.run_framework(sc)
            except InfeasibleMission:
                continue
    finally:
        framework.solve_exact = real
    return tuple(calls)


def criterion_4_fixtures():
    from fleetplan.scenario import generate

    for i in range(30):
        sc = generate(seed=3000 + i, robots=[3, 4, 5][i % 3], collab=4, grid=(8, 8),
                      individual_per_robot=2)
        sc.options.max_assignments = 8
        yield sc


def float_weight_fixtures():
    """Generated scenarios whose edges weigh 0.1–2.0, rounded to 1–7 decimals."""
    import random

    from fleetplan.scenario import Scenario, generate

    for i in range(30):
        rng = random.Random(7000 + i)
        data = generate(seed=7000 + i, robots=4, collab=3, grid=(6, 6),
                        individual_per_robot=2).to_json()
        data["world"]["weights"] = [
            [a, b, round(rng.uniform(0.1, 2.0), rng.randint(1, 7))]
            for a, b in grid_world(6, 6).edges]
        data["options"]["maxAssignments"] = 4
        yield Scenario.from_json(data)


def alloc_oracle_fixtures():
    """The criterion-7 structures of seeds 6001–6010, placed on an 8×8 grid."""
    import random

    from fleetplan.scenario import Scenario, generate

    for seed in range(6001, 6011):
        data = generate(seed=seed, robots=10, collab=6, grid=(20, 20),
                        individual_per_robot=2).to_json()
        data["world"] = {"grid": {"width": 8, "height": 8}}
        placed = data["robots"] + data["individualTasks"] + data["collaborativeTasks"]
        cells = random.Random(seed).sample([f"q{x}_{y}" for y in range(8) for x in range(8)],
                                           len(placed))
        for item, cell in zip(placed, cells):
            item["start" if "start" in item else "region"] = cell
        data["options"]["maxAssignments"] = 1
        yield Scenario.from_json(data)


def assert_matches_reference(calls):
    explored = reference_explored = 0
    for pruned_map, mission, assignment in calls:
        got = solve_exact(pruned_map, mission, assignment)
        ref = reference_solve_exact(pruned_map, mission, assignment)
        assert got.objective == ref.objective
        assert got.report == ref.report
        assert {r: c.choice for r, c in got.choices.items()} == \
            {r: c.choice for r, c in ref.choices.items()}
        assert got.explored <= ref.explored
        explored += got.explored
        reference_explored += ref.explored
    return explored, reference_explored


def test_wait_aware_bound_matches_reference_on_criterion_4_fixtures():
    calls = oracle_inputs(criterion_4_fixtures)
    assert len(calls) >= 30
    assert_matches_reference(calls)


def test_wait_aware_bound_matches_reference_on_float_weights():
    calls = oracle_inputs(float_weight_fixtures)
    assert len(calls) >= 30
    assert_matches_reference(calls)


def test_wait_aware_bound_matches_reference_on_alloc_oracle_structures():
    calls = oracle_inputs.__wrapped__(alloc_oracle_fixtures)  # too large to keep cached
    assert len(calls) >= 5
    explored, reference_explored = assert_matches_reference(calls)
    assert explored * 10 < reference_explored


@pytest.mark.parametrize("fixtures", [criterion_4_fixtures, float_weight_fixtures,
                                      alloc_oracle_fixtures])
def test_resumed_search_equals_the_refold_reference(fixtures):
    """Resuming each node's fold changes nothing the search returns or visits."""
    calls = (oracle_inputs.__wrapped__(fixtures) if fixtures is alloc_oracle_fixtures
             else oracle_inputs(fixtures))
    assert len(calls) >= 5
    for pruned_map, mission, assignment in calls:
        got = solve_exact(pruned_map, mission, assignment)
        ref = refold_solve_exact(pruned_map, mission, assignment)
        assert (got.objective, got.report, got.explored) == (ref.objective, ref.report,
                                                              ref.explored)
        assert {r: (c.choice, c.timeline) for r, c in got.choices.items()} == \
            {r: (c.choice, c.timeline) for r, c in ref.choices.items()}


@pytest.mark.parametrize("fixtures", [criterion_4_fixtures, float_weight_fixtures,
                                      alloc_oracle_fixtures])
def test_protocol_trial_folds_equal_compute_time_cost(fixtures, monkeypatch):
    """Every fold the protocol makes on its plan, of the initial timelines and of
    each candidate ``adjust_strategy`` tries, totals what ``compute_time_cost``
    gives on the same timelines."""
    from fleetplan import protocol

    calls = (oracle_inputs.__wrapped__(fixtures) if fixtures is alloc_oracle_fixtures
             else oracle_inputs(fixtures))
    folds = []

    class RecordingPlan(FoldPlan):
        def fold(self, timelines, fixed, start=0, prior=None):
            result = super().fold(timelines, fixed, start, prior)
            folds.append((dict(zip(self.robots, timelines)), result[3]))
            return result

    monkeypatch.setattr(protocol, "FoldPlan", RecordingPlan)
    trials = 0
    for pruned_map, mission, assignment in calls:
        folds.clear()
        choices = {r: pruned_map[r].shortest_choice() for r in pruned_map}
        timelines = {r: choice_timeline(pruned_map[r], choices[r]) for r in pruned_map}
        result = run_protocol(ProtocolContext(mission, assignment, pruned_map, choices, timelines))
        assert folds[0][1] == result.history[0]
        for candidate, total in folds:
            assert compute_time_cost(candidate, mission, assignment).total == total
        trials += len(folds) - 1
    assert trials >= 3 * len(calls)


def test_resumed_fold_equals_the_full_fold_at_every_node():
    """Each node's fold, resumed from its parent's at the first element of the
    robot it fixes, equals the fold from the first element, and its total
    equals ``compute_time_cost``'s."""
    nodes = resumed_later = 0
    for pruned_map, mission, assignment in (oracle_inputs(criterion_4_fixtures)
                                            + oracle_inputs(float_weight_fixtures)):
        plan = FoldPlan(mission, assignment)
        options = [milp.enumerate_robot_choices(pruned_map[r]) for r in plan.robots]
        size = 1
        for choices in options:
            size *= len(choices)
        if size > 2000:
            continue
        floors = [milp.least_timeline(choices) for choices in options]
        n = len(options)

        def visit(chosen, fold):
            nonlocal nodes, resumed_later
            idx = len(chosen)
            timelines = [c.timeline for c in chosen] + floors[idx:]
            assert fold == plan.fold(timelines, [True] * idx + [False] * (n - idx))
            full = partial_time_cost(dict(zip(plan.robots, timelines[:idx])), mission, assignment,
                                     dict(zip(plan.robots[idx:], floors[idx:])))
            assert fold[3] == full.total
            nodes += 1
            if idx == n:
                return
            start = plan.first.get(idx, len(plan.steps))
            resumed_later += start > 0
            for choice in options[idx]:
                child = [*chosen, choice]
                visit(child, plan.fold([c.timeline for c in child] + floors[idx + 1:],
                                       [True] * (idx + 1) + [False] * (n - idx - 1),
                                       start, fold))

        visit([], plan.fold(floors, [False] * n))
    assert nodes > 20000 and resumed_later > 3000


def test_partial_fold_carries_no_delay_for_free_robots():
    """A free robot's floor is not a timeline: it must not carry a wait forward."""
    mission = Mission(((("a",), ("b",)),))
    assignment = Assignment((0, 1), mission.sorted_occurrences, [True] * 4)
    fixed = {0: Timeline(0, {(1, 1): 10.0, (1, 2): 11.0}, 12.0)}
    choices = [Timeline(1, {(1, 1): 10.0, (1, 2): 11.0}, 12.0),
               Timeline(1, {(1, 1): 0.0, (1, 2): 20.0}, 21.0)]
    exact = min(compute_time_cost({**fixed, 1: c}, mission, assignment).total for c in choices)
    floor = Timeline(1, {(1, 1): 0.0, (1, 2): 11.0}, 12.0)
    bound = partial_time_cost(fixed, mission, assignment, {1: floor})
    assert bound.total == exact == 24.0
    assert bound.delays == {0: 0.0, 1: 0.0}
    # folded as an ordinary timeline, the floor would carry a wait of 10 and overshoot
    assert compute_time_cost({**fixed, 1: floor}, mission, assignment).total == 44.0


def test_bound_at_every_node_is_below_its_completions():
    """Brute force: each node's partial fold is at most its cheapest completion."""
    nodes = 0
    for pruned_map, mission, assignment in (oracle_inputs(criterion_4_fixtures)
                                            + oracle_inputs(float_weight_fixtures)):
        robots = sorted(pruned_map)
        per_robot = [milp.enumerate_robot_choices(pruned_map[r]) for r in robots]
        size = 1
        for options in per_robot:
            size *= len(options)
        if size > 2000:
            continue
        floors = [milp.least_timeline(options) for options in per_robot]
        best = {}  # choice-index prefix -> least exact total below it
        for joint in iter_product(*(range(len(options)) for options in per_robot)):
            timelines = {r: per_robot[i][j].timeline for i, (r, j) in enumerate(zip(robots, joint))}
            total = compute_time_cost(timelines, mission, assignment).total
            for idx in range(len(robots) + 1):
                prefix = joint[:idx]
                best[prefix] = min(best.get(prefix, total), total)
        for prefix, least in best.items():
            idx = len(prefix)
            fixed = {r: per_robot[i][j].timeline for i, (r, j) in enumerate(zip(robots, prefix))}
            free = {r: floors[i] for i, r in enumerate(robots) if i >= idx}
            bound = partial_time_cost(fixed, mission, assignment, free).total
            assert bound <= least if idx < len(robots) else bound == least
            nodes += 1
    assert nodes > 1000
