"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.  All tolerances are exact (unit grid weights keep arithmetic in
integers); wall-clock columns are never part of determinism checks.
"""

import csv
import random
import statistics
import time

from fleetplan.alloc import AllocModel, dominated
from fleetplan.cli import main as cli_main
from fleetplan.errors import FleetplanError, InfeasibleMission
from fleetplan.framework import run_framework
from fleetplan.ltl import atoms_of, nfa_accepts, to_nfa
from fleetplan.mission import Mission
from fleetplan.product import build_local_formula, build_product, prune_product
from fleetplan.scenario import generate
from fleetplan.world import build_wts

from oracles import all_traces, as_bits, choice_weight, eval_trace, initial_run, random_formula
from test_alloc import brute_force_solutions, enumerate_all, make_fleet, make_tasks


def announce(number, name, passed, details):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({details})")
    assert passed, f"criterion {number} failed: {details}"


def run_instances(seeds, *, robots, collab, grid, individual=2, oracle=False,
                  max_assignments=8, adjust=True):
    """Generate-and-plan helper; infeasible missions are skipped (reported)."""
    reports = []
    for seed, n, k in seeds:
        scenario = generate(seed=seed, robots=n, collab=k, grid=grid,
                            individual_per_robot=individual)
        scenario.options.oracle = oracle
        scenario.options.adjust = adjust
        scenario.options.max_assignments = max_assignments
        try:
            reports.append((seed, scenario, run_framework(scenario)))
        except InfeasibleMission:
            continue
    return reports


def test_criterion_1_ltl_oracle_equivalence():
    rng = random.Random(20260810)
    started = time.time()
    formulas = 0
    checks = 0
    mismatches = 0
    while formulas < 500:
        f = random_formula(rng, ["a", "b", "c"], depth=4)
        nfa = to_nfa(f)
        formulas += 1
        for trace in all_traces(sorted(atoms_of(f)), 4):
            checks += 1
            if nfa_accepts(nfa, trace) != eval_trace(f, trace):
                mismatches += 1
    elapsed = time.time() - started
    announce(1, "ltl-oracle-equivalence",
             mismatches == 0 and elapsed < 60,
             f"{formulas} formulas, {checks} trace checks, "
             f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_pipeline_completeness():
    rng = random.Random(2)
    seeds = []
    for i in range(50):
        seeds.append((1000 + i, rng.choice([2, 3]), rng.choice([1, 2, 3])))
    reports = run_instances(seeds, robots=3, collab=3, grid=(6, 6), oracle=True)
    failures = []
    solvable = 0
    for seed, scenario, report in reports:
        rows = [r for r in report.rows if r.status == "evaluated"]
        if not any(r.oracle_j is not None for r in rows):
            continue  # the exact oracle found no feasible joint plan
        solvable += 1
        if report.incumbent is None:
            failures.append((seed, "no incumbent despite oracle solution"))
            continue
        winner = next(r for r in rows if r.index == report.incumbent.assignment_index)
        if not (winner.collab_accepted and winner.locals_accepted and winner.sim_matches):
            failures.append((seed, f"acceptance flags {winner.collab_accepted} "
                                   f"{winner.locals_accepted} {winner.sim_matches}"))
    announce(2, "pipeline-completeness",
             not failures and solvable > 0,
             f"{len(reports)} planable instances, {solvable} oracle-solvable, "
             f"{len(failures)} failures {failures[:3]}")


def test_criterion_3_monotonic_decrease_and_floor():
    rng = random.Random(3)
    seeds = [(2000 + i, rng.choice([2, 3]), rng.choice([2, 3, 4])) for i in range(100)]
    reports = run_instances(seeds, robots=3, collab=3, grid=(6, 6))
    violations = []
    rows_seen = 0
    for seed, scenario, report in reports:
        for row in report.rows:
            if row.status != "evaluated":
                continue
            rows_seen += 1
            if any(b >= a for a, b in zip(row.history, row.history[1:])):
                violations.append((seed, row.index, "non-strict decrease", row.history))
            if row.t_adjusted < row.t_ideal - 1e-9:
                violations.append((seed, row.index, "below ideal floor"))
            bound = int((row.t_init - row.t_ideal) / 1) + 2  # unit minimum edge weight
            if row.cycles > bound:
                violations.append((seed, row.index, f"cycles {row.cycles} > bound {bound}"))
    announce(3, "monotonic-decrease-and-floor",
             not violations and rows_seen > 0,
             f"{rows_seen} adjusted plans, {len(violations)} violations {violations[:3]}")


def test_criterion_4_oracle_dominance_and_gap():
    seeds = [(3000 + i, [3, 4, 5][i % 3], 4) for i in range(30)]
    reports = run_instances(seeds, robots=3, collab=4, grid=(8, 8), oracle=True)
    violations = []
    ratios = []
    rows_seen = 0
    for seed, scenario, report in reports:
        for row in report.rows:
            if row.status != "evaluated" or row.oracle_j is None:
                continue
            rows_seen += 1
            if not (row.oracle_j <= row.t_adjusted <= row.t_init):
                violations.append((seed, row.index, row.oracle_j, row.t_adjusted, row.t_init))
            if row.t_init > row.oracle_j:
                ratios.append((row.t_init - row.t_adjusted) / (row.t_init - row.oracle_j))
    median = statistics.median(ratios) if ratios else None
    announce(4, "oracle-dominance",
             not violations and rows_seen > 0,
             f"{rows_seen} rows, {len(violations)} dominance violations, "
             f"optimization ratio median {median if median is None else round(median, 3)} "
             f"over {len(ratios)} improvable rows (soft target 0.4)")


def test_criterion_5_pruned_automaton_fidelity():
    mismatched = []
    instances = 0
    for seed in range(4000, 4012):
        scenario = generate(seed=seed, robots=2, collab=2, grid=(6, 6),
                            individual_per_robot=2)
        scenario.options.max_assignments = 3
        try:
            report = run_framework(scenario)
        except InfeasibleMission:
            continue
        if report.incumbent is None:
            continue
        instances += 1
        mission = report.mission
        assignment = report.incumbent.assignment
        collab = frozenset(t.prop for t in scenario.collaborative_tasks())
        for r in scenario.fleet.robot_ids():
            assigned = [(occ, mission.task_of(occ)) for occ in assignment.tasks_of(r)]
            wts = build_wts(scenario.world, scenario.fleet, list(scenario.tasks), r)
            phi = build_local_formula(scenario.parsed_individual(r), assigned)
            nfa = to_nfa(phi)
            pa = build_product(wts, nfa, assigned, collab)
            pruned = prune_product(pa)
            choice = pruned.shortest_choice()
            strategy = pruned.expand(choice)
            direct = initial_run(pa)
            if strategy.weight != choice_weight(pruned, choice):
                mismatched.append((seed, r, "expansion weight"))
            if strategy.weight != direct.weight:
                mismatched.append((seed, r, "pruned vs product optimum",
                                   strategy.weight, direct.weight))
            if not nfa_accepts(nfa, strategy.emits):
                mismatched.append((seed, r, "expanded run not accepted"))
            # alternative placements expand to runs of exactly their edge-sum weight
            for alt in _alternative_choices(pruned, choice, limit=3):
                expanded = pruned.expand(alt)
                if expanded.weight != choice_weight(pruned, alt):
                    mismatched.append((seed, r, "alt expansion weight"))
    announce(5, "pruned-automaton-fidelity",
             not mismatched and instances > 0,
             f"{instances} instances, {len(mismatched)} mismatches {mismatched[:3]}")


def _alternative_choices(pruned, base, limit):
    out = []
    for li in range(1, len(pruned.levels) - 1):
        for state in pruned.levels[li]:
            if state == base[li]:
                continue
            if pruned.edge_weight(li - 1, base[li - 1], state) is None:
                continue
            try:
                tail = pruned.best_chain_from(li, state)
            except FleetplanError:
                continue
            out.append(list(base[:li]) + tail)
            if len(out) >= limit:
                return out
    return out


def test_criterion_6_cost_fold_vs_simulation():
    rng = random.Random(6)
    seeds = [(5000 + i, rng.choice([2, 3]), rng.choice([1, 2, 3, 4])) for i in range(25)]
    reports = run_instances(seeds, robots=3, collab=4, grid=(6, 6))
    mismatches = []
    rows_seen = 0
    for seed, _scenario, report in reports:
        for row in report.rows:
            if row.status != "evaluated":
                continue
            rows_seen += 1
            if not row.sim_matches:
                mismatches.append((seed, row.index))
    announce(6, "cost-fold-vs-simulation",
             not mismatches and rows_seen > 0,
             f"{rows_seen} plans cross-validated, {len(mismatches)} mismatches")


def test_criterion_7_adjustment_faster_than_oracle():
    runs = []
    seed = 6000
    while len(runs) < 10 and seed < 6050:
        scenario = generate(seed=seed, robots=10, collab=6, grid=(20, 20),
                            individual_per_robot=2)
        scenario.options.oracle = True
        scenario.options.max_assignments = 1
        seed += 1
        try:
            report = run_framework(scenario)
        except InfeasibleMission:
            continue
        rows = [r for r in report.rows
                if r.status == "evaluated" and r.oracle_j is not None]
        if rows:
            runs.append((rows[0].wall_adjust, rows[0].wall_oracle))
    faster = sum(1 for adj, ip in runs if adj < ip)
    slow = [adj for adj, _ip in runs if adj >= 5.0]
    announce(7, "adjustment-speed-sanity",
             len(runs) >= 10 and faster >= 0.9 * len(runs) and not slow,
             f"{faster}/{len(runs)} fixtures with t_adj < t_ip, "
             f"max t_adj {max((a for a, _ in runs), default=0):.3f}s")


def test_criterion_8_allocator_completeness():
    rng = random.Random(8)
    cases = 0
    enum_mismatches = 0
    filter_mismatches = 0
    for _ in range(40):
        shapes = [((("ct1",), ("ct2",)),), ((("ct1", "ct2"),),), ((("ct1",),), (("ct2",),))]
        mission = Mission(rng.choice(shapes))
        n_robots = rng.choice([2, 3])
        caps = [frozenset(rng.sample(["c1", "c2"], rng.choice([1, 2])))
                for _ in range(n_robots)]
        fleet = make_fleet(*caps)
        tasks = make_tasks({
            "ct1": {"c1": rng.choice([1, 2])},
            "ct2": {rng.choice(["c1", "c2"]): 1},
        })
        model = AllocModel(mission, fleet, tasks)
        if len(model.robots) * len(model.occurrences) > 12:
            continue
        cases += 1
        got = {a.vector for a in enumerate_all(model)}
        expected = brute_force_solutions(AllocModel(mission, fleet, tasks))
        if got != {as_bits(bits) for bits in expected}:
            enum_mismatches += 1
        history = [tuple(rng.random() < 0.5 for _ in range(8)) for _ in range(3)]
        cand = tuple(rng.random() < 0.5 for _ in range(8))
        oracle = any(all(c >= h for c, h in zip(cand, hist)) for hist in history)
        if dominated(as_bits(cand), [as_bits(hist) for hist in history]) != oracle:
            filter_mismatches += 1
    announce(8, "allocator-completeness",
             cases > 0 and enum_mismatches == 0 and filter_mismatches == 0,
             f"{cases} models vs brute force, {enum_mismatches} enumeration and "
             f"{filter_mismatches} filter mismatches")


def test_criterion_9_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    code = cli_main(["generate", "--robots", "3", "--collab", "3",
                     "--grid", "6", "6", "--seed", "70", "--out", str(scenario_path)])
    assert code == 0
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["plan", str(scenario_path), "--max-assignments", "8",
                         "--out", str(out)])
        assert code == 0
        schedule = (out / "schedule.json").read_text()
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, col in enumerate(rows[0]) if not col.startswith("wall_")]
        metrics = [[row[i] for i in keep] for row in rows]
        series = (out / "tcolla_series.csv").read_text()
        outputs.append((schedule, metrics, series))
    same = outputs[0] == outputs[1]
    announce(9, "determinism",
             same,
             "two planner runs produced identical schedule JSON, metrics "
             "(wall columns excluded), and cost series")
