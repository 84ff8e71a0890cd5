"""Exact strategy optimization for a fixed assignment, plus LP-format export.

The internal solver enumerates, per robot, one collaborative state per level
of its layered automaton (initial and accepting endpoints are then forced to
their cheapest edges), evaluates joint choices with the shared cost fold, and
prunes with that fold run partially: robots not yet fixed enter it at their
least ideal arrivals and carry no delay, so the bound sees the waits the
fixed robots already incur.  The same model is exportable as LP text with
the flow/arrival/delay constraints for external solvers.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .alloc import DEADLINE_EVERY, Assignment, check_deadline
from .errors import BudgetExceeded, LevelDisconnected
from .mission import Mission
from .product import PrunedPa
from .schedule import CostReport, FoldPlan, Timeline, choice_timeline, compute_time_cost

DEFAULT_COMBINATION_CAP = 10_000_000


def enumerate_robot_choices(pruned: PrunedPa) -> List[Timeline]:
    """The timelines of all per-level collaborative placements with their
    cheapest endpoints, each keeping its level choice (initial, collaborative
    and accepting states).

    The initial state takes the cheapest edge into the first collaborative
    state (with none, the least initial state that reaches the accepting
    level), the accepting state the cheapest edge out of the last one; ties
    go to the lesser state.
    """
    robot = pruned.pa.wts.robot_id
    last = len(pruned.levels) - 2
    choices: List[Timeline] = []
    for combo in iter_product(*pruned.levels[1:-1]):
        if combo:
            inits = [(w, s) for s in pruned.levels[0]
                     if (w := pruned.edge_weight(0, s, combo[0])) is not None]
        else:
            inits = [(0.0, s) for s in pruned.levels[0] if pruned.suffix_cost(0, s) is not None]
        if not inits or any(pruned.edge_weight(li, a, b) is None
                            for li, (a, b) in enumerate(zip(combo, combo[1:]), start=1)):
            continue
        init = min(inits)[1]
        tail = combo[-1] if combo else init
        accs = [(w, s) for s in pruned.levels[-1]
                if (w := pruned.edge_weight(last, tail, s)) is not None]
        if accs:
            choice = (init, *combo, min(accs)[1])
            choices.append(choice_timeline(pruned, choice))
    if not choices:
        raise LevelDisconnected(f"robot {robot}: no feasible level placement")
    return choices


class ExactResult:
    def __init__(self, objective: float, report: CostReport, timelines: Dict[int, Timeline],
                 explored: int):
        self.objective = objective
        self.report = report
        self.timelines = timelines
        self.explored = explored


def least_timeline(choices: Sequence[Timeline]) -> Timeline:
    """Each occurrence's least ideal arrival and the least completion over
    ``choices``: a floor, so it has no level choice."""
    first = choices[0]
    return Timeline(first.robot_id,
                    {occ: min(c.arrivals[occ] for c in choices) for occ in first.arrivals},
                    min(c.completion for c in choices), None)


def solve_exact(pruned_map: Mapping[int, PrunedPa], plan: FoldPlan,
                combination_cap: int = DEFAULT_COMBINATION_CAP,
                deadline: Optional[float] = None) -> ExactResult:
    """Optimal total time cost over all joint collaborative placements.

    Depth-first over robots with branch-and-bound.  A node with
    ``robots[:idx]`` fixed is bounded by the cost fold over the fixed
    timelines with each free robot's ``least_timeline`` as its floor, resumed
    from the parent's fold at the fixed robot's first element: sync times
    only rise as participants are added, so no completion of the node costs
    less, and the node is pruned when the bound cannot beat the incumbent.
    At a leaf the bound is the exact fold, so ``explored`` counts the leaves
    that improved the incumbent.  ``deadline`` is checked on entry and every
    ``DEADLINE_EVERY`` search nodes (see ``alloc.check_deadline``).  Robots are
    enumerated in order, up to the first whose choices take the joint count
    past ``combination_cap``, which raises ``BudgetExceeded``.
    """
    options, count = [], 1
    for r in plan.robots:
        options.append(enumerate_robot_choices(pruned_map[r]))
        count *= len(options[-1])
        if count > combination_cap:
            raise BudgetExceeded(f"joint choice count exceeds cap ({combination_cap})")
    # each free robot's floor, replaced by its choice while the robot is fixed
    timelines = [least_timeline(choices) for choices in options]
    best: Optional[Tuple[float, List[Timeline]]] = None
    explored = nodes = 0

    def dfs(idx: int, fold: tuple):
        nonlocal best, explored, nodes
        if nodes % DEADLINE_EVERY == 0:
            check_deadline(deadline)
        nodes += 1
        if best is not None and fold[3] >= best[0]:
            return
        if idx == len(options):
            explored += 1
            best = (fold[3], list(timelines))
            return
        floor, start = timelines[idx], plan.first.get(idx, len(plan.steps))
        for choice in options[idx]:
            timelines[idx] = choice
            dfs(idx + 1, plan.fold(timelines, idx + 1, start, fold))
        timelines[idx] = floor

    try:
        dfs(0, plan.fold(timelines, 0))
    finally:
        del dfs  # it refers to itself: break the cycle that would keep every timeline
    if best is None:
        raise LevelDisconnected("no joint feasible placement")
    found = dict(zip(plan.robots, best[1]))
    return ExactResult(best[0], compute_time_cost(found, plan), found, explored)


# ---------------------------------------------------------------------------
# LP model construction and emission
# ---------------------------------------------------------------------------


class Row:
    def __init__(self, name: str, terms: Tuple[Tuple[float, str], ...], sense: str, rhs: float):
        self.name = name
        self.terms = terms
        self.sense = sense  # "=", "<=", ">="
        self.rhs = rhs


class MilpModel:
    """Linear model over edge-selection, arrival, delay, and latest-arrival variables."""

    def __init__(self, objective: Tuple[Tuple[float, str], ...], rows: List[Row],
                 binaries: Tuple[str, ...], continuous: Tuple[str, ...],
                 big_m: Mapping[int, float]):
        self.objective = objective
        self.rows = rows
        self.binaries = binaries
        self.continuous = continuous
        self.big_m = big_m


def _state_index(pruned: PrunedPa) -> Dict[int, int]:
    """Each state's position in level order, first occurrence kept."""
    return {s: i for i, s in enumerate(dict.fromkeys(s for level in pruned.levels for s in level))}


def build_milp(pruned_map: Mapping[int, PrunedPa], mission: Mission,
               assignment: Assignment) -> MilpModel:
    """Assemble the flow + timing model for the given assignment."""
    rows: List[Row] = []
    objective: List[Tuple[float, str]] = []
    binaries: List[str] = []
    big_m: Dict[int, float] = {}
    z_names = {(k, l): f"z_{k}_{l}" for k, l in mission.sorted_occurrences}
    continuous = list(z_names.values())

    for r in sorted(pruned_map):
        pruned = pruned_map[r]
        index = _state_index(pruned)
        edges = sorted((key, w) for key, (w, _u) in pruned.edges.items())

        def yname(a: int, b: int) -> str:
            return f"y_{r}_{index[a]}_{index[b]}"

        for (_li, a, b), _w in edges:
            binaries.append(yname(a, b))

        out_of: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
        into: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
        for (li, a, b), w in edges:
            out_of.setdefault((li, a), []).append((b, w))
            into.setdefault((li + 1, b), []).append((a, w))

        # unit out-flow from the initial level, unit in-flow to the accepting level
        init_terms = [(1.0, yname(a, b))
                      for a in pruned.levels[0] for b, _w in out_of.get((0, a), ())]
        rows.append(Row(f"src_{r}", tuple(init_terms), "=", 1.0))
        last = len(pruned.levels) - 1
        acc_terms = [(1.0, yname(a, b))
                     for b in pruned.levels[last] for a, _w in into.get((last, b), ())]
        rows.append(Row(f"snk_{r}", tuple(acc_terms), "=", 1.0))

        # conservation at interior states, at most one unit through each
        for li in range(1, last):
            for s in pruned.levels[li]:
                inc = [(1.0, yname(a, s)) for a, _w in into.get((li, s), ())]
                out = [(-1.0, yname(s, b)) for b, _w in out_of.get((li, s), ())]
                if not inc and not out:
                    continue
                rows.append(Row(f"flow_{r}_{li}_{index[s]}", tuple(inc + out), "=", 0.0))
                rows.append(Row(f"cap_{r}_{li}_{index[s]}", tuple(inc), "<=", 1.0))

        # arrival recursion, linearized with indicator-style big-M pairs.  The
        # flow rows route exactly one unit into each level, so t - prev_t is
        # the weight w* of the one selected edge into it.  An unselected edge
        # of weight w only asks w - M <= w* <= w + M, which M = max - min of
        # the weights into that level always meets; a zero spread leaves the
        # equality t - prev_t = w.
        assigned = pruned.assigned
        prev_t: Optional[str] = None
        big_m[r] = 0.0
        for li, (occ, _prop) in enumerate(assigned):
            k, l = occ
            t_name = f"t_{r}_{k}_{l}"
            d_name = f"d_{r}_{k}_{l}"
            continuous.extend([t_name, d_name])
            weights = [w for s in pruned.levels[li + 1]
                       for _a, w in into.get((li + 1, s), ())]
            m_val = max(weights) - min(weights) if weights else 0.0
            big_m[r] = max(big_m[r], m_val)
            for s in pruned.levels[li + 1]:
                for a, w in into.get((li + 1, s), ()):
                    y, prev = yname(a, s), () if prev_t is None else ((-1.0, prev_t),)
                    rows.append(Row(f"arrlo_{r}_{k}_{l}_{index[a]}_{index[s]}",
                                    ((1.0, t_name), (-m_val, y), *prev), ">=", w - m_val))
                    rows.append(Row(f"arrhi_{r}_{k}_{l}_{index[a]}_{index[s]}",
                                    ((1.0, t_name), (m_val, y), *prev), "<=", w + m_val))
            prev_t = t_name

        # objective: last arrival + final delay + the accepting leg's travel
        if assigned:
            k, l = assigned[-1][0]
            objective.append((1.0, f"t_{r}_{k}_{l}"))
            objective.append((1.0, f"d_{r}_{k}_{l}"))
            for b in pruned.levels[last]:
                for a, w in into.get((last, b), ()):
                    if w:
                        objective.append((w, yname(a, b)))
        else:
            for (_li, a, b), w in edges:
                if w:
                    objective.append((w, yname(a, b)))

    # synchronization-coupled occurrences execute at one shared time
    for elem in mission.elements():
        occs = mission.element_occurrences(elem)
        for o1, o2 in zip(occs, occs[1:]):
            rows.append(Row(f"sync_{o1[0]}_{o1[1]}_{o2[1]}",
                            ((1.0, z_names[o1]), (-1.0, z_names[o2])), "=", 0.0))

    # z is the latest actual arrival; delays bind to it
    for occ in mission.sorted_occurrences:
        k, l = occ
        z = z_names[occ]
        for r in sorted(assignment.robots_for(occ)):
            t_name = f"t_{r}_{k}_{l}"
            d_name = f"d_{r}_{k}_{l}"
            rows.append(Row(f"delay_{r}_{k}_{l}",
                            ((1.0, t_name), (1.0, d_name), (-1.0, z)), "=", 0.0))
            prev = assignment.previous(r, occ)
            terms = [(1.0, z), (-1.0, t_name)]
            if prev is not None:
                terms.append((-1.0, f"d_{r}_{prev[0]}_{prev[1]}"))
            rows.append(Row(f"zmax_{r}_{k}_{l}", tuple(terms), ">=", 0.0))

    return MilpModel(tuple(objective), rows, tuple(binaries), tuple(continuous), big_m)


def emit_lp(model: MilpModel) -> str:
    """The model in LP text format (minimize; subject to; bounds; binaries)."""
    lines = [f"\\ big-M robot {r}: {_lp_num(model.big_m[r])}" for r in sorted(model.big_m)]
    lines += ["Minimize", " obj: " + _terms_str(model.objective), "Subject To"]
    lines += [f" {row.name}: {_terms_str(row.terms)} {row.sense} {_lp_num(row.rhs)}"
              for row in model.rows]
    lines += ["Bounds", *(f" 0 <= {name}" for name in model.continuous)]
    lines += ["Binaries", *(f" {name}" for name in model.binaries), "End"]
    return "\n".join(lines) + "\n"


def _lp_num(x: float) -> str:
    """Exact positional text for a number, integers bare (LP readers reject exponents)."""
    from decimal import Decimal  # only LP export needs it; importing fleetplan stays lean
    return str(int(x)) if float(x).is_integer() else format(Decimal(repr(float(x))), "f")


def _terms_str(terms: Sequence[Tuple[float, str]]) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (coef, var) in enumerate(terms):
        sign = "-" if coef < 0 else ("+" if i else "")
        mag = abs(coef)
        coef_str = "" if mag == 1 else f"{_lp_num(mag)} "
        parts.append(f"{sign} {coef_str}{var}".strip())
    return " ".join(parts)
