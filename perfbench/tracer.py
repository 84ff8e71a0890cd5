"""Spans around the calls the planner makes into each layer, from outside.

``install`` rebinds the names that ``fleetplan.framework``, ``fleetplan.protocol``
and ``fleetplan.milp`` imported, so calls through them are timed without any
change to the planner.  Spans stay in memory as
``[id, parent, name, scenario, start, end]`` until the pass ends.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# layer span name -> (module, imported name) call sites that are wrapped
LAYER_CALLS = {
    "world.wts": [("framework", "build_wts")],
    "ltl.translate": [("framework", "to_nfa")],
    "ltl.accept_check": [("framework", "nfa_accepts")],
    "mission.prune": [("framework", "prune_nfa")],
    "mission.decompose": [("framework", "shortest_accepting_run"),
                          ("framework", "decomposition_states"),
                          ("framework", "build_mission")],
    "alloc.enumerate": [("framework", "next_assignment")],
    "alloc.filter": [("framework", "dominated")],
    "product.build": [("framework", "build_product")],
    "product.prune": [("framework", "prune_product")],
    "protocol.adjust": [("framework", "run_protocol")],
    "milp.oracle": [("framework", "solve_exact")],
    "schedule.cost_fold": [("framework", "compute_time_cost"),
                           ("protocol", "compute_time_cost"),
                           ("milp", "compute_time_cost")],
    "schedule.simulate": [("framework", "simulate")],
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.scenario = -1
        self._stack: List[int] = []
        self._product_keys = set()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, self.scenario, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[5] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self):
        """Rebind every layer call site for the rest of this interpreter's life."""
        import fleetplan.framework
        import fleetplan.milp
        import fleetplan.protocol

        modules = {"framework": fleetplan.framework, "protocol": fleetplan.protocol,
                   "milp": fleetplan.milp}
        counts: Dict[str, Callable] = {
            "ltl.translate": self._count_nfa,
            "product.build": self._count_product,
            "product.prune": self._count_pruned,
            "milp.oracle": self._count_oracle,
            "protocol.adjust": self._count_protocol,
        }
        for name, sites in LAYER_CALLS.items():
            for module_name, attr in sites:
                module = modules[module_name]
                setattr(module, attr, self.wrap(name, getattr(module, attr), counts.get(name)))

    def _count_nfa(self, args, nfa):
        self.counters["ltl.nfa_states"] += nfa.n_states

    def _count_product(self, args, pa):
        wts, nfa = args[0], args[1]
        # the framework caches one automaton per (robot, local formula), so the
        # automaton's identity within a scenario names the local formula
        self._product_keys.add((self.scenario, wts.robot_id, id(nfa)))
        self.counters["product.distinct"] = len(self._product_keys)
        self.counters["product.states"] += len(pa.adjacency)
        self.counters["product.edges"] += len(pa.edge_info)

    def _count_pruned(self, args, pruned):
        self.counters["product.pruned_edges"] += len(pruned.edges)

    def _count_oracle(self, args, exact):
        self.counters["milp.bb_leaves"] += exact.explored

    def _count_protocol(self, args, result):
        self.counters["protocol.cycles"] += result.cycles
        self.counters["protocol.messages"] += result.messages
        self.counters["protocol.adjustments"] += result.adjustments


def span_totals(spans) -> tuple[Dict[str, float], Dict[str, float], Counter]:
    """Inclusive time, self time and call count per span name."""
    total: Dict[str, float] = {}
    child: Dict[int, float] = {}
    calls: Counter = Counter()
    for span_id, parent, name, _scenario, start, end in spans:
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        calls[name] += 1
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + duration
    own: Dict[str, float] = {}
    for span_id, _parent, name, _scenario, start, end in spans:
        own[name] = own.get(name, 0.0) + (end - start) - child.get(span_id, 0.0)
    return total, own, calls
