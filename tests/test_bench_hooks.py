"""The benchmark tracer's call sites must exist in the planner.

``perfbench/tracer.py`` times layers by rebinding names that planner modules
imported, and counts work by reading attributes of what those calls return.
A refactor that drops or renames one of them would leave its layer untimed or
its counter at zero without any error, so both are checked here.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_call_site_is_a_callable_planner_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [site for sites in tracer.LAYER_CALLS.values() for site in sites]
    assert sites
    for module_name, name in sites:
        module = importlib.import_module(f"fleetplan.{module_name}")
        assert callable(getattr(module, name, None)), f"fleetplan.{module_name}.{name}"


TRACED_PLAN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from fleetplan import generate
from fleetplan.framework import run_framework
sc = generate(seed=3, robots=2, collab=2, grid=(5, 5), individual_per_robot=2)
sc.options.oracle = True
sc.options.max_assignments = 4
run_framework(sc)
print(json.dumps(tracer.counters))
"""


def test_traced_counters_read_planner_attributes():
    """The tracer's counters read attributes of what the wrapped calls return."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", TRACED_PLAN, str(TRACER.parent)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": pythonpath})
    assert result.returncode == 0, result.stderr
    counters = json.loads(result.stdout)
    for name in ("product.states", "product.edges", "product.pruned_edges",
                 "protocol.messages", "milp.bb_leaves"):
        assert counters.get(name, 0) > 0, name
