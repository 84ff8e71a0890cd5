"""The benchmark tracer's call sites must exist in the planner.

``perfbench/tracer.py`` times layers by rebinding names that planner modules
imported.  A refactor that drops or renames one of them would leave its layer
untimed without any error, so each name is checked here.
"""

import importlib
import importlib.util
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
