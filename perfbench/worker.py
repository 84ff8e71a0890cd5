"""One pass over a workload's scenario files, in a fresh interpreter.

    python3 perfbench/worker.py MANIFEST RESULT [--setup-only | --trace]

Set-up is the import of ``fleetplan`` plus loading (and so validating) every
scenario file.  The pass then plans each file the way ``fleetplan plan`` does
(load, ``run_framework``, ``write_reports``) and writes per-scenario times,
outcomes, the pass wall time and the process's peak resident memory to
RESULT.  With ``--trace`` the spans go to RESULT's ``.spans.json`` sibling.
Times are reported both as measured and normalised to the machine speed that
``speed.py`` samples in this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Probe, kernel, scale

SETUP_KERNEL_SLICES = 4


def main(argv) -> int:
    manifest = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result_path = Path(argv[1])
    flags = set(argv[2:])

    # set-up is too short for the probe's timer; slices just before and just
    # after it give its speed
    slices = [kernel() for _ in range(SETUP_KERNEL_SLICES)]
    started = time.perf_counter()
    sys.path.insert(0, manifest["src"])
    from fleetplan import Scenario

    for path in manifest["scenarios"]:
        Scenario.load(path)
    setup_wall_s = time.perf_counter() - started
    slices += [kernel() for _ in range(SETUP_KERNEL_SLICES)]
    result = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * scale(slices)}

    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(plan_all(manifest["scenarios"], Path(manifest["out"]), tracer))
        if tracer is not None:
            spans_path = result_path.with_suffix(".spans.json")
            spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
            result["counters"] = dict(tracer.counters)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


def plan_all(paths, out_root: Path, tracer=None) -> dict:
    from fleetplan import Scenario, run_framework, write_reports
    from fleetplan.errors import InfeasibleMission

    load, run, write = Scenario.load, run_framework, write_reports
    if tracer is not None:
        load = tracer.wrap("scenario.load", load)
        run = tracer.wrap("framework.run", run)
        write = tracer.wrap("framework.report_write", write)

    def plan_one(path, out_dir):
        scenario = load(path)
        try:
            report = run(scenario)
        except InfeasibleMission:
            return "infeasible-mission"
        write(report, out_dir)
        return "planned" if report.incumbent is not None else "no-assignment"

    if tracer is not None:
        plan_one = tracer.wrap("plan", plan_one)

    records = []
    probe = Probe()
    probe.start()
    pass_started = time.perf_counter()
    for index, path in enumerate(paths):
        name = Path(path).stem
        if tracer is not None:
            tracer.scenario = index
        t0, spent0 = time.perf_counter(), probe.spent
        error = ""
        try:
            outcome = plan_one(path, out_root / name)
        except Exception:  # a crash is a counted failure, not the end of the pass
            outcome, error = "error", traceback.format_exc()
        records.append({"name": name, "outcome": outcome,
                        "seconds": time.perf_counter() - t0 - (probe.spent - spent0),
                        "error": error})
    plan_wall_s = time.perf_counter() - pass_started
    probe.stop()
    factor = probe.scale()
    for record in records:
        record["seconds"] *= factor
    return {"plan_wall_s": plan_wall_s, "plan_s": (plan_wall_s - probe.spent) * factor,
            "probe_samples": len(probe.samples), "speed_scale": factor,
            "scenarios": records}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
