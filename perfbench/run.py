"""Planner benchmark: plan a seeded workload of scenario files and report metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --record

Run from the repository root.  The workload's scenario files are generated
from ``--seed`` (untimed), then each pass plans all of them in a fresh
interpreter, one pass at a time, until ``--seconds`` would be exceeded; at
least one pass always runs.  Set-up-only interpreters add samples of the
set-up time.  Times are normalised to a fixed machine speed (see
``speed.py``).  Every pass's outputs are checked (see ``check.py``).

With ``--trace 0`` the last line of output reports the end-to-end metrics,
medians over passes.  With ``--trace 1`` untraced and traced passes alternate
and the last line reports the per-layer metrics of the traced passes.
``--record`` plans one pass and stores its checked outputs as the reference
for the seed.  Work files go to ``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_record, load_reference, read_outputs, save_reference
from tracer import span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference"
SCHEMA = "perfbench/1"
SETUP_ONLY_SAMPLES = 15
WORKER_TIMEOUT_S = 170

END_TO_END = {"plan_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "incumbent_cost": "time_units"}
# printed beside the end-to-end metrics; the percentiles need enough scenarios
PRINTED = {"scenario_p50_s": "s", "scenario_tail_s": "s", "failed_frac": "ratio",
           "plan_wall_s": "s", "setup_wall_s": "s", "speed_scale": "ratio"}
MIN_TAIL_SAMPLES = 20
PASS_LOG_KEYS = ("plan_s", "plan_wall_s", "speed_scale", "probe_samples", "setup_s",
                 "setup_wall_s", "peak_rss_mb")
PER_LAYER = {
    "product.build_s": "s", "product.prune_s": "s", "product.build_calls": "count",
    "product.distinct_ratio": "ratio", "product.states": "count", "product.edges": "count",
    "product.pruned_edges": "count",
    "alloc.enumerate_s": "s", "alloc.enumerate_calls": "count", "alloc.filter_s": "s",
    "alloc.useful_ratio": "ratio",
    "milp.oracle_s": "s", "milp.bb_leaves": "count", "milp.oracle_skipped": "count",
    "schedule.cost_fold_s": "s", "schedule.cost_fold_calls": "count",
    "ltl.translate_s": "s", "ltl.translate_calls": "count", "ltl.nfa_states": "count",
    "ltl.accept_check_s": "s", "mission.prune_s": "s", "mission.decompose_s": "s",
    "world.wts_s": "s",
    "protocol.adjust_s": "s", "protocol.cycles": "count", "protocol.messages": "count",
    "protocol.adjustments": "count",
    "schedule.simulate_s": "s", "framework.report_write_s": "s", "framework.self_s": "s",
    "trace_overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be 0 or more, not {args.seed}")

    if not (SRC / "fleetplan" / "__init__.py").is_file():
        print(f"error: no planner sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, write_scenarios

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    scenarios = write_scenarios(workload, args.seed, work / "scenarios")
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"src": str(SRC), "scenarios": scenarios,
                                    "out": str(work / "out")}), encoding="utf-8")
    reference_path = REFERENCE / f"{workload.name}.json"

    if args.record:
        return record(manifest, work, args.seed, reference_path)
    bench = Bench(manifest, work, load_reference(reference_path, args.seed))
    for _ in range(SETUP_ONLY_SAMPLES):
        bench.setup_only()
    modes = (False, True) if args.trace else (False,)
    window = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for traced in modes:
            bench.plan_pass(traced)
        elapsed = time.perf_counter() - window
        if elapsed + (time.perf_counter() - round_started) > args.seconds:
            break

    summary = bench.summary()
    layers = bench.layer_metrics() if args.trace else {}
    details = {"schema": SCHEMA, "env": environment(), "workload": workload.name,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "metrics": summary, "layers": layers, "passes": bench.pass_log,
               "failures": bench.failures}
    (work / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")

    print(f"env: {json.dumps(details['env'], sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed}: {len(scenarios)} scenarios, "
          f"{len(bench.plain)} untraced and {len(bench.traced)} traced passes, "
          f"{len(bench.setups)} set-up samples")
    for key, unit in {**END_TO_END, **PRINTED}.items():
        print(f"  {key:<16} {format_value(summary.get(key))} {unit}")
    print(f"  outcomes: {summary['outcomes']}")
    if "tail_percentile" in summary:
        print(f"  scenario percentiles over {summary['tail_samples']} scenarios: "
              f"p50 and p{summary['tail_percentile']}")
    for failure in bench.failures:
        print(f"  FAILED pass {failure['pass']} {failure['scenario']}: {failure['problem']}")
    if args.trace:
        print_layers(layers, bench.accounting())
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": bench.attempted > 0 and not bench.failures,
                      "attempted": bench.attempted, "failed": bench.failed_count(),
                      "metrics": metrics}))
    return 0


class Bench:
    """Runs worker interpreters one at a time and checks each pass's outputs."""

    def __init__(self, manifest: Path, work: Path, reference: dict):
        self.manifest = manifest
        self.work = work
        self.out_root = work / "out"
        self.reference = reference
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.pass_log: list[dict] = []
        self.failures: list[dict] = []
        self.first_outputs: dict = {}
        self.attempted = 0

    def _worker(self, tag: str, *flags) -> dict:
        # str and frozenset hashing orders the planner's sets, and how long its
        # searches take depends on that order: every interpreter gets the same
        # hash seed, so every pass repeats the same work
        result_path = self.work / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(self.manifest), str(result_path),
             *flags], capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker {tag} exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def setup_only(self):
        self._add_setup(self._worker(f"setup{len(self.setups)}", "--setup-only"))

    def _add_setup(self, result: dict):
        self.setups.append(result["setup_s"])
        self.setup_walls.append(result["setup_wall_s"])

    def plan_pass(self, traced: bool):
        index = len(self.pass_log)
        tag = f"pass{index}"
        passes = self.traced if traced else self.plain
        result = self._worker(tag, *(("--trace",) if traced else ()))
        if traced:
            result["spans"] = json.loads(
                (self.work / f"{tag}.spans.json").read_text(encoding="utf-8"))
        self._add_setup(result)
        passes.append(result)
        self.pass_log.append({key: result[key] for key in PASS_LOG_KEYS} | {"traced": traced})
        self._check(index, result)

    def _check(self, index: int, result: dict):
        evaluated = rows_seen = 0
        for record in result["scenarios"]:
            self.attempted += 1
            name = record["name"]
            try:
                rows, out = read_outputs(record, self.out_root)
                self.first_outputs.setdefault(name, out)
                expected = self.reference.get(name, self.first_outputs[name])
                problems = check_record(record, rows, out, expected)
            except (OSError, ValueError, KeyError) as exc:
                rows, problems = [], [f"unreadable outputs: {exc!r}"]
            for problem in problems:
                self.failures.append({"pass": index, "scenario": name, "problem": problem})
            rows_seen += len(rows)
            evaluated += sum(row["status"] == "evaluated" for row in rows)
        result["rows"], result["evaluated"] = rows_seen, evaluated

    def failed_count(self) -> int:
        return len({(f["pass"], f["scenario"]) for f in self.failures})

    def summary(self) -> dict:
        first = self.plain[0]
        outcomes: dict = {}
        for record in first["scenarios"]:
            outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
        out = {
            "plan_s": statistics.median(p["plan_s"] for p in self.plain),
            "setup_s": statistics.median(self.setups),
            "plan_wall_s": statistics.median(p["plan_wall_s"] for p in self.plain),
            "setup_wall_s": statistics.median(self.setup_walls),
            "speed_scale": statistics.median(p["speed_scale"] for p in self.plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.plain),
            "incumbent_cost": sum(self.first_outputs.get(r["name"], {}).get("incumbent_cost") or 0
                                  for r in first["scenarios"] if r["outcome"] == "planned"),
            "failed_frac": self.failed_count() / self.attempted,
            "outcomes": outcomes,
        }
        per_scenario = sorted(
            statistics.median(p["scenarios"][i]["seconds"] for p in self.plain)
            for i in range(len(first["scenarios"])))
        n = len(per_scenario)
        if n >= MIN_TAIL_SAMPLES:
            # the highest whole percentile with at least ten samples above it
            percentile = (100 * (n - 10)) // n
            out["scenario_p50_s"] = statistics.median(per_scenario)
            out["scenario_tail_s"] = statistics.quantiles(
                per_scenario, n=100, method="inclusive")[percentile - 1]
            out["tail_percentile"] = percentile
            out["tail_samples"] = n
        return out

    def _traced_layers(self, result: dict) -> dict:
        total, own, calls = span_totals(result["spans"])
        # span times in normalised seconds, like the pass's plan_s
        total = {name: seconds * result["speed_scale"] for name, seconds in total.items()}
        own = {name: seconds * result["speed_scale"] for name, seconds in own.items()}
        counters = result["counters"]
        builds = calls["product.build"]
        return {
            "product.build_s": total.get("product.build", 0.0),
            "product.prune_s": total.get("product.prune", 0.0),
            "product.build_calls": builds,
            "product.distinct_ratio": counters.get("product.distinct", 0) / builds
            if builds else 0.0,
            "product.states": counters.get("product.states", 0),
            "product.edges": counters.get("product.edges", 0),
            "product.pruned_edges": counters.get("product.pruned_edges", 0),
            "alloc.enumerate_s": total.get("alloc.enumerate", 0.0),
            "alloc.enumerate_calls": calls["alloc.enumerate"],
            "alloc.filter_s": total.get("alloc.filter", 0.0),
            "alloc.useful_ratio": result["evaluated"] / result["rows"] if result["rows"] else 0.0,
            "milp.oracle_s": total.get("milp.oracle", 0.0),
            "milp.bb_leaves": counters.get("milp.bb_leaves", 0),
            "milp.oracle_skipped": counters.get("milp.oracle.raised.BudgetExceeded", 0),
            "schedule.cost_fold_s": total.get("schedule.cost_fold", 0.0),
            "schedule.cost_fold_calls": calls["schedule.cost_fold"],
            "ltl.translate_s": total.get("ltl.translate", 0.0),
            "ltl.translate_calls": calls["ltl.translate"],
            "ltl.nfa_states": counters.get("ltl.nfa_states", 0),
            "ltl.accept_check_s": total.get("ltl.accept_check", 0.0),
            "mission.prune_s": total.get("mission.prune", 0.0),
            "mission.decompose_s": total.get("mission.decompose", 0.0),
            "world.wts_s": total.get("world.wts", 0.0),
            "protocol.adjust_s": total.get("protocol.adjust", 0.0),
            "protocol.cycles": counters.get("protocol.cycles", 0),
            "protocol.messages": counters.get("protocol.messages", 0),
            "protocol.adjustments": counters.get("protocol.adjustments", 0),
            "schedule.simulate_s": total.get("schedule.simulate", 0.0),
            "framework.report_write_s": total.get("framework.report_write", 0.0),
            "framework.self_s": own.get("plan", 0.0) + own.get("framework.run", 0.0),
        }

    def layer_metrics(self) -> dict:
        per_pass = [self._traced_layers(result) for result in self.traced]
        layers = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        layers["trace_overhead_s"] = (statistics.median(p["plan_s"] for p in self.traced)
                                      - statistics.median(p["plan_s"] for p in self.plain))
        return layers

    def accounting(self) -> dict:
        """Self wall time per span name of the median traced pass, and its wall time."""
        result = sorted(self.traced, key=lambda p: p["plan_s"])[(len(self.traced) - 1) // 2]
        _total, own, calls = span_totals(result["spans"])
        return {"plan_wall_s": result["plan_wall_s"], "self": own, "calls": calls}


def record(manifest: Path, work: Path, seed: int, reference_path: Path) -> int:
    bench = Bench(manifest, work, {})
    bench.plan_pass(False)
    for failure in bench.failures:
        print(f"FAILED {failure['scenario']}: {failure['problem']}", file=sys.stderr)
    if bench.failures:
        return 1
    save_reference(reference_path, seed, bench.first_outputs)
    print(f"recorded {len(bench.first_outputs)} scenarios for seed {seed} in {reference_path}")
    return 0


def print_layers(layers: dict, accounting: dict):
    print("  per-layer metrics (median of traced passes):")
    for key, unit in PER_LAYER.items():
        print(f"    {key:<26} {format_value(layers[key])} {unit}")
    own = accounting["self"]
    print(f"  self wall time by span in the median traced pass "
          f"(plan_wall_s {accounting['plan_wall_s']:.3f} s, spans sum {sum(own.values()):.3f} s):")
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<26} {seconds:9.3f} s  {accounting['calls'][name]:>8} calls")


def format_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": nproc, "commit": git_commit()}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
