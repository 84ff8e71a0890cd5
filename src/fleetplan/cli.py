"""Command line interface: plan a scenario file or generate a random one.

Exit codes for `plan`: 0 success, 1 error, 2 infeasible mission, 3 budget or
caps exhausted with no feasible assignment.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import FleetplanError, InfeasibleMission
from .framework import run_framework, write_reports
from .milp import build_milp, emit_lp
from .scenario import Scenario, generate


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fleetplan",
                                     description="Multi-robot temporal task planner")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan a scenario file")
    plan.add_argument("scenario", help="scenario JSON path")
    plan.add_argument("--adjust", type=_onoff, default=None, metavar="on|off")
    plan.add_argument("--oracle", type=_onoff, default=None, metavar="on|off")
    plan.add_argument("--emit-lp", metavar="DIR", default=None,
                      help="write the incumbent assignment's LP file")
    plan.add_argument("--budget", type=float, default=None, metavar="SECS")
    plan.add_argument("--max-assignments", type=int, default=None, metavar="K")
    plan.add_argument("--out", default="out", metavar="DIR")

    gen = sub.add_parser("generate", help="generate a random scenario")
    gen.add_argument("--robots", type=int, required=True)
    gen.add_argument("--collab", type=int, required=True)
    gen.add_argument("--grid", type=int, nargs=2, required=True, metavar=("W", "H"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--individual", type=int, default=4,
                     help="individual tasks per robot")
    gen.add_argument("--out", default=None, metavar="FILE",
                     help="output path (default: stdout)")
    return parser


def cmd_plan(args) -> int:
    scenario = Scenario.load(args.scenario)
    if args.adjust is not None:
        scenario.options.adjust = args.adjust
    if args.oracle is not None:
        scenario.options.oracle = args.oracle
    if args.budget is not None:
        scenario.options.budget_seconds = args.budget
    if args.max_assignments is not None:
        scenario.options.max_assignments = args.max_assignments
    try:
        report = run_framework(scenario)
    except InfeasibleMission as exc:
        print(f"infeasible mission: {exc}", file=sys.stderr)
        return 2
    write_reports(report, args.out)
    if args.emit_lp and report.incumbent is not None:
        plan = report.incumbent
        os.makedirs(args.emit_lp, exist_ok=True)
        path = os.path.join(args.emit_lp, f"assignment_{plan.assignment_index}.lp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_lp(build_milp(plan.pruned_map, report.mission, plan.assignment)))
        print(f"LP model written to {path}")
    evaluated = [r for r in report.rows if r.status == "evaluated"]
    if report.incumbent is None:
        print(f"no feasible assignment ({report.stopped_because}); "
              f"{len(report.rows)} rows", file=sys.stderr)
        return 3
    print(f"best total time cost {report.incumbent.total:g} "
          f"(assignment {report.incumbent.assignment_index}, "
          f"{len(evaluated)} evaluated, stopped: {report.stopped_because})")
    print(f"reports in {args.out}/")
    return 0


def cmd_generate(args) -> int:
    scenario = generate(seed=args.seed, robots=args.robots, collab=args.collab,
                        grid=tuple(args.grid), individual_per_robot=args.individual)
    text = scenario.dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"scenario written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; a usage error is exit 1, --help exit 0
        return 1 if exc.code else 0
    try:
        if args.command == "plan":
            return cmd_plan(args)
        return cmd_generate(args)
    except FleetplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unreadable scenario is a ScenarioError, so this is output
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
