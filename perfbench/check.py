"""Correctness checks on the report files a pass wrote.

Each scenario's outputs are reduced to a canonical record: its outcome, the
incumbent cost, every ``metrics.csv`` row's status and costs, and a hash of
the plan in ``schedule.json``.  Only the fields that exist at the commit that
recorded the references enter the record, so added report columns or blocks
(telemetry, wall times) do not count as changes.  A record fails when an
evaluated row misses one of the planner's own validation flags or the cost
order ``oracle_j <= t_adjusted <= t_init``, or when it differs from the
recorded reference for the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

SCHEDULE_KEYS = ("scenario", "stopped", "assignment", "totalCost", "robots", "events")
FLAG_COLUMNS = ("sim_matches", "collab_accepted", "locals_accepted", "element_sync_ok")
EPS = 1e-9


def read_outputs(record: dict, out_root: Path) -> tuple[list, dict]:
    """The ``metrics.csv`` rows of one scenario and its canonical record."""
    out = {"outcome": record["outcome"]}
    if record["outcome"] not in ("planned", "no-assignment"):
        return [], out
    out_dir = out_root / record["name"]
    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    schedule = json.loads((out_dir / "schedule.json").read_text(encoding="utf-8"))
    plan = {key: schedule.get(key) for key in SCHEDULE_KEYS}
    out.update(
        incumbent_cost=schedule.get("totalCost"),
        rows=" ".join(f"{r['status'][0]}:{r['t_init']}:{r['t_adjusted']}:{r['oracle_j']}"
                      if r["status"] != "filtered" else "f" for r in rows),
        schedule_sha256=hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest(),
    )
    return rows, out


def row_problems(rows) -> list[str]:
    """Independent checks on every evaluated row."""
    problems = []
    for row in rows:
        if row["status"] != "evaluated":
            continue
        for flag in FLAG_COLUMNS:
            if row[flag] != "yes":
                problems.append(f"assignment {row['assignment']}: {flag}={row[flag]!r}")
        t_init, t_adj = float(row["t_init"]), float(row["t_adjusted"])
        oracle = float(row["oracle_j"]) if row["oracle_j"] else t_adj
        if not oracle <= t_adj + EPS <= t_init + 2 * EPS:
            problems.append(f"assignment {row['assignment']}: costs out of order "
                            f"oracle_j={row['oracle_j']} t_adjusted={t_adj} t_init={t_init}")
    return problems


def check_record(record: dict, rows: list, out: dict, expected: Optional[dict]) -> list[str]:
    """Problems with one scenario's outputs, as read by ``read_outputs``."""
    if record["outcome"] == "error":
        return [record["error"].strip().splitlines()[-1]]
    problems = row_problems(rows)
    if record["outcome"] == "planned" and out.get("incumbent_cost") is None:
        problems.append("planned without an incumbent cost")
    if expected is not None and out != expected:
        problems.append("outputs differ from the reference")
    return problems


def load_reference(path: Path, seed: int) -> Dict[str, dict]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed), {})


def save_reference(path: Path, seed: int, outputs: Dict[str, dict]) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[str(seed)] = outputs
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
