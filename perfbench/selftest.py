"""Fast self-test of the benchmark on a tiny workload (about ten seconds).

    python3 perfbench/selftest.py

Checks that both modes print every metric named in BENCHMARK.json with its
unit, that the printed summary names every end-to-end metric, that only the
held-out templates move with the seed, and that a corrupted reference output
is counted as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
from workloads import WORKLOADS, Workload

TINY = Workload(name="selftest-tiny", template_seeds=(1000, 1001), robots=3, collab=2,
                individual=1, template_grid=(5, 5), grid=(5, 5), oracle=True,
                max_assignments=4, held_out=1)
SEED = 3


def bench(*args) -> tuple[str, dict]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", TINY.name, "--seed", str(SEED), *args])
    out = buffer.getvalue()
    if code != 0:
        raise AssertionError(f"run.main exited with {code}:\n{out}")
    return out, json.loads(out.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.REFERENCE = run.WORK / "selftest-reference"
    shutil.rmtree(run.REFERENCE, ignore_errors=True)
    run.REFERENCE.mkdir(parents=True)
    WORKLOADS[TINY.name] = TINY

    with contextlib.redirect_stdout(io.StringIO()):
        expect(run.main(["--workload", TINY.name, "--seed", str(SEED), "--record"]) == 0,
               "recording the reference failed")
    reference_path = run.REFERENCE / f"{TINY.name}.json"

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out, result = bench("--seconds", "0.1", "--trace", str(trace))
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"clean run not correct:\n{out}")
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == wanted, f"trace {trace}: metrics {got} != {wanted}")
        expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
               "non-numeric metric value")
        for name, unit in {**run.END_TO_END, **run.PRINTED}.items():
            expect(f" {name} " in out and f" {unit}\n" in out, f"{name} not printed")

    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    # the held-out template moves with the seed, the other one stays
    expect(sorted(reference[str(SEED)]) == [f"{TINY.name}-t1000-s{SEED}",
                                            f"{TINY.name}-t{1001 + SEED}-s{SEED}"],
           f"unexpected scenarios {sorted(reference[str(SEED)])}")
    planned = [k for k, v in reference[str(SEED)].items() if v["outcome"] == "planned"]
    expect(planned, "the tiny workload planned nothing")
    reference[str(SEED)][planned[0]]["incumbent_cost"] += 1
    reference_path.write_text(json.dumps(reference), encoding="utf-8")
    out, result = bench("--seconds", "0.1", "--trace", "0")
    expect(not result["correct"] and result["failed"] >= 1,
           f"corrupted reference not counted:\n{out}")
    expect("failed_frac      0 " not in out, "failed_frac stayed 0")

    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
