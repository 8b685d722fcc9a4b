"""Self-test of the benchmark at tiny input sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, runs clean and emits
exactly the metrics BENCHMARK.json declares, with their units, and that a
deliberately wrong pinned path length, or a traced function that is no longer
there, is counted as a failed op and makes the run exit nonzero.  Exits 0
when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

# Chains of at most n=18 and few sampled faces, in place of run.py's sizes.
TINY_TOPS = {
    "build": {"cunningham": 3, "johnson": 3, "zadeh": 2},
    "verify": {"cunningham": 2, "johnson": 3, "zadeh": 1},
    "replay": {"cunningham": 3, "johnson": 3, "zadeh": 2},
}
TINY_SAMPLES = 300


def run_tiny(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    run.TOPS.update(TINY_TOPS)
    run.SAMPLES = TINY_SAMPLES
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            code, result = run_tiny(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: exit {code}, {result}")
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")

    pinned = run.PINNED_LENGTHS["johnson"]
    pinned[1] += 1
    try:
        code, result = run_tiny("build", 0)
    finally:
        pinned[1] -= 1
    if code == 0 or result["correct"] or result["failed"] == 0:
        problems.append(f"wrong pinned length went unnoticed: exit {code}, {result}")

    verifier = sys.modules["ausokit.verifier"]
    check_growth = verifier.check_growth
    del verifier.check_growth  # the span's target is gone
    try:
        code, result = run_tiny("replay", 1)
    finally:
        verifier.check_growth = check_growth
    if code == 0 or result["correct"] or result["failed"] == 0:
        problems.append(f"missing span target went unnoticed: exit {code}, {result}")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
