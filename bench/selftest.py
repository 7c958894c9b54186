"""Smoke self-test of the benchmark harness.

Run from the repository root:  python3 bench/selftest.py

Runs one tiny operation per workload through bench/run.py and checks that
1. a planted wrong reference digest counts as a failed operation,
2. pass_s and every other metric, end-to-end and per-layer, print by name
   with their units,
3. tracing leaves stdout unchanged,
and that BENCHMARK.json lists the same metrics as bench/design.json.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import run

TINY = {
    "wide": ["gamma", "--outer", "3,3,3", "--inner", "1", "--theta", "5,3"],
    "tall": ["gamma", "--outer", "2,2,2,2", "--inner", "1", "--theta", "7"],
    "sweep": ["verify", "--suite", "kostka,hook", "--max-n", "2", "--max-size", "3"],
}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def printed_result(workload: str, trace: int, refs: dict) -> dict:
    """Run run.main on the tiny operation and parse the last line it prints."""
    run.draw_ops = lambda name, seed: [TINY[name]]
    run.load_references = lambda: refs
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    expect(code == 0, f"{workload} trace={trace}: exit code 0")
    return json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    design = run.DESIGN
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        mine = [(m["name"], m["unit"], m["better"]) for m in design[kind]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in declared[kind]]
        expect(mine == theirs, f"BENCHMARK.json {kind} matches bench/design.json")
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(design["workloads"]),
           "BENCHMARK.json workloads match bench/design.json")

    refs = {}
    for argv in [run.SETUP_COMMAND, *TINY.values()]:
        result = run.run_op(argv, refs)
        refs[run.op_key(argv)] = hashlib.sha256(result.stdout).hexdigest()

    for workload, argv in TINY.items():
        plain = run.run_op(argv, refs)
        traced = run.run_op(argv, refs, traced=True)
        expect(plain.error is None and traced.error is None and plain.stdout == traced.stdout,
               f"{workload}: traced stdout is byte-identical to plain stdout")

        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = printed_result(workload, trace, refs)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: every operation passes")
            metrics = result["metrics"]
            expect(
                list(metrics) == [m["name"] for m in design[kind]]
                and all(metrics[m["name"]]["unit"] == m["unit"] for m in design[kind])
                and all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                f"{workload} trace={trace}: every {kind} metric prints by name with its unit",
            )
            if trace:
                expect(metrics["cli.main.self_s"]["value"] > 0, f"{workload}: cli.main has self time")

        planted = dict(refs, **{run.op_key(argv): "0" * 64})
        result = printed_result(workload, 0, planted)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: a planted wrong digest counts as a failed operation")
    run.clean_work()
    return 0


if __name__ == "__main__":
    sys.exit(main())
