"""Benchmark of the `immanants` CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload wide --seed 1 --seconds 40 --trace 0

Each operation of a workload is one `python -m immanants.cli ...` command in a
fresh child process, one at a time (a closed loop with one client), with the
environment pinned in bench/design.json.  Each child is started through
bench/launch.py, which reports its wall time, CPU time and peak RSS, and runs
between two slices of the fixed calibration kernel in bench/calibrate.py; the
child's wall and CPU times are scaled to a reference host speed by those
slices (see HostSpeed), so that the drift of a shared host cancels.  Every
stdout is checked against the digest recorded in bench/references.json.
With --trace 0 the run times plain passes and reports the end-to-end metrics;
with --trace 1 it alternates plain and traced passes (bench/traced_cli.py)
and reports the per-layer metrics derived from the traced passes' spans.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 bench/run.py --record-references

runs every operation any seed can draw and writes its stdout digest to
bench/references.json.  bench/crosscheck.py checks those digests against
independent computations; bench/selftest.py checks the harness itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, slice_times
from traced_cli import ARRAYS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())
REFERENCES = BENCH / "references.json"
TRACED_CLI = BENCH / "traced_cli.py"
LAUNCH = BENCH / "launch.py"
DESIGN = json.loads((BENCH / "design.json").read_text())
ENVIRONMENT = DESIGN["environment"]
OP_TIMEOUT_S = ENVIRONMENT["op_timeout_s"]
SETUP_COMMAND = DESIGN["setup_command"]
WARM_UPS = 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "IMMANANT_THREADS"}
    env["PYTHONHASHSEED"] = ENVIRONMENT["PYTHONHASHSEED"]
    env["PYTHONPATH"] = str(SRC)
    return env


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------- inputs


def parse_parts(text: str) -> list[int]:
    return [] if text == "-" else [int(x) for x in text.split(",")]


def _text(parts: list[int]) -> str:
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return ",".join(map(str, parts)) or "-"


def shape_variant(argv: list[str], rotate: bool, shift: int) -> list[str]:
    """The same skew diagram rotated by 180 degrees and/or moved `shift` columns right.

    Both moves keep the multiset of Jacobi-Trudi subscripts along the
    permutations of each cycle type, so the command's answer and its work
    are unchanged.  The row count is len(outer), as in every workload op.
    """
    args = list(argv)
    if "--inner" not in args:
        args += ["--inner", "-"]
    i, j = args.index("--outer") + 1, args.index("--inner") + 1
    outer = parse_parts(args[i])
    n = len(outer)
    inner = (parse_parts(args[j]) + [0] * n)[:n]
    if rotate:
        width = outer[0]
        outer, inner = [width - x for x in reversed(inner)], [width - x for x in reversed(outer)]
    outer = [x + shift for x in outer]
    inner = [x + shift for x in inner]
    args[i], args[j] = _text(outer), _text(inner)
    return args


def draw_ops(workload: str, seed: int) -> list[list[str]]:
    spec = DESIGN["workloads"][workload]
    ops = [list(op) for op in spec["ops"]]
    if spec["family"] == "symmetry":
        rng = random.Random(f"{workload}/{seed}")
        ops = [shape_variant(op, rng.randrange(2) == 1, rng.randrange(4)) for op in ops]
        rng.shuffle(ops)
    return ops


def variants_of(workload: str, op: list[str]) -> list[list[str]]:
    """Every form of one operation that some seed can draw."""
    if DESIGN["workloads"][workload]["family"] != "symmetry":
        return [list(op)]
    out = {}
    for rotate in (False, True):
        for shift in range(4):
            v = shape_variant(op, rotate, shift)
            out.setdefault(op_key(v), v)
    return list(out.values())


def all_variants(workload: str) -> list[list[str]]:
    return [v for op in DESIGN["workloads"][workload]["ops"] for v in variants_of(workload, op)]


# ------------------------------------------------------------ execution


@dataclass
class OpResult:
    argv: list[str]
    wall_s: float  # scaled to the reference host, see HostSpeed
    cpu_s: float  # scaled to the reference host
    raw_wall_s: float
    raw_cpu_s: float
    rss_mb: float
    stdout: bytes
    error: str | None = None
    layers: Counter | None = None


class HostSpeed:
    """Calibration slices (bench/calibrate.py) between children.

    Every child runs between two slices, the one before it (shared with the
    previous child) and the one after it.  Their mean says how fast the host
    ran around the child; the child's times are scaled by REFERENCE_S over it,
    so that drift of the shared host cancels and the program's own speed stays.
    """

    last: tuple[float, float] | None = None

    @classmethod
    def around(cls, child):
        before = cls.last or slice_times()
        out = child()
        cls.last = after = slice_times()
        wall_scale = 2 * REFERENCE_S / (before[0] + after[0])
        cpu_scale = 2 * REFERENCE_S / (before[1] + after[1])
        return out, wall_scale, cpu_scale


def run_child(cmd: list[str], env: dict) -> tuple[float, float, float, bytes, int | None, str]:
    """Run one child to completion through bench/launch.py.

    Returns (wall, cpu, max RSS in MB, stdout, exit code or None on timeout, stderr).
    """
    WORK.mkdir(parents=True, exist_ok=True)
    err_path, result_path = WORK / "stderr", WORK / "launched"
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, "-I", "-S", str(LAUNCH), str(result_path), str(OP_TIMEOUT_S)]
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(launcher + cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        out = None
        try:
            out = proc.stdout.read()
        finally:
            if out is None:  # interrupted: the launcher kills the command on SIGTERM
                proc.terminate()
            proc.wait()
            proc.stdout.close()
    stderr = err_path.read_bytes().decode(errors="replace")
    if not result_path.exists():
        return 0.0, 0.0, 0.0, out, proc.returncode or 1, f"launcher failed: {stderr}"
    wall, cpu, rss_kb, code, timed_out = result_path.read_text().split()
    return float(wall), float(cpu), int(rss_kb) / 1024, out, None if timed_out == "1" else int(code), stderr


def run_op(argv: list[str], refs: dict, traced: bool = False) -> OpResult:
    env = child_env()
    span_file = WORK / "spans.bin"
    if traced:
        cmd = [sys.executable, str(TRACED_CLI), str(span_file), *argv]
    else:
        cmd = [sys.executable, "-m", "immanants.cli", *argv]
    (wall, cpu, rss, out, code, stderr), wall_scale, cpu_scale = HostSpeed.around(lambda: run_child(cmd, env))
    result = OpResult(argv, wall * wall_scale, cpu * cpu_scale, wall, cpu, rss, out)
    if code is None:
        result.error = f"timed out after {OP_TIMEOUT_S} s"
    elif code != 0:
        result.error = f"exit code {code}: {stderr.strip()[-300:]}"
    elif refs.get(op_key(argv)) != hashlib.sha256(out).hexdigest():
        result.error = "stdout digest differs from the reference"
    if traced and span_file.exists():
        result.layers = layer_stats(span_file)
        span_file.unlink()
    return result


def layer_stats(path: Path) -> Counter:
    """Self time and call count per span name and per module, plus the tracer's counters."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        spans = {}
        for attr, code in ARRAYS:
            spans[attr] = array(code)
            spans[attr].fromfile(f, n)
    names = header["names"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    covered = [0.0] * n
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            covered[p] += dur[i]
    stats: Counter = Counter()
    for i, name_id in enumerate(spans["name"]):
        name = names[name_id]
        self_s = dur[i] - covered[i]
        stats[name + ".self_s"] += self_s
        stats[name + ".calls"] += 1
        stats[name.split(".", 1)[0] + ".self_s"] += self_s
    stats.update(header["counters"])
    stats["trace.spans"] = n
    stats["cli.import_s"] = header["import_s"]
    return stats


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, result: OpResult) -> OpResult:
        self.attempted += 1
        if result.error:
            self.failed += 1
            print(f"FAILED {op_key(result.argv)}: {result.error}", file=sys.stderr)
        return result


@dataclass
class Pass:
    results: list[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def raw_wall_s(self) -> float:
        return sum(r.raw_wall_s for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)

    def layers(self) -> dict[str, float]:
        total: Counter = Counter()
        for r in self.results:
            total.update(r.layers or {})
        calls = total["tableaux.kostka.calls"]
        total["tableaux.kostka.zero_ratio"] = total["tableaux.kostka.zeros"] / calls if calls else 0.0
        total["tableaux.kostka.distinct_ratio"] = (
            total["tableaux.kostka.distinct"] / calls if calls else 0.0
        )
        total["cli.import_s"] = statistics.median((r.layers or {}).get("cli.import_s", 0.0) for r in self.results)
        total["cli.stdout_bytes"] = sum(len(r.stdout) for r in self.results)
        return total


def run_pass(ops: list[list[str]], refs: dict, tally: Tally, traced: bool = False) -> Pass:
    return Pass([tally.check(run_op(op, refs, traced)) for op in ops])


def measure(ops: list[list[str]], seconds: float, trace: bool, refs: dict) -> dict:
    """One run: warm-up, then set-up samples and passes until the next pass would overrun `seconds`."""
    tally = Tally()
    for _ in range(WARM_UPS):
        tally.check(run_op(SETUP_COMMAND, refs))

    setup: list[OpResult] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # Set-up samples are spread over the run, so they see the same host as the passes.
        setup += [tally.check(run_op(SETUP_COMMAND, refs)) for _ in range(DESIGN["setup_repeats"])]
        plain.append(run_pass(ops, refs, tally))
        if trace:
            traced.append(run_pass(ops, refs, tally, traced=True))
            for a, b in zip(plain[-1].results, traced[-1].results):
                if a.stdout != b.stdout:
                    tally.failed += 1
                    print(f"FAILED {op_key(a.argv)}: traced stdout differs", file=sys.stderr)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    median = statistics.median
    walls = [p.wall_s for p in plain]
    raw_walls = [p.raw_wall_s for p in plain]
    print(
        f"{len(plain)} plain passes{f' and {len(traced)} traced' if trace else ''}; "
        f"pass_s median {median(walls):.3f} min {min(walls):.3f} max {max(walls):.3f} "
        f"(unscaled median {median(raw_walls):.3f}); "
        f"setup_s median of {len(setup)}: {median(r.wall_s for r in setup):.4f} "
        f"(unscaled {median(r.raw_wall_s for r in setup):.4f})"
    )
    if trace:
        layers = [p.layers() for p in traced]
        metrics = {
            m["name"]: {"value": median(l.get(m["name"], 0) for l in layers), "unit": m["unit"]}
            for m in DESIGN["per_layer"]
        }
        # Span times are unscaled, so the overhead is too.
        overhead = median(p.raw_wall_s for p in traced) - median(raw_walls)
        metrics["trace.overhead_s"]["value"] = overhead
    else:
        values = {
            "pass_s": median(walls),
            "cpu_s": median(p.cpu_s for p in plain),
            "peak_rss_mb": median(p.peak_rss_mb for p in plain),
            "setup_s": median(r.wall_s for r in setup),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in DESIGN["end_to_end"]}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def clean_work() -> None:
    for leftover in WORK.glob("*"):
        leftover.unlink()
    for directory in (WORK, WORK.parent):
        with contextlib.suppress(OSError):  # missing, or still used by another run
            directory.rmdir()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def record_references() -> None:
    refs = {}
    for argv in [SETUP_COMMAND] + [v for w in DESIGN["workloads"] for v in all_variants(w)]:
        wall, _, _, out, code, stderr = run_child([sys.executable, "-m", "immanants.cli", *argv], child_env())
        if code != 0:
            raise SystemExit(f"{op_key(argv)} exited {code}: {stderr}")
        refs[op_key(argv)] = hashlib.sha256(out).hexdigest()
        print(f"{wall:7.3f} s  {op_key(argv)}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(DESIGN["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "immanants" / "cli.py").is_file():
        print(f"no immanants source tree under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    try:
        if args.record_references:
            record_references()
            return 0
        result = measure(draw_ops(args.workload, args.seed), args.seconds, bool(args.trace), load_references())
    finally:
        clean_work()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
