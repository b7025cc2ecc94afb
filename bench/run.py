"""Benchmark runner for sring: one workload per call, or all of them.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced then traced
    python3 bench/run.py --smoke                   # self-test at reduced size

Run from anywhere; the benchmark uses the sring sources in ``src/`` next to
this directory and exits with code 2, printing no result, when they are
missing.  Each run starts one fresh single-threaded interpreter for the
workload (``workload.py``) and, untraced, a few more that only time set-up;
only one of them runs at a time.  The last line on stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# Set-up alone is timed in this many extra processes; setup_s is the median
# over them and the workload process.
SETUP_SAMPLES = 7
# A run must end within 180 s; child processes get what is left of this.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh isolated interpreter and parse its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    cmd = [sys.executable, "-I", str(HERE / "workload.py"), "--root", str(ROOT), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES if size == "full" else 1):
            setups.append(child(common + ["--mode", "setup", "--seconds", "0"], deadline)["setup_s"])
    res = child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if trace:
        metrics = res["per_layer"]
    else:
        setups.append(res["setup_s"])
        metrics = {"setup_s": statistics.median(setups), **res["metrics"]}
        res["details"]["setup_samples"] = len(setups)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "details": res.get("details", {}),
        "problems": res["problems"],
        "spans_file": res.get("spans_file"),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec: dict, trace: int) -> dict[str, str]:
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def report(workload: str, seed: int, trace: int, result: dict, unit_of: dict) -> None:
    """Human-readable lines: every metric by name and unit, then the details."""
    out = sys.stdout
    kind = "per-layer (traced)" if trace else "end-to-end"
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {workload} seed={seed} {kind}", file=out)
    print(f"#   fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)", file=out)
    for name, value in result["metrics"].items():
        print(f"#   {name} = {value:.6g} {unit_of[name]}", file=out)
    for name, value in result["details"].items():
        unit = "s" if name.endswith("_s") else ""
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"#   {workload}.{name} = {shown} {unit}".rstrip(), file=out)
    if result["spans_file"]:
        print(f"#   spans written to {result['spans_file']}", file=out)
    for msg in result["problems"]:
        print(f"#   PROBLEM {msg}", file=out)


def final_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": result["unit_of"][name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def one(workload: str, seed: int, seconds: float, trace: int, size: str, spec: dict) -> dict:
    unit_of = units(spec, trace)
    result = run_workload(workload, seed, seconds, trace, size)
    unknown = set(result["metrics"]) ^ set(unit_of)
    if unknown:
        raise BenchError(f"metrics out of step with BENCHMARK.json: {sorted(unknown)}")
    result["unit_of"] = unit_of
    report(workload, seed, trace, result, unit_of)
    return result


def spans_add_up(m: dict) -> bool:
    """Layer self times plus the benchmark's own time make the traced total."""
    parts = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.bench_s"]
    return abs(parts - m["trace.total_s"]) <= 1e-6 * m["trace.total_s"]


def smoke(spec: dict) -> int:
    """Every workload at reduced size, untraced and traced, in a few seconds each."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = one(workload, DEFAULT_SEED, 1.0, trace, "smoke", spec)
            line = json.loads(final_line(result))
            want = units(spec, trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"# SMOKE FAILED: {workload} trace={trace}", file=sys.stderr)
                ok = False
            if trace and not spans_add_up(result["metrics"]):
                print(f"# SMOKE FAILED: {workload} layer times do not add up", file=sys.stderr)
                ok = False
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test at reduced size")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sring" / "__init__.py").is_file():
        print(f"error: no sring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload == "all":
            results = [
                one(w, args.seed, seconds, trace, "full", spec)
                for w in WORKLOADS
                for trace in (0, 1)
            ]
            for r in results:
                print(final_line(r))
            return 0 if all(r["correct"] for r in results) else 1
        result = one(args.workload, args.seed, seconds, args.trace, "full", spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(final_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
