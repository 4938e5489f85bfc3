"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seconds 2]

Checks, with short runs of every workload:
- the metric lists in run.py and spans.py match BENCHMARK.json;
- an untraced run prints every end-to-end metric with its unit, a
  traced run every per-layer metric with its unit, and no operation
  fails;
- the exact counts repeat exactly across two traced runs of one seed;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits 1 and lists the problems if any check fails.
"""

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import EXACT_COUNTS, PER_LAYER_UNITS  # noqa: E402


def run(cwd: Path, workload: str, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(problems, where, result, expected: dict):
    if result is None:
        problems.append(f"{where}: no result line")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        problems.append(f"{where}: {result.get('failed')} of "
                        f"{result.get('attempted')} operations failed")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{where}: metric {name} has unit {metrics[name].get('unit')}, "
                            f"expected {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)

    import run as bench_run
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if e2e != bench_run.END_TO_END_UNITS:
        problems.append("end_to_end in BENCHMARK.json differs from run.END_TO_END_UNITS")
    if layers != PER_LAYER_UNITS:
        problems.append("per_layer in BENCHMARK.json differs from spans.PER_LAYER_UNITS")

    for workload in (w["name"] for w in bench["workloads"]):
        code, result, err = run(ROOT, workload, args.seconds, 0)
        check_metrics(problems, f"{workload} trace 0 (exit {code})", result, e2e)
        counts = []
        for attempt in (1, 2):
            code, result, err = run(ROOT, workload, args.seconds, 1)
            check_metrics(problems, f"{workload} trace 1 #{attempt} (exit {code})",
                          result, layers)
            metrics = (result or {}).get("metrics", {})
            counts.append({name: metrics.get(name, {}).get("value") for name in EXACT_COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ: {counts[0]} vs {counts[1]}")
        print(f"{workload}: exact counts {counts[0]}", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(bare, bench["workloads"][0]["name"], args.seconds, 0)
        if code == 0 or result is not None:
            problems.append(f"bare directory: exit {code}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()

    for problem in problems:
        print("PROBLEM", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
