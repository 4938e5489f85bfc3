"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py desk wide ood_sweep --seeds 10 --out sweep.json

For each workload it runs `run.py` once per seed 1..N, one run at a
time, and prints every metric's median, quartiles and spread: the
distance between the quartiles (`statistics.quantiles(n=4)`) as a share
of the median. An end-to-end spread above a third of its bound in
BENCHMARK.json is marked. With --out, all values go to a JSON file,
which is how baseline.json was made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        values = {}
        for res in runs:
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        result[workload] = {"runs": runs, "summary": {}}
        for name, vals in values.items():
            s = summarise(vals)
            result[workload]["summary"][name] = s
            bound = bounds.get(name)
            mark = " WIDE" if bound is not None and s["spread"] > bound / 3 else ""
            print(f"{workload:10s} {name:44s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}{'' if bound is None else f' bound {bound}'}{mark}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
