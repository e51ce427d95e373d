"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload kernels --seeds 1-10 [--json out.json]

For every metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  Each
run lasts `run_seconds` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One run of `run.py`; returns its result line and its whole output.
    Exits when the run fails or reports incorrect output."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} --trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} --trace {trace} reported incorrect output:\n"
                         f"{proc.stdout}")
    return result, proc.stdout


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for seed in parse_seeds(args.seeds):
        result, stdout = run_once(args.workload, seed, seconds, 0)
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        speed = [line.strip() for line in stdout.splitlines() if "reference chunk" in line]
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in runs[seed].items()),
              *speed, sep="\n  ", flush=True)

    summary = {}
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in next(iter(runs.values())):
        s = summarise([r[name] for r in runs.values()])
        summary[name] = s
        bound = bounds[name]
        flag = "" if s["spread"] <= bound / 3 else "  > bound/3"
        print(f"{name:<34} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.3f} {bound:>6}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                               "seeds": list(runs),
                                               "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
