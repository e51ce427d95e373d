"""Self-test of the benchmark: runs of one seed must agree exactly.

    python3 perfbench/selftest.py [--seconds S]

For each workload it makes two traced runs and one untraced run of seed 1,
and fails unless the two traced runs report identical counts (every
per-layer metric that is not a time or the trace overhead) and all three
runs report the same output digest.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from spread import ROOT, run_once

DIGEST = re.compile(r"digest ([0-9a-f]{64})")
SEED = 1


def run(workload: str, seconds: float, trace: int) -> tuple[dict, str]:
    result, stdout = run_once(workload, SEED, seconds, trace)
    return result["metrics"], DIGEST.search(stdout).group(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        first, d1 = run(workload, args.seconds, 1)
        second, d2 = run(workload, args.seconds, 1)
        _, d0 = run(workload, args.seconds, 0)
        counts = [name for name, m in first.items()
                  if m["unit"] != "s" and name != "trace.overhead_ratio"]
        differ = [f"{n}: {first[n]['value']} != {second[n]['value']}"
                  for n in counts if first[n]["value"] != second[n]["value"]]
        same_digest = d0 == d1 == d2
        ok = ok and not differ and same_digest
        print(f"{workload}: {len(counts)} counts {'identical' if not differ else 'DIFFER'}; "
              f"digests {'identical' if same_digest else 'DIFFER'} ({d1[:16]})")
        for line in differ:
            print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
