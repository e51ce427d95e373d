"""Benchmark harness for the moebius library.

    python3 perfbench/run.py --workload {check-d3,kernels,queries} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src/`.
The harness generates the workload's inputs from the seed, runs the
workload in a fresh worker process (`worker.py`) and checks its outputs.
With --trace 0 it also times set-up and a series of cold CLI queries and
prints the end-to-end metrics; with --trace 1 it runs the workload once
plain and once traced (`tracing.py`) and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

SETUPS = 9             # set-ups timed per run; setup_s is their median
IMPORT_SAMPLES = 5     # fresh interpreters per import timing
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 30
INTERPRETER_NOMINAL_S = 0.05  # a bare interpreter start at the reference speed


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # identical runs for identical seeds
    return env


def run_worker(workload: str, inputs_line: str, command: str, trace: int = 0, checks: int = 1,
               spans: Path | None = None) -> tuple[tuple[float, float], dict | None]:
    """Spawn a worker; return the (spawn, ready) times and its result or None."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--trace", str(trace), "--checks", str(checks)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=child_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(inputs_line)
        proc.stdin.flush()
        ready = proc.stdout.readline()
        setup = (t0, time.perf_counter())
        if ready.strip() != "ready":
            raise BenchError(f"{workload} worker failed during set-up")
        out, _ = proc.communicate(command + "\n")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if command != "run":
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return setup, json.loads(lines[-1])


def interpreter_speed() -> reference.Speed:
    """Reference chunks for the cold CLI queries: a bare interpreter start.
    Half of a cold query is starting the interpreter, which slows down less
    than Python work does when the machine is loaded, so the computation
    chunk over-corrects it."""
    argv = [sys.executable, "-c", "pass"]
    return reference.Speed(lambda: subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                                                  timeout=CLI_TIMEOUT_S),
                           INTERPRETER_NOMINAL_S)


def run_cli(queries: list[dict], speed) -> tuple[list[tuple[float, float]], int, list[str]]:
    """Each query in a fresh `python -m moebius.cli` process, one at a time,
    after a reference chunk; the answer must equal the library's.  Returns
    the (start, end) of each, the failures and their messages."""
    times, failed, errors = [], 0, []
    for q in queries:
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "moebius.cli", *q["argv"]],
                              input=q.get("stdin", ""), capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=CLI_TIMEOUT_S)
        times.append((t0, time.perf_counter()))
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout) == q["expect"]
        except json.JSONDecodeError:
            ok = False
        if not ok:
            failed += 1
            errors.append(f"cli {' '.join(q['argv'])}: exit {proc.returncode} {proc.stderr.strip()[:200]}")
    return times, failed, errors


def import_seconds(module: str, speed) -> float:
    """Median time of `import module` in fresh interpreters, at the
    reference speed."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import {module} failed: {proc.stderr.strip()[-200:]}")
        samples.append((float(proc.stdout), t0, time.perf_counter()))
    return statistics.median(t * speed.factor(t0, t1) for t, t0, t1 in samples)


def latency_summary(seconds: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it; with fewer than 20 samples the tail is the maximum."""
    ms = sorted(s * 1000 for s in seconds)
    n = len(ms)
    if n >= 20:
        k = n - 11
        tail, pct, beyond = ms[k], 100 * (k + 1) / n, n - 1 - k
    else:
        tail, pct, beyond = ms[-1], 100.0, 0
    return {"p50": statistics.median(ms), "tail": tail, "tail_pct": pct,
            "tail_beyond": beyond, "n": n}


def untraced(workload: str, inputs: dict) -> tuple[dict, int, int, list[str], list[str]]:
    line = json.dumps({"ops": inputs["ops"]}) + "\n"
    speed = reference.Speed()  # a reference chunk before every worker spawn
    run_worker(workload, line, "exit")  # warm-up: byte-compiles, fills the file cache
    setups = []
    for i in range(SETUPS):
        speed.sample()
        setup, res = run_worker(workload, line, "run" if i == SETUPS - 1 else "exit")
        setups.append(setup)
    cli_speed = interpreter_speed()
    cli_times, cli_failed, cli_errors = run_cli(inputs["cli"], cli_speed)
    lat = latency_summary(res["latencies_s"])
    scaled = lambda windows, ref: statistics.median(ref.scaled(t0, t1) for t0, t1 in windows)
    measured = lambda windows: statistics.median(t1 - t0 for t0, t1 in windows)
    metrics = {"setup_s": scaled(setups, speed), "wall_s": res["wall_s"],
               "latency_p50_ms": lat["p50"], "latency_tail_ms": lat["tail"],
               "cli_cold_ms": scaled(cli_times, cli_speed) * 1000,
               "peak_rss_mb": res["peak_rss_mb"]}
    notes = [f"times are scaled to the reference speed; the reference chunk took "
             f"{reference.NOMINAL_S / res['scale'] * 1000:.3f} ms in the worker and "
             f"{reference.NOMINAL_S / speed.scale() * 1000:.3f} ms in the harness "
             f"(mean; nominal {reference.NOMINAL_S * 1000:g} ms)",
             f"measured: wall_s {res['measured_wall_s']:.6g}, setup_s {measured(setups):.6g}, "
             f"cli_cold_ms {measured(cli_times) * 1000:.6g}",
             f"latency_tail_ms is p{lat['tail_pct']:.2f} of {lat['n']} operations "
             f"({lat['tail_beyond']} beyond it)",
             f"the latencies leave out the {res['full_collections']} full garbage collections "
             f"({res['full_collections_s'] * 1000:.1f} ms at the reference speed); wall_s "
             f"includes them",
             f"cli_cold_ms is the median of {len(cli_times)} fresh CLI processes, scaled by "
             f"a bare interpreter start timed before each: it took "
             f"{INTERPRETER_NOMINAL_S / cli_speed.scale() * 1000:.3f} ms "
             f"(mean; nominal {INTERPRETER_NOMINAL_S * 1000:g} ms)",
             f"peak_rss_mb was {res['ready_rss_mb']:.1f} MB at ready: interpreter, library "
             f"import and the operations built from the inputs",
             f"setup_s is the median of {len(setups)} set-ups",
             f"digest {res['digest']}"]
    attempted = res["attempted"] + len(cli_times)
    failed = res["failed"] + cli_failed
    return metrics, attempted, failed, res["errors"] + cli_errors, notes


def traced(workload: str, inputs: dict) -> tuple[dict, int, int, list[str], list[str]]:
    line = json.dumps({"ops": inputs["ops"]}) + "\n"
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}.bin"
    _, plain = run_worker(workload, line, "run", checks=0)
    _, res = run_worker(workload, line, "run", trace=1, spans=spans)
    layers = res["layers"]
    speed = reference.Speed()
    layers["import.moebius_s"] = import_seconds("moebius", speed)
    layers["import.cli_s"] = import_seconds("moebius.cli", speed)
    criteria = plain["latencies_s"] if workload == "check-d3" else []
    for i in range(11):
        layers[f"checks.c{i + 1:02d}_s"] = criteria[i] if i < len(criteria) else 0.0
    plain_wall, traced_wall = plain["wall_s"], res["wall_s"]
    layers["trace.overhead_ratio"] = traced_wall / plain_wall
    errors = plain["errors"] + res["errors"]
    failed = res["failed"] + plain["failed"]
    # Every span lies inside the timed work, so no layer is busy longer.
    over = [f"{name} {value:.6g} s exceeds the traced wall_s {traced_wall:.6g} s"
            for name, value in layers.items() if name.endswith(".busy_s") and value > traced_wall]
    failed += len(over)
    errors += over
    if plain["digest"] != res["digest"]:
        failed += 1
        errors.append(f"traced digest {res['digest']} != untraced digest {plain['digest']}")
    if res["missing_targets"]:
        print("tracing: missing " + ", ".join(res["missing_targets"]), file=sys.stderr)
    notes = [f"times are scaled to the reference speed; the reference chunk took "
             f"{reference.NOMINAL_S / res['scale'] * 1000:.3f} ms traced and "
             f"{reference.NOMINAL_S / plain['scale'] * 1000:.3f} ms plain "
             f"(mean; nominal {reference.NOMINAL_S * 1000:g} ms)",
             f"digest {res['digest']} (traced and untraced)",
             f"spans {layers.pop('trace.spans')} written to {spans.relative_to(ROOT)}",
             f"wall_s plain {plain_wall:.4f} s, traced {traced_wall:.4f} s"]
    return layers, res["attempted"], failed, errors, notes


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics to print, from BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "moebius" / "__init__.py").is_file():
        print(f"run.py: no library at {SRC / 'moebius'}", file=sys.stderr)
        return 2
    # One core for the harness and every process it starts: the reference
    # chunks then time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    try:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
        units = metric_units(args.trace)
        inputs = workloads.generate(args.workload, args.seed, args.seconds)
        run = traced if args.trace else untraced
        values, attempted, failed, errors, notes = run(args.workload, inputs)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError("BENCHMARK.json names metrics the harness does not measure: "
                             + ", ".join(missing))
    except (BenchError, ImportError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        # OSError: a worker that died early closes its pipe; ValueError: a
        # result line that is not JSON.
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for line in notes + [f"FAIL {err}" for err in errors]:
        print(f"  {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
