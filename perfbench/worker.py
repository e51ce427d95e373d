"""One workload in a fresh interpreter, so the library's caches start cold.

Protocol on stdin/stdout with the harness (`run.py`):
  1. read one line of JSON, the generated inputs, and build the operations;
  2. print `ready` (the harness times spawn-to-ready as set-up);
  3. read one command line: `exit` ends here, `run` continues;
  4. run every operation in order, timing each, then check the outputs;
  5. print one line of JSON with the timings (scaled to the reference speed
     of `reference.py`), failures, the output digest and, with --trace 1,
     the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EVERY_S = 0.1  # interval of the reference chunks during the timed work


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import moebius
    if ROOT / "src" not in Path(moebius.__file__).resolve().parents:
        raise ImportError(f"moebius imported from {moebius.__file__}, not from this checkout")


class FullCollections:
    """Seconds spent in full (generation 2) collections of the cyclic
    garbage collector, as a `gc.callbacks` entry."""

    def __init__(self):
        self.count, self.seconds, self._start = 0, 0.0, 0.0

    def __call__(self, phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.count += 1
            self.seconds += time.perf_counter() - self._start


def _time_ops(ops, speed, full) -> tuple[list, list[tuple[float, float, float]]]:
    """Run the operations in order; returns their outputs and, for each,
    its (start, end) and the seconds of full collections inside it."""
    outs, windows = [], []
    speed.sample()
    with speed.every(REFERENCE_EVERY_S):
        for op in ops:
            paused = full.seconds
            t0 = time.perf_counter()
            try:
                out = op.fn(*op.args)
            except Exception as exc:  # an operation that raises counts as failed
                out = exc
            windows.append((t0, time.perf_counter(), full.seconds - paused))
            outs.append(out)
    speed.sample()
    return outs, windows


def _criterion_windows(full) -> list[tuple[float, float, float]]:
    """Record, for each acceptance criterion the suite runs, its (start, end)
    and the seconds of full collections inside it."""
    from moebius import checks
    windows = []

    def timed(fn):
        def criterion(depth):
            paused = full.seconds
            t0 = time.perf_counter()
            try:
                return fn(depth)
            finally:
                windows.append((t0, time.perf_counter(), full.seconds - paused))
        return criterion

    checks.CRITERIA[:] = [(name, timed(fn)) for name, fn in checks.CRITERIA]
    return windows


def _latencies(speed, windows) -> list[float]:
    """Operation times at the reference speed, less the full collections in
    them: a full collection scans the whole heap and lands on whichever
    operation happens to trigger it."""
    return [(speed.work(t0, t1) - paused) * speed.factor(t0, t1) for t0, t1, paused in windows]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--checks", type=int, default=1)
    ap.add_argument("--spans", help="file for the recorded spans (with --trace 1)")
    args = ap.parse_args()

    _import_library()
    import reference
    import workloads
    # The parsed inputs are dropped once the operations are built.
    ops = workloads.materialise(args.workload, json.loads(sys.stdin.readline()))
    ready_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    speed = reference.Speed()
    full = FullCollections()
    gc.callbacks.append(full)
    criteria = _criterion_windows(full) if args.workload == "check-d3" else None
    outs, windows = _time_ops(ops, speed, full)
    gc.callbacks.remove(full)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Times at the reference speed; measured_wall_s is as measured.  wall_s
    # includes the full collections, the latencies do not.
    wall_s = sum(speed.scaled(t0, t1) for t0, t1, _ in windows)
    latencies = _latencies(speed, windows)
    result = {"attempted": len(ops), "peak_rss_mb": peak_rss_kb / 1024,
              "ready_rss_mb": ready_rss_kb / 1024, "wall_s": wall_s,
              "measured_wall_s": sum(speed.work(t0, t1) for t0, t1, _ in windows),
              "scale": speed.scale(), "full_collections": full.count,
              "full_collections_s": full.seconds * speed.scale()}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        # Spans are measured like the operation windows that hold them,
        # reference chunks included: scale them by the factor that takes the
        # windows to wall_s, once, so that no busy_s can exceed wall_s.
        factor = wall_s / sum(t1 - t0 for t0, t1, _ in windows)
        result["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}
        result["layers"]["cache.entries"] = tracing.cache_entries()
        result["missing_targets"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
        del tracer  # the spans are not needed for the checks

    errors = [f"{type(out).__name__}: {out}" for out in outs if isinstance(out, Exception)]
    failed = len(errors)
    if args.workload == "check-d3" and not errors:
        # The suite's criteria are this workload's operations.
        suite = outs[0]
        latencies = _latencies(speed, criteria)
        result["attempted"] = len(suite)
        failed = sum(not r.ok for r in suite)
        errors.extend(r.line() for r in suite if not r.ok)

    texts = []
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            texts.append(f"error {type(out).__name__}")
            continue
        texts.append(op.text(out))
        if args.checks and op.check is not None:
            try:
                ok = op.check(op, out)
            except Exception as exc:  # a check that raises is a failed check
                ok = False
                errors.append(f"check raised {type(exc).__name__}: {exc}")
            if not ok:
                failed += 1
                errors.append(f"output check failed: {texts[-1][:200]}")
    result.update(latencies_s=latencies, failed=failed, errors=errors[:20],
                  digest=workloads.digest(texts))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
