"""Every functools cache in `moebius` must be hit by the acceptance suite.

A cache whose lookups all miss only costs memory and hashing; this keeps one
from coming back.  The suite runs in a fresh interpreter, because earlier
tests warm the caches.
"""

import subprocess
import sys
from pathlib import Path

import moebius

# Read by the benchmark tracer's `cluster.enum.hit_ratio` (`HIT_RATIOS` in
# perfbench/tracing.py), so it stays cached though the suite asks each
# rectangle once.
EXEMPT = {"moebius.cluster.enum_in_rect_with_reps"}

_AUDIT = """
import sys
import moebius, moebius.checks, moebius.render
moebius.checks.run_all(2)
for name, mod in sorted(sys.modules.items()):
    if name == "moebius" or name.startswith("moebius."):
        for attr, fn in vars(mod).items():
            if callable(getattr(fn, "cache_info", None)) and fn.__module__ == name:
                print(f"{name}.{attr}", fn.cache_info().hits)
"""


def test_every_cache_is_hit():
    src = str(Path(moebius.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _AUDIT], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    hits = {name: int(n) for name, n in (line.split() for line in out.splitlines())}
    assert "moebius.walk.hom_ct_dim" in hits
    assert [name for name, n in hits.items() if n == 0 and name not in EXEMPT] == []
