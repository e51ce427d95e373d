"""Every functools cache in `moebius` must be listed with its finite bound
and be hit by the acceptance suite, and `moebius.clear_caches` empties them.

A cache whose lookups all miss only costs memory and hashing; this keeps one
from coming back, and the inventory keeps a cache with no documented bound
(README, "caches") from coming in.  The suite runs in a fresh interpreter,
because earlier tests warm the caches.
"""

import itertools
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moebius

# Read by the benchmark tracer's `cluster.enum.hit_ratio` (`HIT_RATIOS` in
# perfbench/tracing.py), so it stays cached though the suite asks each
# rectangle once.
EXEMPT = {"moebius.cluster.enum_in_rect_with_reps"}

# Every cache in `moebius` after the criteria at depth 2, by its bound.  The
# quiver is a closed form and has none.
INVENTORY = {
    "moebius.checks.grid_off_cluster": 2,
    "moebius.checks._hom_table": 2,
    "moebius.cluster.enum_in_rect_with_reps": 4096,
    "moebius.cluster.object_of": 4096,
    "moebius.equiv.obj_to_string": 8192,
    "moebius.equiv.string_to_obj": 8192,
    "moebius.quotient._basic_word_lists": 16,
    "moebius.walk.hom_ct_dim": 4096,
    "moebius.walk.support": 4096,
    "moebius.walk.walk_of": 8192,
}

# The criteria one by one, as `checks.run_all(2)` runs them, but without its
# last step, which drops the hom tables and their hit counts.
_AUDIT = """
import sys
import moebius, moebius.checks, moebius.render
for _, criterion in moebius.checks.CRITERIA:
    assert criterion(2)[0]
for name, mod in sorted(sys.modules.items()):
    if name == "moebius" or name.startswith("moebius."):
        for attr, fn in vars(mod).items():
            if callable(getattr(fn, "cache_info", None)) and fn.__module__ == name:
                print(f"{name}.{attr}", fn.cache_info().hits, fn.cache_info().maxsize)
"""


@pytest.fixture(scope="module")
def audit():
    """Each cache after the suite at depth 2: its hits and its bound."""
    src = str(Path(moebius.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _AUDIT], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return {name: (int(hits), None if bound == "None" else int(bound))
            for name, hits, bound in (line.split() for line in out.splitlines())}


def test_every_cache_is_hit(audit):
    assert "moebius.walk.hom_ct_dim" in audit
    assert [name for name, (hits, _) in audit.items() if hits == 0 and name not in EXEMPT] == []


def test_caches_are_the_listed_ones_with_their_bounds(audit):
    assert {name: bound for name, (_, bound) in audit.items()} == INVENTORY
    assert all(isinstance(bound, int) for bound in INVENTORY.values())


def test_readme_cache_table_is_the_inventory():
    # the README table after "The bounds:": each cache named in backticks, by
    # the first integer of its bound
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.split("The bounds:", 1)[1].strip().splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]  # past the header
    table = {}
    for row in rows:
        name, bound = row.split("|")[1:3]
        bound = re.search(r"\d[\d,]*", bound)[0]
        table["moebius." + re.search(r"`(.+?)`", name)[1]] = int(bound.replace(",", ""))
    assert table == INVENTORY


def test_run_all_drops_the_hom_tables():
    from moebius import checks
    assert all(r.ok for r in checks.run_all(1))
    assert checks._hom_table.cache_info().currsize == 0


def test_clear_caches_empties_every_listed_cache_and_changes_no_result():
    import importlib
    from moebius import checks
    first = [(r.ok, r.detail) for r in checks.run_all(2)]
    checks._hom_table(2)  # run_all drops the tables itself, so fill one
    caches = {name: getattr(importlib.import_module(module), attr)
              for name in INVENTORY for module, attr in [name.rsplit(".", 1)]}
    assert any(fn.cache_info().currsize for fn in caches.values())
    moebius.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items()} == dict.fromkeys(INVENTORY, 0)
    assert [(r.ok, r.detail) for r in checks.run_all(2)] == first


def test_clear_caches_imports_no_layer():
    probe = ("import sys, moebius; moebius.clear_caches(); "
             "print(sorted(m for m in sys.modules if m.startswith('moebius')))")
    src = str(Path(moebius.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "['moebius']"


def test_word_round_trips_fill_no_cluster_or_strings_cache():
    # a word's letters and attach vertices are read off integers, not cached
    from moebius import cluster, strings
    from moebius.band import normal_form
    from moebius.equiv import obj_to_string, string_to_obj
    from moebius.strings import parse_word
    caches = [fn for mod in (cluster, strings) for fn in vars(mod).values()
              if callable(getattr(fn, "cache_info", None))]
    rng = random.Random(64)
    words = []
    while len(words) < 100:
        xn = rng.randrange(2 << 64) | 1
        x = normal_form(xn, xn + rng.randrange(1 << 64), 64)
        if cluster.member(x) is None:
            words.append(obj_to_string(x))
    before = [fn.cache_info().misses for fn in caches]
    for w in words:
        assert obj_to_string(string_to_obj(parse_word(str(w)))) == w
    assert [fn.cache_info().misses for fn in caches] == before
