"""What a cold process imports, and the public namespace of `moebius`.

`import moebius` loads no layer, and each CLI subcommand imports the layers
it uses when it is dispatched.  These run in fresh interpreters, because the
test process has imported every layer already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moebius

_SRC = str(Path(moebius.__file__).resolve().parent.parent)

# Run `main` on argv after recording what `import moebius.cli` loaded; the
# last stdout line is the JSON record, with the heavier standard modules
# loaded by the end.
_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "moebius" or m.startswith("moebius."))
import moebius
package = loaded()
import moebius.cli
cli = loaded()
code = moebius.cli.main(sys.argv[1:])
stdlib = sorted(m for m in ("dataclasses", "fractions") if m in sys.modules)
print(json.dumps({"package": package, "cli": cli, "main": loaded(), "code": code, "stdlib": stdlib}))
"""


def _probe(*argv, stdin=""):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], input=stdin,
                          env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _layers(*names):
    return sorted(["moebius", *(f"moebius.{n}" for n in names)])


def test_hom_loads_only_the_walk_layers():
    record, err = _probe("hom", "M(1/8,1/4)", "M(1/4,3/4)", "--json")
    assert record["code"] == 0 and err == ""
    assert record["package"] == ["moebius"]
    # so no checks, quotient, render, strings, equiv or linalg before dispatch
    assert record["cli"] == _layers("cli", "errors")
    assert record["main"] == _layers("cli", "errors", "dyadic", "band", "cluster", "walk")


@pytest.mark.parametrize("argv", [("support", "M(1/4,3/4)"), ("walk", "M(1/4,3/4)"),
                                  ("approx", "M(1/8,1/4)"), ("mutate", "T(0,0)")])
def test_walk_queries_stop_at_walk(argv):
    record, _ = _probe(*argv)
    assert record["code"] == 0
    assert set(record["main"]) <= set(_layers("cli", "errors", "dyadic", "band", "cluster", "walk"))
    assert record["stdlib"] == []


@pytest.mark.parametrize("argv", [("to-string", "M(1/8,1/4)"), ("from-string", "T(1,0) > T(0,0)"),
                                  ("simple", "T(2,1)"), ("digits", "T(0,0)", "1", "0")])
def test_word_queries_load_neither_dataclasses_nor_fractions(argv):
    record, _ = _probe(*argv)
    assert record["code"] == 0
    # words and objects are read off chord ends, so no walk layer either
    assert "moebius.walk" not in record["main"]
    assert set(record["main"]) <= set(_layers("cli", "errors", "dyadic", "band", "cluster",
                                              "strings", "equiv"))
    assert record["stdlib"] == []


def test_kernel_loads_neither_checks_nor_render():
    morphism = {"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"], "entries": [[1]]}
    record, _ = _probe("kernel", "--json", stdin=json.dumps(morphism))
    assert record["code"] == 0
    assert "moebius.quotient" in record["main"]
    assert "moebius.checks" not in record["main"] and "moebius.render" not in record["main"]


@pytest.mark.parametrize("argv", [("kernel",), ("cokernel",), ("check", "--depth", "1")])
def test_quotient_and_check_load_no_dataclasses(argv):
    # `quotient.Classification` and `checks.CheckResult` are namedtuples
    morphism = {"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"], "entries": [[1]]}
    record, _ = _probe(*argv, stdin=json.dumps(morphism))
    assert record["code"] == 0
    assert "moebius.quotient" in record["main"]
    assert "dataclasses" not in record["stdlib"]


def test_render_loads_no_dataclasses():
    # `render.RenderSpec` is a namedtuple, so with the tests above no
    # subcommand loads `dataclasses`
    record, _ = _probe("render", "--spec", "-", "--walk", "M(1/4,3/4)",
                       stdin=json.dumps({"cluster_depth": 2}))
    assert record["code"] == 0
    assert "moebius.render" in record["main"]
    assert "dataclasses" not in record["stdlib"]


def test_check_depth_above_cap_never_imports_checks():
    record, err = _probe("check", "--depth", "6")
    assert record["code"] == 2
    assert err == "parse error: --depth must be between 1 and 5, got 6\n"
    assert "moebius.checks" not in record["main"]


# -- the public namespace -------------------------------------------------------

# Every name `moebius` exports, by the module that defines it.
PUBLIC = {
    "dyadic": ["Dyadic", "parse_dyadic"],
    "band": ["Obj", "Rect", "normal_form", "obj_from_ends", "ends", "hom_c_dim", "compatible",
             "triangle_complete", "parse_obj"],
    "cluster": ["ClusterPt", "ClusterOverlay", "STANDARD", "member", "object_of", "chord",
                "depth", "neighbors", "in_neighbors", "out_neighbors", "enum_in_rect", "mutate",
                "parse_cluster_pt"],
    "walk": ["Walk", "Approximation", "support", "walk_of", "approximation", "hom_ct_dim",
             "tau_dims", "concrete_epsilon"],
    "strings": ["StringWord", "RepFin", "word", "validate_word", "hom_dim_strings",
                "kernel_cokernel_strings", "to_rep", "decompose_rep", "parse_word"],
    "equiv": ["DigitPrefix", "obj_to_string", "string_to_obj", "simple_object", "transport_mor",
              "transport_mor_inverse", "digits_to_coords", "coords_to_digits", "g_extend",
              "f_strip", "tail_case"],
    "quotient": ["SumObj", "MorQ", "identity_mor", "zero_mor", "basic_mor", "compose",
                 "classify", "kernel", "cokernel", "hom_dim"],
}
NAMES = [name for names in PUBLIC.values() for name in names] + ["errors", "clear_caches"]


def test_public_names_resolve_to_their_home_objects():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"moebius.{module}")
        for name in names:
            assert getattr(moebius, name) is getattr(home, name), name
    assert moebius.errors is importlib.import_module("moebius.errors")
    assert moebius.quotient is importlib.import_module("moebius.quotient")


def test_dir_and_star_import_cover_the_public_names():
    assert set(NAMES) <= set(dir(moebius))
    assert sorted(moebius.__all__) == sorted(NAMES)
    namespace = {}
    exec("from moebius import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(moebius, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        moebius.no_such_name
    assert not hasattr(moebius, "no_such_name")
