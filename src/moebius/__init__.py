"""Exact computations in the rational cluster-tilted quotient of the
continuous cluster category, and its category of string modules.

Angular coordinates are stored in units of pi throughout: the circle is
R mod 2, the band is {(x, y) : |y - x| < 1} modulo (x, y) ~ (y+1, x+1),
and all scalars are exact rationals.

The names below are re-exported lazily (PEP 562): `import moebius` loads no
layer, and `moebius.walk_of` imports `moebius.walk` on first use.
"""

import importlib
import sys

_EXPORTS = {
    "dyadic": ("Dyadic", "parse_dyadic"),
    "band": ("Obj", "Rect", "normal_form", "obj_from_ends", "ends",
             "hom_c_dim", "compatible", "triangle_complete", "parse_obj"),
    "cluster": ("ClusterPt", "ClusterOverlay", "STANDARD", "member", "object_of",
                "chord", "depth", "neighbors", "in_neighbors", "out_neighbors",
                "enum_in_rect", "mutate", "parse_cluster_pt"),
    "walk": ("Walk", "Approximation", "support", "walk_of", "approximation",
             "hom_ct_dim", "tau_dims", "concrete_epsilon"),
    "strings": ("StringWord", "RepFin", "word", "validate_word", "hom_dim_strings",
                "kernel_cokernel_strings", "to_rep", "decompose_rep", "parse_word"),
    "equiv": ("DigitPrefix", "obj_to_string", "string_to_obj", "simple_object",
              "transport_mor", "transport_mor_inverse", "digits_to_coords",
              "coords_to_digits", "g_extend", "f_strip", "tail_case"),
    "quotient": ("SumObj", "MorQ", "identity_mor", "zero_mor", "basic_mor",
                 "compose", "classify", "kernel", "cokernel", "hom_dim"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the layer modules that resolve as attributes, e.g. `moebius.quotient.kernel`
_MODULES = (*_EXPORTS, "linalg", "errors")

__all__ = [*_HOME, "errors", "clear_caches"]
__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache of the layers imported so far, importing none."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__name__}.") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value.__module__ == name:
                    value.cache_clear()


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
