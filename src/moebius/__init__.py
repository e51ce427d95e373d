"""Exact computations in the rational cluster-tilted quotient of the
continuous cluster category, and its category of string modules.

Angular coordinates are stored in units of pi throughout: the circle is
R mod 2, the band is {(x, y) : |y - x| < 1} modulo (x, y) ~ (y+1, x+1),
and all scalars are exact rationals.
"""

from .dyadic import Dyadic, CircleAngle, lift_into_window, parse_dyadic
from .band import (Obj, Rect, normal_form, obj_from_ends, ends,
                   hom_c_dim, compatible, triangle_complete, parse_obj)
from .cluster import (ClusterPt, ClusterOverlay, STANDARD, member, object_of,
                      chord, depth, neighbors, in_neighbors, out_neighbors,
                      enum_in_rect, mutate, parse_cluster_pt)
from .walk import (Walk, Approximation, support, walk_of, minimal_walk,
                   approximation, hom_ct_dim, tau_dims, concrete_epsilon)
from .strings import (QArrow, StringWord, RepFin, arrows_at, word,
                      validate_word, hom_dim_strings, kernel_cokernel_strings,
                      to_rep, decompose_rep, parse_word)
from .equiv import (DigitPrefix, obj_to_string, string_to_obj, simple_object,
                    transport_mor, transport_mor_inverse, digits_to_coords,
                    coords_to_digits, g_extend, f_strip, tail_case)
from .quotient import (SumObj, MorQ, identity_mor, zero_mor, basic_mor,
                       compose, classify, kernel, cokernel, hom_dim)
from . import errors

__version__ = "0.1.0"
