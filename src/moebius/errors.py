"""Exception types shared across the library, and the bounds on input size:
the command line reports a `check` or `render` depth, or a `kernel` or
`cokernel` morphism, past its bound as a `ParseError`, and the rectangle
scan raises `DepthLimit` past its own."""

# The deepest grid `check --depth` accepts.  G(e) grows about 4x per
# exponent, and criterion 1 reads every ordered pair of it into
# `checks._hom_table`, one byte a pair:
#   depth 3:    91 classes off the cluster, 8.3 kB
#   depth 4:   435 classes, 189 kB
#   depth 5: 1,891 classes, 3.6 MB
#   depth 6: 7,875 classes, 62 MB
# Depth 6 has about 16 times the pairs of depth 5 and 19 times the basics
# (12M), so scaling a depth-5 run (criterion 1 23 s, criterion 6 70 s) puts
# it near 6 min in criterion 1 and 22 min in criterion 6.  The bound is 5,
# which takes under 2 min (README).
MAX_CHECK_DEPTH = 5

# The deepest cluster dots `render` draws: 2^(d+1) - 1 dots, and depth 12
# writes about 0.5 MB.
MAX_CLUSTER_DEPTH = 12

# The most cluster chords that the source summands, and the target
# summands, of a `kernel` or `cokernel` morphism may cross in all: the
# dimension of the string module that `strings.decompose_rep` splits.  A
# single nonzero basic morphism has a closed form and no bound.  Kernel plus
# cokernel of seeded n x n morphisms (`perfbench` `_matrix_morphism`, seeded
# "scale2:e:n"; 2-core Xeon VM, Python 3.11.7, one run each) took at most
# 5.0 s on each of 192 draws at or under the bound, 6x6 to 14x14 at
# exponents 16-64; the slowest, 14x14 at 32, took 3.2 s when run again
# alone.  Past it the tail grows fast: 12x12 at exponent 64 (about 1,490
# chords a side) took up to 7.0 s and 14x14 (about 1,750) up to 19.6 s.
MAX_KERNEL_DIM = 1024

# The deepest level `cluster.enum_in_rect_with_reps` scans, so rectangles
# of exponent 14 and below.  Only criterion 3 scans, to depth 7 at most
# (`check --depth 5`).
MAX_SCAN_DEPTH = 16


class MoebiusError(Exception):
    """Base class for all domain errors raised by this package."""


class BandBoundary(MoebiusError):
    """Coordinate pair lies on or outside the open band |y - x| < 1."""


class NotBasicAligned(MoebiusError):
    """No representative pair shares the coordinate required by the triangle family."""


class UnboundedRect(MoebiusError):
    """The rectangle touches the band boundary along a set carrying infinitely many cluster points."""


class DepthLimit(MoebiusError):
    """Enumeration would exceed the depth cap (MAX_SCAN_DEPTH)."""


class NotInCluster(MoebiusError):
    """Mutation requested at an object that is not a chord of the cluster."""


class InCluster(MoebiusError):
    """Operation undefined for objects lying in the standard cluster."""


class ShapeMismatch(MoebiusError):
    """Matrix morphism shapes are not composable."""


class NoMorphism(MoebiusError):
    """There is no nonzero morphism between the given string modules."""


class NotAModule(MoebiusError):
    """Vertex data violates the quiver relations."""


class InvalidWord(MoebiusError):
    """Letter sequence is not a valid reduced string."""


class Unreachable(MoebiusError):
    """Target vertex is not reachable by a digit walk from the base vertex."""


class AllOnesTail(MoebiusError):
    """Digit prefix consists entirely of ones; such tails are excluded."""


class AnswerTooLarge(MoebiusError):
    """An answer holds an int past the digits Python writes as text (`sys.get_int_max_str_digits`)."""


class ParseError(MoebiusError):
    """Malformed textual input."""
