"""The additive quotient category on dyadic objects: formal sums, scalar
matrices over basic morphisms, classification, kernels and cokernels.

A single nonzero basic morphism takes the closed form: its kernel and
cokernel are the pieces of the two words left after deleting the overlap of
the graph map (`strings.kernel_cokernel_strings`).  Other morphisms take
the vertexwise path: kernels by vertexwise nullspaces on the string-module
side, then splitting into strings and transporting back through the
object-word dictionary.  Cokernels are mirrored kernels: the reflection of
the disk (`band.mirror`) is a duality sigma fixing add T, so coker f =
sigma ker(sigma f).  Both paths order the summands by their words, so they
agree exactly on the basics; on other morphisms a cokernel projection is
determined up to an automorphism of the cokernel.

`classify` and `kernel` read one set of matrices, the functor F of
C_pi / add T = mod End(T): at a cluster point s, F(f) is the matrix of f on
the summands supported at s, one per set of summands (`_vertex_matrices`).
A basic map acts on the whole common support of its ends, so only the
source of the supports differs: kernels take the vertices of the words they
compute on, `classify` takes `walk.support` from the geometry.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .band import Obj, mirror
from .cluster import ClusterPt, member
from .walk import support, hom_ct_dim, compose_basic_nonzero
from .strings import (StringWord, to_rep, direct_sum, decompose_rep,
                      kernel_cokernel_strings, overlap, restrict_rep)
from .equiv import obj_to_string, string_to_obj
from .errors import ShapeMismatch


class SumObj(tuple):
    """Formal sum of indecomposables: the tuple of its summands, with the
    cluster summands, which are zero here, dropped."""

    __slots__ = ()

    def __new__(cls, summands=()):
        return tuple.__new__(cls, (s for s in summands if member(s) is None))

    def multiset(self):
        return tuple(sorted(self, key=Obj.sort_key))

    def isomorphic(self, other: "SumObj") -> bool:
        return self.multiset() == other.multiset()

    def __str__(self) -> str:
        return " + ".join(str(s) for s in self) if self else "0"

    __repr__ = __str__


Classification = namedtuple("Classification", "is_zero is_mono is_epi is_iso")


class MorQ(namedtuple("MorQ", "src dst entries")):
    """Matrix of scalars over basic morphisms src_j -> dst_i; entries over
    vanishing hom spaces are normalized to zero.  An entry is exact, as in
    `linalg`: an int when it is integral and a Fraction otherwise.  The
    morphism equals and hashes as the tuple (src, dst, entries)."""

    __slots__ = ()

    def __new__(cls, src: SumObj, dst: SumObj, entries):
        rows = tuple(tuple(linalg.exact(Fraction(v)) for v in row) for row in entries)
        if len(rows) != len(dst) or any(len(r) != len(src) for r in rows):
            raise ShapeMismatch(f"entries must be {len(dst)}x{len(src)}")
        cleaned = tuple(tuple(v if hom_ct_dim(s, d) == 1 else 0 for s, v in zip(src, row))
                        for d, row in zip(dst, rows))
        return tuple.__new__(cls, (src, dst, cleaned))

    @classmethod
    def _from_clean(cls, src: SumObj, dst: SumObj, entries) -> "MorQ":
        """A MorQ from entries (a tuple of rows, tuples of exact values)
        already 0 over every vanishing hom space, without a `hom_ct_dim`
        test each."""
        return tuple.__new__(cls, (src, dst, entries))

    def __repr__(self) -> str:
        return f"MorQ({self.src} -> {self.dst}, {self.entries})"


def identity_mor(x: SumObj) -> MorQ:
    return MorQ(x, x, linalg.identity(len(x)))


def zero_mor(src: SumObj, dst: SumObj) -> MorQ:
    return MorQ._from_clean(src, dst, linalg.zeros(len(dst), len(src)))


def basic_mor(src: Obj, dst: Obj, scalar=1) -> MorQ:
    """scalar times the basic morphism src -> dst, 0 when the hom vanishes."""
    c, s, d = linalg.exact(Fraction(scalar)), SumObj([src]), SumObj([dst])
    if not (s and d):  # a cluster summand is zero here, so the 1x1 entries do not fit
        raise ShapeMismatch(f"entries must be {len(d)}x{len(s)}")
    return MorQ._from_clean(s, d, ((c if hom_ct_dim(src, dst) else 0,),))


def compose(g: MorQ, f: MorQ) -> MorQ:
    """Matrix product; a product of two nonzero entries, so over nonzero homs,
    counts when its composite survives the quotient (`compose_basic_nonzero`)."""
    if f.dst != g.src:
        raise ShapeMismatch("codomain of f must equal domain of g")
    rows = []
    for g_row, z in zip(g.entries, g.dst):
        row = []
        for j, x in enumerate(f.src):
            total = 0
            for a, f_row, y in zip(g_row, f.entries, g.src):
                if a and f_row[j] and compose_basic_nonzero(x, y, z):
                    total += a * f_row[j]
            row.append(linalg.exact(total))
        rows.append(tuple(row))
    return MorQ._from_clean(f.src, g.dst, tuple(rows))


def _vertex_matrices(f: MorQ, supp_src, supp_dst):
    """F(f) by signature: the bitmask of the summands present at each point
    (bit i for dst row i, bit len(dst) + j for src column j; supp_dst[i] and
    supp_src[j] hold their points), and per signature (matrix, dst rows, src
    cols), f on those summands.  An entry over a zero hom space is already
    0 (`MorQ`), and a basic map x -> y acts at every point of support(x) &
    support(y):

    Lemma.  If hom_ct_dim(x, y) == 1, the overlap of the graph map w_x -> w_y
    is every vertex the two words share (a word's vertices are the support).
    1. Consecutive letters of a reduced word lie in different triangles:
       two letters of one triangle either compose or backtrack.  So the
       letters' triangles, and the far triangle at each end vertex, form a
       path in the dual tree of the triangulation whose edges are the
       word's vertices.
    2. Two paths in a tree meet in one path, so the common vertices form
       one run, a subword of both words with the same letters.
    3. The overlap lies in that run.  Were it a proper part of it, the
       next common vertex would be joined to the overlap by the same arrow
       in both words, two points sharing at most one triangle.  That arrow
       points out of the overlap in w_x, where the overlap is a factor,
       and into it in w_y, where it is a submodule: it cannot do both.
    4. The overlap is nonempty exactly when hom_ct_dim is 1 (criterion 1).
    Criterion 6 checks the lemma, and the translates of the common points,
    on every basic of its grid."""
    nd, sig, blocks = len(supp_dst), {}, {}
    for bit, supp in enumerate((*supp_dst, *supp_src)):
        for v in supp:
            sig[v] = sig.get(v, 0) | 1 << bit
    for mask in set(sig.values()):
        r = [i for i in range(nd) if mask >> i & 1]
        c = [j for j in range(len(supp_src)) if mask >> (nd + j) & 1]
        blocks[mask] = (tuple(tuple(f.entries[i][j] for j in c) for i in r), r, c)
    return sig, blocks


def classify(f: MorQ) -> Classification:
    """Zero/mono/epi/iso from F(f), one rank per signature (a row or a column
    has rank 1 iff it has a nonzero entry).  An all-zero f has F(f) = 0, and
    every summand, being off the cluster, has a nonempty support: so it is
    mono iff it has no source summand and epi iff it has no target summand.
    A 1x1 f is zero when its entry is 0 or its supports are disjoint, and
    otherwise a nonzero scalar on the common support: mono iff sx <= sy,
    epi iff sy <= sx."""
    if not any(map(any, f.entries)):
        return Classification(True, not f.src, not f.dst, not f.src and not f.dst)
    supp_src = [support(x) for x in f.src]
    supp_dst = [support(y) for y in f.dst]
    if len(supp_src) == len(supp_dst) == 1:
        (sx,), (sy,) = supp_src, supp_dst
        if sx.isdisjoint(sy):
            return Classification(True, not sx, not sy, not sx and not sy)
        return Classification(False, sx <= sy, sy <= sx, sx == sy)
    is_zero = is_mono = is_epi = True
    for m, rows, cols in _vertex_matrices(f, supp_src, supp_dst)[1].values():
        r = linalg.rank(m) if min(len(rows), len(cols)) > 1 else int(any(map(any, m)))
        is_zero, is_mono, is_epi = is_zero and not r, is_mono and r == len(cols), is_epi and r == len(rows)
    return Classification(is_zero, is_mono, is_epi, is_mono and is_epi)


def hom_dim(a: SumObj, b: SumObj) -> int:
    return sum(hom_ct_dim(x, y) for x in a for y in b)


# -- kernels and cokernels ----------------------------------------------------

def _scalar_of_component(ov: frozenset[ClusterPt], values: dict[ClusterPt, int | Fraction]) -> int | Fraction:
    """values[v], exact values, must trace out scalar * (the basic graph map
    with support ov, empty when the hom space vanishes).  The scalar is 0
    over an empty overlap, that is over a zero hom (criterion 1), so
    matrices of these scalars suit `MorQ._from_clean`."""
    if ov:
        scal = None
        for v, val in values.items():
            if v in ov:
                if scal is None:
                    scal = val
                elif scal != val:
                    raise AssertionError("component not a scalar multiple of a basic map")
            elif val != 0:
                raise AssertionError("component supported off the basic overlap")
        return scal if scal is not None else 0
    if any(val != 0 for val in values.values()):
        raise AssertionError("nonzero component along a vanishing hom space")
    return 0


def _basic_words(f: MorQ) -> tuple[tuple[StringWord, ...], tuple[StringWord, ...]] | None:
    """Kernel and cokernel words of a single nonzero basic morphism, in the
    order decompose_rep peels them; None for any other morphism."""
    if len(f.src) != 1 or len(f.dst) != 1 or not f.entries[0][0]:
        return None
    return _basic_word_lists(f.src[0], f.dst[0])


@lru_cache(maxsize=16)
def _basic_word_lists(src: Obj, dst: Obj) -> tuple[tuple[StringWord, ...], tuple[StringWord, ...]]:
    """`_basic_words` of a basic src -> dst, whatever its scalar.  Callers ask
    `kernel` and `cokernel` of one morphism in turn, so a few entries let
    the second reuse the overlap scan of the first."""
    ker, cok = kernel_cokernel_strings(obj_to_string(src), obj_to_string(dst))
    return (tuple(sorted(ker, key=StringWord.sort_key)), tuple(sorted(cok, key=StringWord.sort_key)))


def kernel(f: MorQ) -> tuple[SumObj, MorQ]:
    """Kernel object and its inclusion; each kernel word is a submodule of
    the source word, so every entry of the inclusion is over a nonzero hom."""
    words = _basic_words(f)
    if words is None:
        return _kernel_rep(f)
    k_obj = SumObj([string_to_obj(w) for w in words[0]])
    return (k_obj, MorQ._from_clean(k_obj, f.src, ((1,) * len(k_obj),)))


def cokernel(f: MorQ) -> tuple[SumObj, MorQ]:
    """Cokernel object and its projection; each cokernel word is a factor of
    the target word, so every entry of the projection is over a nonzero hom."""
    words = _basic_words(f)
    if words is None:
        return _cokernel_rep(f)
    c_obj = SumObj([string_to_obj(w) for w in words[1]])
    return (c_obj, MorQ._from_clean(f.dst, c_obj, ((1,),) * len(c_obj)))


def _kernel_rep(f: MorQ) -> tuple[SumObj, MorQ]:
    """Kernel via nullspaces of F(f) on the string module of the source, one
    per signature (`_vertex_matrices`) where F(f) is nonzero, split into
    strings in `decompose_rep` order.  Where F(f) vanishes the kernel is the
    whole space, so `restrict_rep` keeps the source's matrices there."""
    if not len(f.src):
        return (SumObj(), zero_mor(SumObj(), f.src))
    words_src = [obj_to_string(x) for x in f.src]
    rep_src = direct_sum([to_rep(w) for w in words_src])
    sig, blocks = _vertex_matrices(f, [w.verts for w in words_src],
                                   [obj_to_string(y).verts for y in f.dst])
    kern = {mask: linalg.from_columns(linalg.nullspace(m, len(cols)), len(cols))
            for mask, (m, _, cols) in blocks.items() if any(map(any, m))}
    basis = {v: kern[sig[v]] for v in rep_src.dims if sig[v] in kern}
    pieces = decompose_rep(restrict_rep(rep_src, basis))
    k_obj = SumObj([string_to_obj(w) for w, _ in pieces])
    # each piece's embedding at v, in the coordinates of the summands at v
    vecs = [{v: linalg.matvec(basis[v], emb[v]) if v in basis else emb[v] for v in wk.verts}
            for wk, emb in pieces]
    entries = []
    for j, wj in enumerate(words_src):
        row = []
        for (wk, _), vec in zip(pieces, vecs):
            values = {v: vec[v][blocks[sig[v]][2].index(j)] for v in wk.verts if j in blocks[sig[v]][2]}
            row.append(_scalar_of_component(overlap(wk, wj), values))
        entries.append(tuple(row))
    return (k_obj, MorQ._from_clean(k_obj, f.src, tuple(entries)))


def _transpose(entries, ncols: int):
    return tuple(tuple(row[j] for row in entries) for j in range(ncols))


def _cokernel_rep(f: MorQ) -> tuple[SumObj, MorQ]:
    """Cokernel as a mirrored kernel: coker f = sigma ker(sigma f) for the
    duality sigma of `band.mirror`.  sigma f swaps source and target,
    mirrors each summand and transposes the entries (a basic x -> y goes to
    the basic sigma y -> sigma x); sigma fixes add T and reverses homs, so
    no summand drops out and every entry stays clean.  The inclusion of its
    kernel, mirrored back and transposed, is the projection.  The summands
    are put in the `StringWord.sort_key` order of their words, as
    `_kernel_rep` puts its own (the order of `decompose_rep`)."""
    mirrored = MorQ._from_clean(SumObj([mirror(y) for y in f.dst]), SumObj([mirror(x) for x in f.src]),
                                _transpose(f.entries, len(f.src)))
    k_obj, incl = _kernel_rep(mirrored)
    summands = [mirror(k) for k in k_obj]
    order = sorted(range(len(summands)), key=lambda i: obj_to_string(summands[i]).sort_key())
    rows = _transpose(incl.entries, len(summands))
    c_obj = SumObj([summands[i] for i in order])
    return (c_obj, MorQ._from_clean(f.dst, c_obj, tuple(rows[i] for i in order)))
