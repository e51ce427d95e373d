"""String combinatorics over the quiver of the cluster.

The quiver has the cluster points as vertices; each of the two triangles at
a chord contributes one in- and one out-arrow, reversed relative to the
irreducible cluster maps, and the composition of two arrows of the same
triangle is zero.  So the arrows leave v towards `cluster.in_neighbors(v)`
and enter it from `cluster.out_neighbors(v)`; `cluster.triangle` names the
triangle of an arrow and `cluster.arrow_dir` orients it.  A letter is the
(src, dst) pair of its arrow, the key of `RepFin.mats`; two adjacent points
share one triangle and one arrow, so a word holds only its vertices and
marks, and its letters are read off the quiver.  Finite-length
modules are direct sums of standard string modules, one dimension per vertex
of a reduced word.  The maps from a string module into a representation are
one nullspace (`_word_maps`), and the maps out of it that nullspace over the
opposite quiver; it depends only on the rows' span, so their order is free.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .cluster import ClusterPt, arrow_dir, in_neighbors, parse_cluster_pt, triangle
from .errors import InvalidWord, NoMorphism, NotAModule, ParseError

# `linalg` (and with it `fractions`) is imported by the functions that build
# or read a representation, so the word commands load neither; the
# annotations that name `linalg.Matrix` and `Fraction` are never evaluated.


class StringWord(namedtuple("StringWord", "verts lmark rmark")):
    """Reduced word: distinct vertices, joined by the letters `directs` reads
    off the quiver.  Words equal their reversals; construction canonicalizes
    the orientation.  Ray markers flag truncated infinite tails at either
    end.  It equals and hashes as the tuple of its fields."""

    __slots__ = ()

    def __new__(cls, verts, lmark: bool = False, rmark: bool = False):
        verts = tuple(verts)
        if (verts[::-1], (rmark, lmark)) < (verts, (lmark, rmark)):
            verts, lmark, rmark = verts[::-1], rmark, lmark
        return tuple.__new__(cls, (verts, lmark, rmark))

    def __len__(self) -> int:  # the module's dimension, not the tuple's three fields
        return len(self.verts)

    @property
    def directs(self) -> tuple[bool, ...]:
        """Each letter's direction, True for v_i -> v_{i+1} (`cluster.arrow_dir`)."""
        return tuple(map(arrow_dir, self.verts, self.verts[1:]))

    def sort_key(self):
        """Longest first, then by vertices, which fix the letters."""
        return (-len(self.verts), self.verts)

    @property
    def marked(self) -> bool:
        return self.lmark or self.rmark

    def __str__(self) -> str:
        arrows = ("", *(" > " if d else " < " for d in self.directs))
        body = "".join(a + str(v) for a, v in zip(arrows, self.verts))
        return ("~" if self.lmark else "") + body + ("~" if self.rmark else "")

    __repr__ = __str__


def word(verts, directs=None, lmark=False, rmark=False) -> StringWord:
    """Build a word; letter directions, when given, must be the quiver's.  A bad
    letter is named as written, a composing pair in the word's orientation:
    consecutive letters of one triangle run round its 3-cycle, so compose."""
    verts = tuple(verts)
    if directs is not None and len(directs) != max(len(verts) - 1, 0):
        raise InvalidWord("letter count must be one less than vertex count")
    if not verts:
        raise InvalidWord("empty word")
    if len(set(verts)) != len(verts):
        raise InvalidWord("repeated vertex")
    tris = []
    for i, (u, v) in enumerate(zip(verts, verts[1:])):
        tri = triangle(u, v)
        if tri is None or directs is not None and arrow_dir(u, v) != directs[i]:
            raise InvalidWord(f"no arrow between {u} and {v}")
        tris.append(tri)
    w = StringWord(verts, lmark, rmark)
    if w.verts != verts:  # StringWord reversed the word
        tris.reverse()
    for i in range(len(tris) - 1):
        if tris[i] == tris[i + 1]:
            raise InvalidWord(f"letters {i},{i + 1} compose inside a triangle")
    return w


def validate_word(w: StringWord) -> tuple[bool, str]:
    """(True, "") when `word` accepts the vertices and marks of w, else
    (False, its message): vertices must be distinct, letters exist, and
    consecutive letters not compose inside one triangle."""
    try:
        word(w.verts, None, w.lmark, w.rmark)
    except InvalidWord as exc:
        return (False, str(exc))
    return (True, "")


# -- graph maps ---------------------------------------------------------------

def _occurrences(w1: StringWord, w2: StringWord):
    """The graph map w1 -> w2 as (i1, j1, i2, j2): its support is the run
    w1[i1..j1], which is w2[i2..j2] read forwards or backwards; None when
    there is no graph map.

    By steps 1-2 of the lemma in `quotient._vertex_matrices` the vertices
    the two words share form one run in both (asserted), with the letters
    its vertices fix, and by step 3 a graph map covers that whole run.  So
    the run is the one candidate: it must be a factor of w1 (the adjacent
    letters point out of it) and a submodule of w2 (they point into it).
    """
    if w1.marked or w2.marked:
        raise InvalidWord("graph maps are defined on unmarked words")
    pos = {v: i for i, v in enumerate(w2.verts)}
    common = [i for i, v in enumerate(w1.verts) if v in pos]
    if not common:
        return None
    i1, j1 = common[0], common[-1]
    run = [pos[w1.verts[i]] for i in common]
    step = 1 if run[-1] >= run[0] else -1
    i2, j2 = min(run[0], run[-1]), max(run[0], run[-1])
    if j1 - i1 != len(common) - 1 or run != list(range(run[0], run[-1] + step, step)):
        raise AssertionError(f"common vertices not one run in both words: {w1} -> {w2}")
    v1, v2 = w1.verts, w2.verts
    if ((i1 == 0 or arrow_dir(v1[i1], v1[i1 - 1])) and (j1 == len(v1) - 1 or arrow_dir(v1[j1], v1[j1 + 1]))
            and (i2 == 0 or arrow_dir(v2[i2 - 1], v2[i2]))
            and (j2 == len(v2) - 1 or arrow_dir(v2[j2 + 1], v2[j2]))):
        return (i1, j1, i2, j2)
    return None


def hom_dim_strings(w1: StringWord, w2: StringWord) -> int:
    """Graph-map dimension: 0 or 1, since the common run of the two words
    is the one candidate (lemma steps 1-3, `_occurrences`)."""
    return 0 if _occurrences(w1, w2) is None else 1


def overlap(w1: StringWord, w2: StringWord) -> frozenset[ClusterPt]:
    """Support of the graph map w1 -> w2, empty when there is none: the run
    of vertices the two words share (lemma steps 1-3, `_occurrences`)."""
    occ = _occurrences(w1, w2)
    return frozenset(w1.verts[occ[0]:occ[1] + 1]) if occ else frozenset()


def _outside(w: StringWord, i: int, j: int) -> list[StringWord]:
    """The words of w left and right of its run w[i..j], the empty ones left
    out: each is the word on its run of w's vertices."""
    return [StringWord(w.verts[a:b + 1]) for a, b in ((0, i - 1), (j + 1, len(w.verts) - 1)) if a <= b]


def kernel_cokernel_strings(w1: StringWord, w2: StringWord) -> tuple[list[StringWord], list[StringWord]]:
    """Kernel and cokernel words of the basic graph map w1 -> w2: the
    connected components left after deleting the overlap."""
    occ = _occurrences(w1, w2)
    if occ is None:
        raise NoMorphism(f"no basic morphism {w1} -> {w2}")
    i1, j1, i2, j2 = occ
    ker, cok = _outside(w1, i1, j1), _outside(w2, i2, j2)
    total = sum(len(k) for k in ker) - len(w1) + len(w2) - sum(len(c) for c in cok)
    if total != 0:
        raise AssertionError("dimension count broken in string kernel/cokernel")
    return (ker, cok)


# -- representations ----------------------------------------------------------

class RepFin(namedtuple("RepFin", "dims mats")):
    """Finite-dimensional representation: dimensions per vertex and one
    rational matrix per arrow between supported vertices (absent = zero).
    Vertices of dimension 0 are dropped from dims."""

    __slots__ = ()

    def __new__(cls, dims: dict[ClusterPt, int], mats: dict[tuple[ClusterPt, ClusterPt], linalg.Matrix]):
        return tuple.__new__(cls, ({v: d for v, d in dims.items() if d > 0}, dict(mats)))

    def dim(self, v: ClusterPt) -> int:
        return self.dims.get(v, 0)

    def check_relations(self):
        """Two arrows u -> v -> w2 of one triangle compose to zero; an arrow
        with no matrix is zero, so only pairs of matrices are multiplied."""
        from . import linalg
        for (u, v), a in self.mats.items():
            tri = triangle(u, v)
            for w2 in in_neighbors(v):
                b = self.mats.get((v, w2))
                if b is not None and triangle(v, w2) == tri and any(map(any, linalg.matmul(b, a))):
                    raise NotAModule(f"relation broken along {u} -> {v} -> {w2}")


def to_rep(w: StringWord) -> RepFin:
    """Standard string module: one dimension per vertex, identities on letters."""
    if w.marked:
        raise InvalidWord("marked words have no finite representation")
    from . import linalg
    one = linalg.identity(1)
    return RepFin(dict.fromkeys(w.verts, 1), dict.fromkeys(_letters(w), one))


def direct_sum(reps: list[RepFin]) -> RepFin:
    """Direct sum, summands stacked in order at each vertex."""
    dims = {v: sum(r.dim(v) for r in reps) for v in sorted({v for r in reps for v in r.dims})}
    run, blocks = dict.fromkeys(dims, 0), {}
    for r in reps:
        for (v, u), sub in r.mats.items():
            block = blocks.setdefault((v, u), [[0] * dims[v] for _ in range(dims[u])])
            for i, sub_row in enumerate(sub):
                block[run[u] + i][run[v]:run[v] + len(sub_row)] = sub_row
        for v, d in r.dims.items():
            run[v] += d
    return RepFin(dims, {key: tuple(map(tuple, block)) for key, block in blocks.items()})


# -- decomposition ------------------------------------------------------------

def _candidate_words(supp: list[ClusterPt], letters):
    """Every reduced word on the support whose letters, as (src, dst)
    pairs, are in letters, as its vertex tuple in `StringWord` orientation,
    lazily and longest first (`StringWord.sort_key`).  Two letters of one
    triangle compose or backtrack, so a word leaves each vertex by the
    triangle it did not enter by: it is the one path in the dual tree between
    its ends (lemma step 1 in `quotient._vertex_matrices`), and a search from
    each start keeps one parent pointer per vertex.  A word is kept from its
    smaller end, and built only when the listing reaches its length."""
    adj = {v: [] for v in supp}
    for v, u in letters:
        if v in adj and u in adj:
            t = triangle(v, u)
            adj[v].append((u, t))
            adj[u].append((v, t))
    by_len = [[] for _ in range(len(supp) + 1)]  # by word length: (parent pointers, end)
    for start in supp:
        tree = {start: None}  # vertex: previous vertex
        stack = [(start, None, 1)]  # a vertex, the triangle it was entered by, the length
        while stack:
            v, tri, n = stack.pop()
            if start <= v:
                by_len[n].append((tree, v))
            for u, t in adj[v]:
                if t != tri:
                    tree[u] = v
                    stack.append((u, t, n + 1))
    for ends in reversed(by_len):
        group = []
        for tree, v in ends:
            verts = [v]
            while tree[v] is not None:
                v = tree[v]
                verts.append(v)
            group.append(tuple(verts[::-1]))
        group.sort()
        yield from group


def _letters(w: StringWord):
    """The letters of w as (src, dst) pairs."""
    return [(a, b) if d else (b, a) for a, b, d in zip(w.verts, w.verts[1:], w.directs)]


def _word_maps(verts, letters, dims, mats) -> list[dict[ClusterPt, tuple[int | Fraction, ...]]]:
    """Basis of the maps from the string module on verts and letters, as
    (src, dst) pairs, into the representation (dims, mats), each as its
    vector phi_v at every vertex of the word; none when dims vanish at one.
    Each arrow v -> u from a vertex of the word that has a matrix M or is a
    letter gives one row per coordinate of u, over the vertex spaces stacked
    as verts: M phi_v (0 if M is absent) is phi_u on a letter, else 0.  The
    basis is read off the unique reduced echelon form of the rows' span, so
    the order of the rows changes neither it nor its values."""
    from . import linalg
    if any(v not in dims for v in verts):
        return []
    offs, total = {}, 0
    for v in verts:
        offs[v] = total
        total += dims[v]
    rows = []
    for v, u in mats.keys() | letters:
        if v in offs:
            a, letter = mats.get((v, u)), (v, u) in letters
            for i in range(dims.get(u, 0)):
                row = [0] * total
                if a is not None:
                    row[offs[v]:offs[v] + dims[v]] = a[i]
                if letter:
                    row[offs[u] + i] -= 1
                rows.append(row)
    return [{v: vec[offs[v]:offs[v] + dims[v]] for v in verts}
            for vec in linalg.nullspace(tuple(map(tuple, rows)), total)]


def _hom_word_to_rep(w: StringWord, rep: RepFin) -> list[dict[ClusterPt, tuple[int | Fraction, ...]]]:
    """Basis of module maps from the standard module of w into rep,
    each given by its vector at every vertex of w."""
    return _word_maps(w.verts, set(_letters(w)), rep.dims, rep.mats)


def _hom_rep_to_word(rep: RepFin, w: StringWord) -> list[dict[ClusterPt, tuple[int | Fraction, ...]]]:
    """Basis of module maps rep -> standard module of w, as row functionals:
    the maps from M(w) into the dual of rep over the opposite quiver, each
    letter reversed and each matrix into w transposed (no other gives rows)."""
    on = set(w.verts)
    return _word_maps(w.verts, {(b, a) for a, b in _letters(w)}, rep.dims,
                      {(u, v): tuple(zip(*m)) for (v, u), m in rep.mats.items() if u in on})


def decompose_rep(rep: RepFin) -> list[tuple[StringWord, dict[ClusterPt, tuple[int | Fraction, ...]]]]:
    """Split into standard string summands, in `StringWord.sort_key` order;
    each comes with its embedding vector at every support vertex.

    A worklist holds pieces of rep, each with acc, its embedding into rep.
    A piece is cut into its connected components (lemma A).  A thin
    component, of dimension 1 at every vertex, is one summand read off as
    its path word (lemma B).  Any other component lists the reduced words on
    its own support (`_candidate_words`), splits off the first that
    `_split_off` accepts, and puts its remainder (`_peel`) back on the list.
    A word that fails the local test of lemma C (`_local_test`) is not
    tried: `_split_off` would find no split for it.
    Only words on the arrows with a nonzero matrix are listed: a summand
    M(w) maps each letter of w by an identity.  End(M(w)) = k, since homs
    between strings are at most one dimensional (`overlap`), so the
    basis-pair test of `_split_off` finds a split exactly when M(w) is a
    summand.

    Lemma A: the components of a representation, joined by the arrows with
    a nonzero matrix, are summands, and each is split as the whole would be.
    Each vertex space lies in one component and every arrow between two
    components is zero, so each component is a subrepresentation and rep
    is their sum.  `_split_off` reads only the arrows at the vertices of its
    word, where a zero matrix adds zero rows, and `_peel` changes only the
    arrows there.  So a component runs through the remainders it would run
    through if the whole representation were peeled a word at a time,
    trying the words of the whole support in order, and yields the same
    words, phi and embeddings.
    That loop peels in `sort_key` order, since by Krull-Schmidt a word that
    is no summand of a remainder is no summand of a smaller one.  Equal
    words share their vertices, hence their component, and are found one
    after the other along its remainders, so a stable sort restores the
    loop's order (its copy in `tests/oracles.py` is
    `decompose_rep_by_peeling`).

    Lemma B: a thin component is M(w) for a reduced word w, with phi the
    nullspace vector `_split_off` takes: 1 at w.verts[-1] and carried back
    along the letters.  Each arrow of the component is a nonzero scalar.
    Two arrows of one triangle, a 3-cycle, are consecutive, and their
    product would break its relation; so each triangle holds at most one
    arrow, and each vertex, on two triangles, meets at most two.  A cycle
    would pass through distinct triangles, two points sharing at most one,
    and so be a cycle in the dual tree, which has none.  So the component
    is a path on distinct vertices with consecutive letters in distinct
    triangles: a reduced word w, and M(w) with its basis vectors rescaled.
    The maps M(w) -> M(w) are scalars, so it is one summand and nothing is
    peeled.  `_hom_word_to_rep` writes phi_b = x phi_a for each letter a -> b
    of scalar x, one row per letter with its nonzeros at the columns of
    its two vertices, which are ordered as w.verts, and no other nonzero
    row.  The nullspace depends only on the rows' span, so take the rows in
    the order of w.verts: they are bidiagonal, so all columns but the last
    are pivots, and the one nullspace vector is 1 at the last vertex.

    Lemma C: if M(w) -> V -> M(w) composes to a nonzero scalar, through phi
    and psi, then at every vertex v of w, phi_v is nonzero and lies in the
    kernel of every arrow out of v that is not a letter of w, and psi_v is
    nonzero and vanishes on the image of every arrow into v that is not a
    letter.  The composite is c != 0 at each vertex, psi_v phi_v = c on the
    line M(w)_v, so neither vanishes.  M(w) is zero on every arrow that is
    not a letter: its vertices are distinct and two of them share a triangle
    only along a letter, as a word is a path in the dual tree.  So for such
    an arrow a: v -> u, V_a phi_v = phi_u M(w)_a = 0, and for such an arrow
    b: u -> v, psi_v V_b = M(w)_b psi_u = 0.  Hence w cannot split off when,
    at some vertex, those kernels meet in 0 or those images span V_v."""
    from . import linalg
    rep.check_relations()
    work = [(rep, {v: linalg.identity(rep.dim(v)) for v in rep.dims})]
    out = []
    while work:
        piece, acc = work.pop()
        for verts, mats in _components(piece):
            if all(piece.dims[v] == 1 for v in verts):
                w, phi = _thin_summand(verts, mats)
            else:
                sub = RepFin({v: piece.dims[v] for v in verts}, mats)
                passes = _local_test(sub)
                for cand in _candidate_words(sorted(verts), mats):
                    if passes(cand):
                        w = StringWord(cand)
                        split = _split_off(w, sub)
                        if split:
                            break
                else:
                    raise NotAModule("representation does not split into strings")
                phi, psi = split
                work.append(_peel(sub, {v: acc[v] for v in verts}, psi))
            out.append((w, {v: linalg.matvec(acc[v], phi[v]) for v in w.verts}))
    out.sort(key=lambda summand: summand[0].sort_key())
    return out


def _local_test(rep: RepFin):
    """The local necessary test of lemma C in `decompose_rep`, as a function
    of a word's vertex tuple, on words whose letters are arrows of rep: False
    when at some vertex v the arrows out of v that are not letters have
    kernels meeting in 0, or the arrows into v that are not letters have
    images spanning V_v.  A neighbour of v in the word is joined to it by a
    letter, so those arrows are the ones to other vertices.  Each answer is
    cached by v, the side and the arrows it reads: at most 3 keys per vertex
    and side, the nonempty sets of its two arrows out or of its two in."""
    from . import linalg
    sides = {v: ([], []) for v in rep.dims}  # per vertex: arrows out, arrows in
    for (v, u), m in rep.mats.items():
        sides[v][0].append((u, m))
        sides[u][1].append((v, m))
    known = {}

    def passes(verts) -> bool:
        for i, v in enumerate(verts):
            near = verts[max(i - 1, 0):i + 2]
            for side, arrows in enumerate(sides[v]):
                others = tuple(u for u, _ in arrows if u not in near)
                if others:
                    key = (v, side, others)
                    ok = known.get(key)
                    if ok is None:
                        # the kernels' rows, or the images' columns
                        rows = tuple(row for u, m in arrows if u in others
                                     for row in (zip(*m) if side else m))
                        ok = known[key] = linalg.rank(rows) < rep.dims[v]
                    if not ok:
                        return False
        return True
    return passes


def _components(rep: RepFin):
    """The connected components of rep, each as its vertices and its arrows
    with a nonzero matrix; an arrow with a zero matrix joins nothing."""
    arrows = {v: [] for v in rep.dims}
    for key, m in rep.mats.items():
        if any(map(any, m)):
            arrows[key[0]].append(key)
            arrows[key[1]].append(key)
    seen, comps = set(), []
    for start in rep.dims:
        if start in seen:
            continue
        seen.add(start)
        verts, mats = [start], {}
        for v in verts:
            for key in arrows[v]:
                mats[key] = rep.mats[key]
                for u in key:
                    if u not in seen:
                        seen.add(u)
                        verts.append(u)
        comps.append((verts, mats))
    return comps


def _thin_summand(verts, mats):
    """The word w of a thin component, walked from an end, and its phi: 1
    at w.verts[-1], carried back along the letters (lemma B of
    `decompose_rep`)."""
    from fractions import Fraction
    from .linalg import exact
    links = {v: [] for v in verts}
    for a, b in mats:
        links[a].append(b)
        links[b].append(a)
    path = [min(verts, key=lambda v: len(links[v]))]
    while len(path) < len(verts):
        step = [u for u in links[path[-1]] if len(path) == 1 or u != path[-2]]
        if len(step) != 1:
            raise AssertionError("thin component is not a path")
        path.append(step[0])
    w = StringWord(path)
    phi = {w.verts[-1]: 1}
    for a, b, d in reversed(tuple(zip(w.verts, w.verts[1:], w.directs))):
        if d:
            phi[a] = exact(phi[b] / Fraction(mats[(a, b)][0][0]))
        else:
            phi[a] = exact(mats[(b, a)][0][0] * phi[b])
    return (w, {v: (x,) for v, x in phi.items()})


def _split_off(w: StringWord, rep: RepFin):
    """(phi, psi) with psi . phi = 1 on M(w), from the first pair of basis
    maps M(w) -> rep -> M(w) whose composite is a nonzero scalar; None
    when there is none."""
    from fractions import Fraction
    from .linalg import exact
    phis = _hom_word_to_rep(w, rep)
    if not phis:
        return None
    psis = _hom_rep_to_word(rep, w)
    for phi in phis:
        for psi in psis:
            pairings = {sum(a * b for a, b in zip(psi[v], phi[v])) for v in w.verts}
            if len(pairings) == 1:
                pairing = pairings.pop()
                if pairing:
                    if pairing != 1:  # it is 1 for most words
                        inv = 1 / Fraction(pairing)
                        psi = {v: tuple(exact(x * inv) for x in row) for v, row in psi.items()}
                    return (phi, psi)
    return None


def _peel(rep: RepFin, acc, psi):
    """Cut rep down to the kernel of the split functional psi and carry
    acc, the embedding of rep into the original, along; both change only
    at the vertices of psi, where psi . phi = 1 makes psi a nonzero row with
    a closed-form kernel (`linalg.row_kernel`)."""
    from . import linalg
    basis = {v: linalg.row_kernel(row) for v, row in psi.items()}
    sub = restrict_rep(rep, basis)
    return (sub, {v: linalg.matmul(a, basis[v]) if v in basis else a
                  for v, a in acc.items() if v in sub.dims})


def restrict_rep(rep: RepFin, basis) -> RepFin:
    """The subrepresentation spanned at each vertex v of basis by the
    columns of basis[v] (rep.dim(v) rows), and all of rep at the other
    vertices, with its arrow matrices in those bases; the subspaces must be
    carried into each other along every arrow.  One pass over the arrows
    solves again only those at a vertex of basis, each basis[v] with a unit
    row per column, as from `linalg.nullspace` or `row_kernel`
    (`linalg.solve_on_unit_rows`), and keeps every other matrix as it is."""
    from . import linalg
    dims = {v: len(basis[v][0]) if v in basis else d for v, d in rep.dims.items()}
    mats = {}
    for (u, w), m in rep.mats.items():
        if u in basis or w in basis:
            if not (dims.get(u) and dims.get(w)):
                continue
            if u in basis:
                m = linalg.matmul(m, basis[u])
            if w in basis:
                m = linalg.solve_on_unit_rows(basis[w], m)
                if m is None:
                    raise AssertionError("subspace not arrow-stable")
            if not any(map(any, m)):
                continue
        mats[(u, w)] = m
    return RepFin(dims, mats)


def parse_word(text: str) -> StringWord:
    """Parse "T(1,0) > T(0,0) < T(1,1)" with optional ~ ray markers at the ends."""
    s = text.strip()
    lmark = s.startswith("~")
    s = s.removeprefix("~")
    rmark = s.endswith("~")
    parts = re.split(r"([<>])", s.removesuffix("~"))
    verts = []
    for part in map(str.strip, parts[::2]):
        if not part:
            raise ParseError(f"malformed word: {text!r}")
        verts.append(parse_cluster_pt(part))
    directs = [part == ">" for part in parts[1::2]]
    try:
        return word(verts, directs, lmark, rmark)
    except InvalidWord as exc:
        raise ParseError(str(exc))
