import random
from pathlib import Path

from moebius.dyadic import Dyadic
from moebius.band import Rect, normal_form, parse_obj
from moebius.cluster import ClusterPt, member, object_of
from moebius import render as render_module
from moebius.render import RenderSpec, render
from moebius.walk import walk_of

from oracles import render_by_dyadics

GOLDEN = Path(__file__).parent / "golden"


def test_empty_matches_golden():
    doc = render(RenderSpec())
    assert doc == (GOLDEN / "empty.svg").read_text()


def test_walk_matches_golden():
    spec = RenderSpec(walks=[parse_obj("M(1/4,3/4)")], cluster_depth=3)
    doc = render(spec)
    assert doc == (GOLDEN / "walk_quarter_threequarter.svg").read_text()


def test_cluster_depth4_matches_golden():
    doc = render(RenderSpec(cluster_depth=4))
    assert doc == (GOLDEN / "cluster_depth4.svg").read_text()


def test_depth4_has_31_dots():
    doc = render(RenderSpec(cluster_depth=4))
    assert doc.count('circle class="cluster"') == 31


def test_walk_has_five_vertices():
    spec = RenderSpec(walks=[parse_obj("M(1/4,3/4)")])
    doc = render(spec)
    assert doc.count('class="walkpt"') == 5
    assert doc.count('class="walk"') == 4
    assert doc.count('class="arrow"') == 4


def test_render_deterministic():
    spec = RenderSpec(walks=[parse_obj("M(1/8,1/4)")], cluster_depth=3)
    assert render(spec) == render(spec)


# -- the numerator path against the Dyadic reference ---------------------------

def _off_cluster(rng, e):
    while True:
        x0 = Dyadic(rng.randrange(1 << (e + 1)) | 1, e)
        x = normal_form(x0, x0 + Dyadic(rng.randrange(1 << e), e))
        if member(x) is None:
            return x


def _fine(rng, e):
    """A dyadic of exponent e in [-2, 3]."""
    return Dyadic(rng.randrange(-2 << e, 3 << e) | 1, e)


def test_walks_match_dyadic_reference_at_exponents_2_to_64():
    rng = random.Random(8)
    for e in range(2, 65):
        spec = RenderSpec(walks=[_off_cluster(rng, e), _off_cluster(rng, rng.randrange(2, e + 1))])
        assert render(spec) == render_by_dyadics(spec), e


def test_objects_and_rects_finer_than_the_walk_match_dyadic_reference():
    # coordinates past the walk's scale 2^(k+6) set the canvas bounds
    rng = random.Random(9)
    for i in range(60):
        x = _off_cluster(rng, rng.randrange(2, 20))
        fine = walk_of(x).k + 6 + rng.randrange(1, 6)
        xs, ys = sorted(_fine(rng, fine) for _ in "ab"), sorted(_fine(rng, fine) for _ in "ab")
        flags = [rng.random() < 0.5 for _ in range(4)]
        spec = RenderSpec(objects=[_off_cluster(rng, fine)], rects=[Rect(*xs, *ys, *flags)],
                          walks=[x], cluster_depth=(None, 0, 2, 3)[i % 4])
        assert render(spec) == render_by_dyadics(spec), i


EVERY_KIND = RenderSpec(
    objects=[parse_obj("M(1/8,1/4)"), parse_obj("M(3/16,1/2)"), parse_obj("M(-1/1024,3/4)")],
    rects=[Rect(Dyadic(1, 3), Dyadic(1, 1), Dyadic(1, 2), Dyadic(3, 2)),
           Rect.open(Dyadic(-1, 4), Dyadic(7, 8), Dyadic(0), Dyadic(33, 5)),
           Rect(Dyadic(1, 6), Dyadic(3, 2), Dyadic(-1, 1), Dyadic(1), True, False, False, True)],
    walks=[parse_obj("M(1/4,3/4)"), _off_cluster(random.Random(14), 14)],
    cluster_depth=8)


def test_cluster_depth_and_worked_specs_match_dyadic_reference():
    specs = [RenderSpec(), RenderSpec(cluster_depth=6),
             RenderSpec(walks=[parse_obj("M(1/4,3/4)")], cluster_depth=3),
             RenderSpec(walks=[parse_obj("M(1/18446744073709551616,3/4)")], cluster_depth=5),
             EVERY_KIND]
    # dots with objects and rectangle edges at the dots' own exponents, which
    # share their pixel formatters
    rng = random.Random(36)
    for depth in range(9):
        low = [Dyadic(rng.randrange(-2 << n, 3 << n), n) for n in rng.choices(range(depth + 2), k=4)]
        xs, ys = sorted(low[:2]), sorted(low[2:])
        specs.append(RenderSpec(objects=[object_of(ClusterPt(depth, rng.randrange(1 << depth))),
                                         _off_cluster(rng, rng.randrange(2, depth + 3))],
                                rects=[Rect(*xs, *ys, *(rng.random() < 0.5 for _ in range(4)))],
                                walks=[_off_cluster(rng, rng.randrange(2, 12))], cluster_depth=depth))
    for spec in specs:
        assert render(spec) == render_by_dyadics(spec), spec


# -- each pixel value is formatted once -----------------------------------------

def _pixel_keys(spec) -> set:
    """The distinct (axis, exponent, numerator) of a document's pixel values,
    read off the spec in `Dyadic` arithmetic: the frame at the canvas scale,
    each walk at 2^(k+6), and the dots, rectangle edges and objects at their
    own exponents."""
    walks = [walk_of(x) for x in spec.walks]
    corners = [v.rep for w in walks for v in w.vertices]
    xs = [Dyadic(0), Dyadic(1), *(o.x for o in spec.objects), *(c[0] for c in corners),
          *(x for r in spec.rects for x in (r.x_lo, r.x_hi))]
    ys = [Dyadic(-1), Dyadic(2), *(o.y for o in spec.objects), *(c[1] for c in corners),
          *(y for r in spec.rects for y in (r.y_lo, r.y_hi))]
    e = max([3, *(o.e for o in spec.objects), *(w.k for w in walks),
             *(d.exp for r in spec.rects for d in r[:4])])
    pad = Dyadic(1, 3)
    x_lo, x_hi, y_lo, y_hi = min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad
    keys = set()

    def add(axis, d, f):
        keys.add((axis, f, d.num << (f - d.exp)))

    add("x", x_hi, e)
    add("y", y_lo, e)
    for c in (Dyadic(1), Dyadic(-1), Dyadic(0)):
        xa, xb = max(x_lo, y_lo - c), min(x_hi, y_hi - c)
        if xa <= xb:
            for x in (xa, xb):
                add("x", x, e)
                add("y", x + c, e)
    half, h = Dyadic(1, 1), Dyadic(1, 5)
    for w in walks:
        vertices = [v.rep for v in w.vertices]
        for (x1, y1), (x2, y2), step in zip(vertices, vertices[1:], w.steps):
            mx, my = (x1 + x2) * half, (y1 + y2) * half
            for x in [x1, x2, mx - h, mx + h] + [mx] * (step == "v"):
                add("x", x, w.k + 6)
            for y in [y1, y2, my - h, my + h] + [my] * (step == "h"):
                add("y", y, w.k + 6)
    depth = -1 if spec.cluster_depth is None else spec.cluster_depth
    dots = [object_of(ClusterPt(n, m)) for n in range(depth + 1) for m in range(1 << n)]
    for o in [*dots, *spec.objects]:
        keys.update({("x", o.e, o.xn), ("y", o.e, o.xn + o.dn)})
    for r in spec.rects:
        keys.update({("x", r.x_lo.exp, r.x_lo.num), ("x", r.x_hi.exp, r.x_hi.num),
                     ("y", r.y_lo.exp, r.y_lo.num), ("y", r.y_hi.exp, r.y_hi.num)})
    return keys


def test_each_pixel_value_is_formatted_once(monkeypatch):
    calls = []
    decimal = render_module.decimal
    monkeypatch.setattr(render_module, "decimal", lambda num, e: calls.append(1) or decimal(num, e))
    for spec in (RenderSpec(walks=[parse_obj("M(1/8,1/4)")]),
                 RenderSpec(walks=[_off_cluster(random.Random(14), 14)]),
                 RenderSpec(cluster_depth=0), RenderSpec(cluster_depth=8), EVERY_KIND):
        calls.clear()
        render(spec)
        assert len(calls) == len(_pixel_keys(spec)), spec


def test_walk_only_document_builds_no_dyadic(monkeypatch):
    # the walk, the bounds and every pixel value come from integer numerators,
    # and so do the dots, rectangles and objects of every other element kind
    specs = (RenderSpec(walks=[parse_obj("M(1/8,1/4)")]),
             RenderSpec(walks=[_off_cluster(random.Random(14), 14)]), EVERY_KIND)
    calls = []
    init = Dyadic.__init__
    monkeypatch.setattr(Dyadic, "__init__", lambda self, *a: calls.append(1) or init(self, *a))
    for spec in specs:
        render(spec)
    assert not calls
