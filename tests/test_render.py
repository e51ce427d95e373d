import random
import re
from pathlib import Path

from moebius.dyadic import Dyadic
from moebius.band import Rect, normal_form, parse_obj
from moebius.cluster import member
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


def test_cluster_depth_and_worked_specs_match_dyadic_reference():
    for spec in (RenderSpec(), RenderSpec(cluster_depth=6),
                 RenderSpec(walks=[parse_obj("M(1/4,3/4)")], cluster_depth=3),
                 RenderSpec(walks=[parse_obj("M(1/18446744073709551616,3/4)")], cluster_depth=5)):
        assert render(spec) == render_by_dyadics(spec)


# -- each pixel value is formatted once -----------------------------------------

def _distinct_values(doc: str) -> int:
    """The distinct pixel values of a walk-only document, per axis and per
    scale: the canvas's (diagonals and document size) and the walk's, whose
    scale 2^(k+6) is finer than the canvas's.  In one scale distinct
    values are distinct numerators."""
    canvas = set(zip("xy", re.search(r'<svg [^>]*width="([^"]+)" height="([^"]+)"', doc).groups()))
    walk = set()
    lines = re.findall(r'<line class="(\w+)" x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', doc)
    for cls, *ends in lines:
        (walk if cls == "walk" else canvas).update(zip("xyxy", ends))
    for corners in re.findall(r'<path class="arrow" d="M ([^"]+) Z"', doc):
        walk.update(zip("xyxyxy", corners.replace("L ", "").split()))
    for centre in re.findall(r'<circle class="walkpt" cx="([^"]+)" cy="([^"]+)"', doc):
        walk.update(zip("xy", centre))
    return len(canvas) + len(walk)


def test_each_pixel_value_is_formatted_once(monkeypatch):
    calls = []
    decimal = render_module.decimal
    monkeypatch.setattr(render_module, "decimal", lambda num, e: calls.append(1) or decimal(num, e))
    for x in (parse_obj("M(1/8,1/4)"), _off_cluster(random.Random(14), 14)):
        calls.clear()
        doc = render(RenderSpec(walks=[x]))
        assert len(calls) == _distinct_values(doc), x


def test_walk_only_document_builds_no_dyadic(monkeypatch):
    # the walk, the bounds and every pixel value come from integer numerators
    xs, calls = (parse_obj("M(1/8,1/4)"), _off_cluster(random.Random(14), 14)), []
    init = Dyadic.__init__
    monkeypatch.setattr(Dyadic, "__init__", lambda self, *a: calls.append(1) or init(self, *a))
    for x in xs:
        render(RenderSpec(walks=[x]))
    assert not calls
