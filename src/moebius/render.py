"""Deterministic SVG pictures of the band strip: cluster dots, rectangles,
walks and object markers.

All geometry is dyadic and printed as exact terminating decimals, so equal
inputs give byte-identical documents.  Cluster dots are drawn once per iso
class, at the canonical representative with first coordinate in [0, 1).  The
bounds are integer numerators at one canvas scale, and the frame and each
walk format each of their distinct pixel values once.
"""

from __future__ import annotations

from collections import namedtuple

from .dyadic import Dyadic, decimal
from .band import Obj, Rect
from .cluster import ClusterPt, object_of
from .walk import Walk, walk_of
from .errors import MAX_CLUSTER_DEPTH  # the bound of `cluster_depth`, defined where the CLI reads it

SCALE = 240
PAD = Dyadic(1, 3)
DOT_R = {0: "5", 1: "4", 2: "3", 3: "2.5", 4: "2", None: "1.5"}


# What to draw: objects, rectangles (`Rect`), objects whose walks are drawn,
# and cluster dots down to `cluster_depth`.
RenderSpec = namedtuple("RenderSpec", "objects rects walks cluster_depth",
                        defaults=((), (), (), None))


def _axis(origin: int, origin_e: int, e: int, scale: int):
    """The pixel string of num/2^e on an axis, as a function of num: its
    distance from origin/2^origin_e times `scale`, the offset and power of 5
    computed once for the axis and e."""
    f = max(e, origin_e)
    up, off, mul = f - e, origin << (f - origin_e), scale * 5 ** f
    return lambda num: decimal(((num << up) - off) * mul, f)


class _Canvas:
    """The document's bounds, as numerators at the canvas scale 2^e, and its
    elements."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, e):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi, self.e = x_lo, x_hi, y_lo, y_hi, e
        self.elements: list[str] = []

    def x_at(self, e: int):
        """The pixel column of x = num/2^e, as a function of num."""
        return _axis(self.x_lo, self.e, e, SCALE)

    def y_at(self, e: int):
        """The pixel row of y = num/2^e, as a function of num."""
        return _axis(self.y_hi, self.e, e, -SCALE)

    def px(self, x: Dyadic) -> str:
        return self.x_at(x.exp)(x.num)

    def py(self, y: Dyadic) -> str:
        return self.y_at(y.exp)(y.num)

    # element writers take pixel strings
    def line(self, x1, y1, x2, y2, cls):
        self.elements.append(f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')

    def circle(self, cx, cy, r, cls):
        self.elements.append(f'<circle class="{cls}" cx="{cx}" cy="{cy}" r="{r}"/>')

    def frame(self) -> tuple[str, str]:
        """Draw the boundary lines y = x +- 1 and the axis y = x, clipped, and
        return the width and height, on numerators at the canvas scale 2^e,
        each distinct one formatted once per axis."""
        x_lo, x_hi, y_lo, y_hi, e = self.x_lo, self.x_hi, self.y_lo, self.y_hi, self.e
        segments = []
        for c, cls in ((1, "boundary"), (-1, "boundary"), (0, "axis")):
            c <<= e
            xa, xb = max(x_lo, y_lo - c), min(x_hi, y_hi - c)
            if xa <= xb:
                segments.append((xa, xa + c, xb, xb + c, cls))
        x_at, y_at = self.x_at(e), self.y_at(e)
        px = {x: x_at(x) for x in {x_hi, *(s[0] for s in segments), *(s[2] for s in segments)}}
        py = {y: y_at(y) for y in {y_lo, *(s[1] for s in segments), *(s[3] for s in segments)}}
        for xa, ya, xb, yb, cls in segments:
            self.line(px[xa], py[ya], px[xb], py[yb], cls)
        return px[x_hi], py[y_lo]


_STYLE = ("line.boundary{stroke:#333;stroke-width:1.5}"
          "line.axis{stroke:#bbb;stroke-width:0.75;stroke-dasharray:4 3}"
          "circle.cluster{fill:#1f4e99;stroke:none}"
          "line.rect-closed{stroke:#a33;stroke-width:1}"
          "line.rect-open{stroke:#a33;stroke-width:1;stroke-dasharray:5 4}"
          "line.walk{stroke:#0a7a3d;stroke-width:1.75}"
          "path.arrow{fill:#0a7a3d;stroke:none}"
          "circle.walkpt{fill:#0a7a3d;stroke:none}"
          "circle.object{fill:none;stroke:#d07000;stroke-width:1.5}")


def render(spec: RenderSpec) -> str:
    # the extreme coordinates, as (numerator, exponent): the band's strip
    # 0 <= x <= 1, -1 <= y <= 2, the objects, the rectangles and the walks
    xs, ys = [(0, 0), (1, 0)], [(-1, 0), (2, 0)]
    for o in spec.objects:
        xs.append((o.xn, o.e))
        ys.append((o.xn + o.dn, o.e))
    for r in spec.rects:
        xs += [(r.x_lo.num, r.x_lo.exp), (r.x_hi.num, r.x_hi.exp)]
        ys += [(r.y_lo.num, r.y_lo.exp), (r.y_hi.num, r.y_hi.exp)]
    walks = [walk_of(o) for o in spec.walks]
    for w in walks:  # the walk runs up and left from its lower-right corner
        xs += [(w.xs[-1], w.k), (w.xs[0], w.k)]
        ys += [(w.ys[0], w.k), (w.ys[-1], w.k)]
    e = max(PAD.exp, *(f for _, f in xs), *(f for _, f in ys))  # the canvas scale
    xs, ys = [num << (e - f) for num, f in xs], [num << (e - f) for num, f in ys]
    pad = PAD.num << (e - PAD.exp)
    cv = _Canvas(min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad, e)

    width, height = cv.frame()

    if spec.cluster_depth is not None:
        for n in range(spec.cluster_depth + 1):
            for m in range(1 << n):  # canonical x = m/2^n in [0, 1)
                o = object_of(ClusterPt(n, m))
                cv.circle(cv.px(o.x), cv.py(o.y), DOT_R.get(n, DOT_R[None]), "cluster")

    for r in spec.rects:
        edges = [
            (r.x_lo, r.y_lo, r.x_hi, r.y_lo, r.open_y_lo),
            (r.x_hi, r.y_lo, r.x_hi, r.y_hi, r.open_x_hi),
            (r.x_hi, r.y_hi, r.x_lo, r.y_hi, r.open_y_hi),
            (r.x_lo, r.y_hi, r.x_lo, r.y_lo, r.open_x_lo),
        ]
        for x1, y1, x2, y2, is_open in edges:
            cv.line(cv.px(x1), cv.py(y1), cv.px(x2), cv.py(y2),
                    "rect-open" if is_open else "rect-closed")

    for w in walks:
        _draw_walk(cv, w)

    for o in spec.objects:
        cv.circle(cv.px(o.x), cv.py(o.y), "4", "object")

    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<style>{_STYLE}</style>\n'
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    return head + "\n".join(cv.elements) + "\n</svg>\n"


def _draw_walk(cv: _Canvas, w: Walk):
    """The walk on integer numerators at the scale 2^(k+6), where the step
    midpoints and the arrow half-width 1/32 are integers; `x_at`/`y_at`
    rescale to the canvas bounds where those are finer, once per walk.  Each
    distinct numerator of the vertices and arrow corners, which neighbouring
    steps and their vertices share, is formatted once per axis."""
    e, h = w.k + 6, 1 << (w.k + 1)
    xs, ys = [p << 6 for p in w.xs], [q << 6 for q in w.ys]
    arrows = []  # per step: its lower or left vertex a, the other b, the corners
    for i, step in enumerate(w.steps):
        # arrows point up (vertical steps) and right (horizontal steps)
        a, b = (i, i + 1) if step == "v" else (i + 1, i)
        mx, my = (xs[a] + xs[b]) >> 1, (ys[a] + ys[b]) >> 1
        if step == "v":
            arrows.append((a, b, mx - h, my - h, mx + h, my - h, mx, my + h))
        else:
            arrows.append((a, b, mx - h, my - h, mx - h, my + h, mx + h, my))
    x_at, y_at = cv.x_at(e), cv.y_at(e)
    px = {x: x_at(x) for x in {*xs, *(x for arrow in arrows for x in arrow[2::2])}}
    py = {y: y_at(y) for y in {*ys, *(y for arrow in arrows for y in arrow[3::2])}}
    for a, b, x1, y1, x2, y2, x3, y3 in arrows:
        cv.line(px[xs[a]], py[ys[a]], px[xs[b]], py[ys[b]], "walk")
        cv.elements.append(f'<path class="arrow" d="M {px[x1]} {py[y1]} L {px[x2]} {py[y2]} '
                           f'L {px[x3]} {py[y3]} Z"/>')
    for x, y in zip(xs, ys):
        cv.circle(px[x], py[y], "2.5", "walkpt")
