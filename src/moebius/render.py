"""Deterministic SVG pictures of the band strip: cluster dots, rectangles,
walks and object markers.

All geometry is dyadic and printed as exact terminating decimals, so equal
inputs give byte-identical documents.  Cluster dots are drawn once per iso
class, at the canonical representative with first coordinate in [0, 1), down
to a depth that the command line bounds by `errors.MAX_CLUSTER_DEPTH`.  Every
coordinate is an integer numerator at a scale 2^e: the bounds at one canvas
scale, each walk at 2^(k+6), and the dots, rectangle edges and objects at
their own exponents.  A document keeps one pixel formatter per axis and
scale, which formats each distinct numerator once, so no document builds a
`Dyadic`.
"""

from __future__ import annotations

from collections import namedtuple

from .dyadic import Dyadic, decimal
from .cluster import ClusterPt, object_of
from .walk import Walk, walk_of

SCALE = 240
PAD = Dyadic(1, 3)
DOT_R = {0: "5", 1: "4", 2: "3", 3: "2.5", 4: "2", None: "1.5"}


# What to draw: objects, rectangles (`Rect`), objects whose walks are drawn,
# and cluster dots down to `cluster_depth`.
RenderSpec = namedtuple("RenderSpec", "objects rects walks cluster_depth",
                        defaults=((), (), (), None))


class _Pixels(dict):
    """The pixel strings on one axis of the numerators at the scale 2^e: the
    distance of num/2^e from origin/2^origin_e times `scale`, each numerator
    formatted on first use."""

    def __init__(self, origin: int, origin_e: int, e: int, scale: int):
        self.f = f = max(e, origin_e)
        self.up, self.off, self.mul = f - e, origin << (f - origin_e), scale * 5 ** f

    def __missing__(self, num: int) -> str:
        text = self[num] = decimal(((num << self.up) - self.off) * self.mul, self.f)
        return text


class _Canvas:
    """The document's bounds, as numerators at the canvas scale 2^e, its
    pixel formatters per axis and scale, and its elements."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, e):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi, self.e = x_lo, x_hi, y_lo, y_hi, e
        self.scales: dict[int, tuple[_Pixels, _Pixels]] = {}
        self.elements: list[str] = []

    def at(self, e: int) -> tuple[_Pixels, _Pixels]:
        """The pixel columns and rows of the numerators at the scale 2^e."""
        if e not in self.scales:
            self.scales[e] = (_Pixels(self.x_lo, self.e, e, SCALE), _Pixels(self.y_hi, self.e, e, -SCALE))
        return self.scales[e]

    # element writers take pixel strings
    def line(self, x1, y1, x2, y2, cls):
        self.elements.append(f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')

    def circle(self, cx, cy, r, cls):
        self.elements.append(f'<circle class="{cls}" cx="{cx}" cy="{cy}" r="{r}"/>')

    def frame(self) -> tuple[str, str]:
        """Draw the boundary lines y = x +- 1 and the axis y = x, clipped, and
        return the width and height, on numerators at the canvas scale 2^e."""
        x_lo, x_hi, y_lo, y_hi, e = self.x_lo, self.x_hi, self.y_lo, self.y_hi, self.e
        px, py = self.at(e)
        for c, cls in ((1, "boundary"), (-1, "boundary"), (0, "axis")):
            c <<= e
            xa, xb = max(x_lo, y_lo - c), min(x_hi, y_hi - c)
            if xa <= xb:
                self.line(px[xa], py[xa + c], px[xb], py[xb + c], cls)
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
            radius = DOT_R.get(n, DOT_R[None])
            for m in range(1 << n):  # canonical x = m/2^n in [0, 1)
                o = object_of(ClusterPt(n, m))
                px, py = cv.at(o.e)
                cv.circle(px[o.xn], py[o.xn + o.dn], radius, "cluster")

    for r in spec.rects:
        x_lo, x_hi = (cv.at(x.exp)[0][x.num] for x in (r.x_lo, r.x_hi))
        y_lo, y_hi = (cv.at(y.exp)[1][y.num] for y in (r.y_lo, r.y_hi))
        edges = [
            (x_lo, y_lo, x_hi, y_lo, r.open_y_lo),
            (x_hi, y_lo, x_hi, y_hi, r.open_x_hi),
            (x_hi, y_hi, x_lo, y_hi, r.open_y_hi),
            (x_lo, y_hi, x_lo, y_lo, r.open_x_lo),
        ]
        for x1, y1, x2, y2, is_open in edges:
            cv.line(x1, y1, x2, y2, "rect-open" if is_open else "rect-closed")

    for w in walks:
        _draw_walk(cv, w)

    for o in spec.objects:
        px, py = cv.at(o.e)
        cv.circle(px[o.xn], py[o.xn + o.dn], "4", "object")

    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<style>{_STYLE}</style>\n'
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    return head + "\n".join(cv.elements) + "\n</svg>\n"


def _draw_walk(cv: _Canvas, w: Walk):
    """The walk on integer numerators at the scale 2^(k+6), where the step
    midpoints and the arrow half-width 1/32 are integers."""
    e, h = w.k + 6, 1 << (w.k + 1)
    xs, ys = [p << 6 for p in w.xs], [q << 6 for q in w.ys]
    px, py = cv.at(e)
    for i, step in enumerate(w.steps):
        # arrows point up (vertical steps) and right (horizontal steps)
        a, b = (i, i + 1) if step == "v" else (i + 1, i)
        mx, my = (xs[a] + xs[b]) >> 1, (ys[a] + ys[b]) >> 1
        if step == "v":
            x2, y2, x3, y3 = mx + h, my - h, mx, my + h
        else:
            x2, y2, x3, y3 = mx - h, my + h, mx + h, my
        cv.line(px[xs[a]], py[ys[a]], px[xs[b]], py[ys[b]], "walk")
        cv.elements.append(f'<path class="arrow" d="M {px[mx - h]} {py[my - h]} L {px[x2]} {py[y2]} '
                           f'L {px[x3]} {py[y3]} Z"/>')
    for x, y in zip(xs, ys):
        cv.circle(px[x], py[y], "2.5", "walkpt")
