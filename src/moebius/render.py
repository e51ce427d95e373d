"""Deterministic SVG pictures of the band strip: cluster dots, rectangles,
walks and object markers.

All geometry is dyadic and printed as exact terminating decimals, so equal
inputs give byte-identical documents.  Cluster dots are drawn once per iso
class, at the canonical representative with first coordinate in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dyadic import Dyadic, ZERO, ONE, TWO
from .band import Obj, Rect
from .cluster import ClusterPt, object_of
from .walk import Walk, walk_of

SCALE = Dyadic(240)
PAD = Dyadic(1, 3)
DOT_R = {0: "5", 1: "4", 2: "3", 3: "2.5", 4: "2", None: "1.5"}
MAX_CLUSTER_DEPTH = 12  # 2^(d+1) - 1 dots; depth 12 writes about 0.5 MB


@dataclass
class RenderSpec:
    objects: list[Obj] = field(default_factory=list)
    rects: list[Rect] = field(default_factory=list)
    walks: list[Obj] = field(default_factory=list)
    cluster_depth: int | None = None


def _dots(depth: int) -> list[tuple[ClusterPt, Dyadic, Dyadic]]:
    out = []
    for n in range(depth + 1):
        for m in range(1 << n):  # canonical x = m/2^n in [0, 1)
            v = ClusterPt(n, m)
            o = object_of(v)
            out.append((v, o.x, o.y))
    return out


class _Canvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        self.elements: list[str] = []

    def px(self, x: Dyadic) -> str:
        return ((x - self.x_lo) * SCALE).decimal()

    def py(self, y: Dyadic) -> str:
        return ((self.y_hi - y) * SCALE).decimal()

    def line(self, x1, y1, x2, y2, cls):
        self.elements.append(
            f'<line class="{cls}" x1="{self.px(x1)}" y1="{self.py(y1)}" '
            f'x2="{self.px(x2)}" y2="{self.py(y2)}"/>')

    def circle(self, x, y, r, cls):
        self.elements.append(
            f'<circle class="{cls}" cx="{self.px(x)}" cy="{self.py(y)}" r="{r}"/>')

    def diagonal(self, c: Dyadic, cls: str):
        """Clipped segment of the line y = x + c."""
        xa = max(self.x_lo, self.y_lo - c)
        xb = min(self.x_hi, self.y_hi - c)
        if xa <= xb:
            self.line(xa, xa + c, xb, xb + c, cls)


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
    xs = [ZERO, ONE]
    ys = [-ONE, TWO]
    for o in spec.objects:
        xs += [o.x]
        ys += [o.y]
    for r in spec.rects:
        xs += [r.x_lo, r.x_hi]
        ys += [r.y_lo, r.y_hi]
    walks = [walk_of(o) for o in spec.walks]
    for w in walks:
        for v in w.vertices:
            xs.append(v.rep[0])
            ys.append(v.rep[1])
    x_lo = min(xs) - PAD
    x_hi = max(xs) + PAD
    y_lo = min(ys) - PAD
    y_hi = max(ys) + PAD
    cv = _Canvas(x_lo, x_hi, y_lo, y_hi)

    cv.diagonal(ONE, "boundary")
    cv.diagonal(-ONE, "boundary")
    cv.diagonal(ZERO, "axis")

    if spec.cluster_depth is not None:
        for v, x, y in _dots(spec.cluster_depth):
            r = DOT_R.get(v.n, DOT_R[None])
            cv.circle(x, y, r, "cluster")

    for r in spec.rects:
        edges = [
            (r.x_lo, r.y_lo, r.x_hi, r.y_lo, r.open_y_lo),
            (r.x_hi, r.y_lo, r.x_hi, r.y_hi, r.open_x_hi),
            (r.x_hi, r.y_hi, r.x_lo, r.y_hi, r.open_y_hi),
            (r.x_lo, r.y_hi, r.x_lo, r.y_lo, r.open_x_lo),
        ]
        for x1, y1, x2, y2, is_open in edges:
            cv.line(x1, y1, x2, y2, "rect-open" if is_open else "rect-closed")

    for w in walks:
        _draw_walk(cv, w)

    for o in spec.objects:
        cv.circle(o.x, o.y, "4", "object")

    width = ((x_hi - x_lo) * SCALE).decimal()
    height = ((y_hi - y_lo) * SCALE).decimal()
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<style>{_STYLE}</style>\n'
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    return head + "\n".join(cv.elements) + "\n</svg>\n"


def _draw_walk(cv: _Canvas, w: Walk):
    arrow_half = Dyadic(1, 5)  # 1/32 of a unit, in world coordinates
    for i, step in enumerate(w.steps):
        r1 = w.vertices[i].rep
        r2 = w.vertices[i + 1].rep
        # arrows point up (vertical steps) and right (horizontal steps)
        src, dst = (r1, r2) if step == "v" else (r2, r1)
        cv.line(src[0], src[1], dst[0], dst[1], "walk")
        mx = (src[0] + dst[0]).half()
        my = (src[1] + dst[1]).half()
        if step == "v":
            p1 = (mx - arrow_half, my - arrow_half)
            p2 = (mx + arrow_half, my - arrow_half)
            tip = (mx, my + arrow_half)
        else:
            p1 = (mx - arrow_half, my - arrow_half)
            p2 = (mx - arrow_half, my + arrow_half)
            tip = (mx + arrow_half, my)
        cv.elements.append(
            '<path class="arrow" d="M {} {} L {} {} L {} {} Z"/>'.format(
                cv.px(p1[0]), cv.py(p1[1]), cv.px(p2[0]), cv.py(p2[1]),
                cv.px(tip[0]), cv.py(tip[1])))
    for v in w.vertices:
        cv.circle(v.rep[0], v.rep[1], "2.5", "walkpt")
