"""The three benchmark workloads: input generation, the timed operations,
and the output checks.

Generation runs in the harness process and may call the library freely
(for example to keep only pairs with a nonzero quotient hom); it hands the
worker plain text.  The worker turns the text into objects, runs the
operations in a closed loop (one client; the next operation starts when
the previous one has returned), and checks every output afterwards.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from moebius import band, cluster, equiv, render, strings, walk
from moebius.band import Obj, normal_form, parse_obj
from moebius.cluster import ClusterPt, member
from moebius.dyadic import Dyadic
from moebius.errors import MoebiusError

WORKLOADS = ("check-d3", "kernels", "queries")

CLI_QUERIES = 40          # fresh `python -m moebius.cli` processes per run
# Work per second of --seconds: about a second of timed work each, at the
# reference speed, on the library as first benchmarked.
KERNEL_ROUNDS_PER_S = 3.3  # a round is 9 basic + 3 matrix morphisms
QUERIES_PER_S = 1600
BASIC_EXPONENTS = range(4, 13)
MATRIX_EXPONENTS = range(4, 7)
MATRIX_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))  # (source, target) summands
QUERY_EXPONENTS = range(2, 15)
# One slot per query in a cycle of 20; render is the small share.
QUERY_CYCLE = ("hom", "support", "walk", "approx", "to_string", "from_string", "simple",
               "mutate", "digits", "hom", "support", "walk", "approx", "to_string",
               "from_string", "simple", "mutate", "digits", "hom", "render")
CLI_KINDS = ("hom", "support", "walk", "approx", "to-string", "from-string",
             "simple", "mutate", "digits")


# -- generation (harness side) ------------------------------------------------

def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def random_obj(rng: random.Random, e: int) -> Obj:
    """An object off the cluster whose coordinates have exponent exactly e."""
    while True:
        x = Dyadic(rng.randrange(1 << (e + 1)), e)
        delta = Dyadic(rng.randrange(1, 1 << e), e)
        if max(x.exp, delta.exp) == e:
            obj = Obj(x, delta)
            if member(obj) is None:
                return obj


def nearby_obj(rng: random.Random, obj: Obj, e: int, spread: int) -> Obj:
    """An object off the cluster up to spread/2^e above and right of obj."""
    while True:
        dx = Dyadic(rng.randrange(spread), e)
        dy = Dyadic(rng.randrange(spread), e)
        try:
            near = normal_form(obj.x + dx, obj.y + dy)
        except MoebiusError:
            continue
        if near != obj and near.max_exp() <= e and member(near) is None:
            return near


def _scalar(rng: random.Random) -> str:
    return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3, 4))))


def _basic_pair(rng, e):
    from moebius.walk import hom_ct_dim
    while True:
        x = random_obj(rng, e)
        y = nearby_obj(rng, x, e, 1 << (e - 1))
        if hom_ct_dim(x, y):
            return x, y


def _matrix_morphism(rng, e, ns, nd) -> dict:
    """ns source and nd target summands, every summand touched by a nonzero
    hom, and more nonzero entries than summands on the larger side."""
    from moebius.walk import hom_ct_dim
    while True:
        centre = random_obj(rng, e)
        src = [centre] + [nearby_obj(rng, centre, e, 1 << (e - 2)) for _ in range(ns - 1)]
        dst = [nearby_obj(rng, rng.choice(src), e, 1 << (e - 1)) for _ in range(nd)]
        if len(set(src)) < ns or len(set(dst)) < nd:
            continue
        nz = [[hom_ct_dim(s, d) for s in src] for d in dst]
        if (all(any(row) for row in nz) and all(any(row[j] for row in nz) for j in range(ns))
                and sum(map(sum, nz)) > max(ns, nd)):
            entries = [[_scalar(rng) if nz[i][j] else "0" for j in range(ns)] for i in range(nd)]
            return {"kind": "matrix", "e": e, "src": [str(s) for s in src],
                    "dst": [str(d) for d in dst], "entries": entries}


def _basic_morphism(rng, e) -> dict:
    x, y = _basic_pair(rng, e)
    return {"kind": "basic", "e": e, "src": [str(x)], "dst": [str(y)], "entries": [[_scalar(rng)]]}


def _morphism_json(f) -> dict:
    return {"src": [str(s) for s in f.src], "dst": [str(s) for s in f.dst],
            "entries": [[str(v) for v in row] for row in f.entries]}


def _morphism_data(op: dict) -> tuple:
    return ([parse_obj(s) for s in op["src"]], [parse_obj(s) for s in op["dst"]],
            tuple(tuple(Fraction(v) for v in row) for row in op["entries"]))


def _make_morphism(src, dst, entries):
    from moebius.quotient import MorQ, SumObj
    return MorQ(SumObj(src), SumObj(dst), entries)


def generate(workload: str, seed: int, seconds: float) -> dict:
    """Inputs for one run: the operations and the cold CLI queries with the
    answers the library gives for them."""
    if workload == "check-d3":
        return {"ops": [], "cli": _cli_check_d3(_rng(workload, seed, "cli"))}
    if workload == "kernels":
        return {"ops": _kernel_ops(_rng(workload, seed, "ops"), seconds),
                "cli": _cli_kernels(_rng(workload, seed, "cli"))}
    if workload == "queries":
        return {"ops": _query_ops(_rng(workload, seed, "ops"), seconds),
                "cli": _cli_queries(_rng(workload, seed, "cli"))}
    raise ValueError(f"unknown workload {workload!r}")


def _kernel_ops(rng, seconds) -> list[dict]:
    ops = []
    # Exponents and shapes cycle independently, so every seed draws each of
    # their 12 pairings equally often: the slowest morphisms, which set the
    # tail, then come in the same numbers for every seed.
    matrix_e = itertools.cycle(MATRIX_EXPONENTS)
    shapes = itertools.cycle(MATRIX_SHAPES)
    for _ in range(max(1, round(seconds * KERNEL_ROUNDS_PER_S))):
        rnd = [_basic_morphism(rng, e) for e in BASIC_EXPONENTS]
        rnd.extend(_matrix_morphism(rng, e, *next(shapes)) for e in itertools.islice(matrix_e, 3))
        rng.shuffle(rnd)
        ops.extend(rnd)
    return ops


def _cluster_pt(rng, e: int) -> list[int]:
    """A cluster point of depth e - 1: its simple and its flip have
    coordinates of exponent at most e."""
    return [e - 1, rng.randrange(1 << e)]


def _query_ops(rng, seconds) -> list[dict]:
    from moebius.equiv import obj_to_string
    ops = []
    exps = list(QUERY_EXPONENTS)
    for i in range(max(len(QUERY_CYCLE), round(seconds * QUERIES_PER_S))):
        kind, e = QUERY_CYCLE[i % len(QUERY_CYCLE)], exps[i % len(exps)]
        op = {"q": kind, "e": e}
        if kind == "hom":
            x = random_obj(rng, e)
            y = random_obj(rng, e) if rng.random() < 0.5 else nearby_obj(rng, x, e, 1 << (e - 1))
            op.update(x=str(x), y=str(y))
        elif kind in ("support", "walk", "approx", "to_string", "render"):
            op["x"] = str(random_obj(rng, e))
        elif kind == "from_string":
            x = random_obj(rng, e)
            op.update(word=str(obj_to_string(x)), x=str(x))
        elif kind in ("simple", "mutate"):
            op["v"] = _cluster_pt(rng, e)
        elif kind == "digits":
            op["v"] = _cluster_pt(rng, e)
            op["digits"] = [rng.randrange(2) for _ in range(rng.randrange(13))]
        ops.append(op)
    return ops


# -- cold CLI queries and the library's answers ----------------------------------

def _cli_check_d3(rng) -> list[dict]:
    from moebius.band import hom_c_dim
    from moebius.checks import grid_off_cluster
    from moebius.walk import hom_ct_dim
    objs = grid_off_cluster(3)
    out = []
    for _ in range(CLI_QUERIES):
        x, y = rng.choice(objs), rng.choice(objs)
        out.append({"argv": ["hom", str(x), str(y), "--json"],
                    "expect": {"ambient": hom_c_dim(x, y), "quotient": hom_ct_dim(x, y)}})
    return out


def _cli_kernels(rng) -> list[dict]:
    from moebius.quotient import cokernel, kernel
    out = []
    for i in range(CLI_QUERIES):
        x, y = _basic_pair(rng, 4 + i % 3)
        op = {"src": [str(x)], "dst": [str(y)], "entries": [[_scalar(rng)]]}
        which, key = (("kernel", "inclusion"), ("cokernel", "projection"))[i % 2]
        obj, mor = (kernel if which == "kernel" else cokernel)(_make_morphism(*_morphism_data(op)))
        out.append({"argv": [which, "--json"], "stdin": json.dumps(op),
                    "expect": {"object": [str(s) for s in obj], key: _morphism_json(mor)}})
    return out


def _cli_queries(rng) -> list[dict]:
    from moebius.band import hom_c_dim
    from moebius.cluster import STANDARD, mutate, object_of
    from moebius.equiv import DigitPrefix, digit_vertex, digits_to_coords, obj_to_string, simple_object
    from moebius.walk import approximation, hom_ct_dim, support, walk_of
    out = []
    for i in range(CLI_QUERIES):
        kind, e = CLI_KINDS[i % len(CLI_KINDS)], rng.choice(QUERY_EXPONENTS)
        x = random_obj(rng, e)
        v = ClusterPt(*_cluster_pt(rng, e))
        if kind == "hom":
            y = nearby_obj(rng, x, e, 1 << (e - 1))
            argv, expect = [str(x), str(y)], {"ambient": hom_c_dim(x, y), "quotient": hom_ct_dim(x, y)}
        elif kind == "support":
            argv, expect = [str(x)], [[p.n, p.m] for p in sorted(support(x))]
        elif kind == "walk":
            argv, expect = [str(x)], walk_of(x).to_json()
        elif kind == "approx":
            a = approximation(x)
            argv, expect = [str(x)], {"sources": [[p.n, p.m] for p in a.sources],
                                      "sinks": [[p.n, p.m] for p in a.sinks]}
        elif kind == "to-string":
            argv, expect = [str(x)], {"word": str(obj_to_string(x))}
        elif kind == "from-string":
            argv, expect = [str(obj_to_string(x))], {"object": str(x)}
        elif kind == "simple":
            argv, expect = [str(v)], {"object": str(simple_object(v))}
        elif kind == "mutate":
            argv, expect = [str(v)], {"replacement": str(mutate(STANDARD, object_of(v))[1])}
        else:
            p = DigitPrefix(v, tuple(rng.randrange(2) for _ in range(rng.randrange(13))))
            am, bm = digits_to_coords(p)
            w = digit_vertex(p)
            argv = [str(v)] + [str(d) for d in p.digits]
            expect = {"rep": [str(am), str(bm)], "pt": [w.n, w.m]}
        out.append({"argv": [kind] + argv + ["--json"], "expect": expect})
    return out


# -- worker side: materialise, run, check ----------------------------------------

class Op:
    """One timed library call: `fn(*args)`; `text` renders its output for the
    digest and `check(op, out)` verifies it afterwards.  The three functions
    are shared by every operation of a kind, so an operation holds little
    more than its arguments."""

    __slots__ = ("fn", "args", "text", "check", "expect")

    def __init__(self, fn, args, text, check, expect=None):
        self.fn, self.args, self.text, self.check, self.expect = fn, args, text, check, expect


def materialise(workload: str, inputs: dict) -> list[Op]:
    if workload == "check-d3":
        from moebius import checks
        # The worker counts the suite's FAIL criteria itself.
        return [Op(lambda depth: checks.run_all(depth), (3,), _suite_text, None)]
    if workload == "kernels":
        return [Op(_kernel_op, _morphism_data(op), _kernel_text, _kernel_ok) for op in inputs["ops"]]
    if workload == "queries":
        return [_query_op(op) for op in inputs["ops"]]
    raise ValueError(f"unknown workload {workload!r}")


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def _suite_text(results) -> str:
    return "\n".join(f"{r.index} {r.ok} {r.name}: {r.detail}" for r in results)


def _kernel_op(src, dst, entries):
    from moebius import quotient
    f = _make_morphism(src, dst, entries)
    return (f,) + quotient.kernel(f) + quotient.cokernel(f)


def _kernel_text(out) -> str:
    _, k_obj, incl, c_obj, proj = out
    return json.dumps([str(k_obj), _morphism_json(incl), str(c_obj), _morphism_json(proj)])


def _kernel_ok(op, out) -> bool:
    """The criterion-6 properties: mono inclusion, epi projection, zero
    composites and dimension exactness."""
    from moebius.equiv import obj_to_string
    from moebius.quotient import classify, compose
    f, k_obj, incl, c_obj, proj = out
    if not (classify(incl).is_mono and classify(proj).is_epi):
        return False
    if not (classify(compose(f, incl)).is_zero and classify(compose(proj, f)).is_zero):
        return False
    dim = lambda summands: sum(len(obj_to_string(s)) for s in summands)
    return dim(k_obj) - dim(f.src) + dim(f.dst) - dim(c_obj) == 0


def _walk_interior(walk) -> frozenset:
    return frozenset(walk.points()) - {walk.vertices[0].pt, walk.vertices[-1].pt}


def _draws_walk(svg: str, w) -> bool:
    """One dot per walk vertex and one segment per step."""
    return (svg.count('class="walkpt"') == len(w.vertices)
            and svg.count('class="walk"') == len(w.steps))


def _pts(points) -> str:
    return " ".join(str(p) for p in points)


# Query kind -> (fn, text, check).  Library functions are looked up on their
# modules at call time, so the tracer's wrappers see these calls too.
QUERY_KINDS = {
    "hom": (lambda a, b: (band.hom_c_dim(a, b), walk.hom_ct_dim(a, b)),
            lambda out: f"{out[0]} {out[1]}",
            lambda op, out: out[0] >= out[1] and out[1] == strings.hom_dim_strings(
                equiv.obj_to_string(op.args[0]), equiv.obj_to_string(op.args[1]))),
    "support": (lambda x: walk.support(x), lambda out: _pts(sorted(out)),
                lambda op, out: out == _walk_interior(walk.walk_of(op.args[0]))),
    "walk": (lambda x: walk.walk_of(x), lambda out: json.dumps(out.to_json()),
             lambda op, out: walk.support(op.args[0]) == _walk_interior(out)),
    "approx": (lambda x: walk.approximation(x), lambda out: f"{_pts(out.sources)} | {_pts(out.sinks)}",
               lambda op, out: len(out.sinks) == len(out.sources) + 1),
    "to_string": (lambda x: equiv.obj_to_string(x), str,
                  lambda op, out: equiv.string_to_obj(out) == op.args[0]),
    "from_string": (lambda text: equiv.string_to_obj(strings.parse_word(text)), str,
                    lambda op, out: out == op.expect
                    and equiv.obj_to_string(out) == strings.parse_word(op.args[0])),
    "simple": (lambda v: equiv.simple_object(v), str,
               lambda op, out: equiv.obj_to_string(out) == strings.word([op.args[0]])),
    "mutate": (lambda v: cluster.mutate(cluster.STANDARD, cluster.object_of(v)),
               lambda out: str(out[1]),
               lambda op, out: cluster.mutate(*out) == (cluster.STANDARD,
                                                       cluster.object_of(op.args[0]))),
    "digits": (lambda p: equiv.digits_to_coords(p), lambda out: f"{out[0]} {out[1]}",
               lambda op, out: equiv.coords_to_digits(
                   op.args[0].base, equiv.digit_vertex(op.args[0]), len(op.args[0].digits)) == op.args[0]),
    "render": (lambda x: render.render(render.RenderSpec(walks=[x])),
               lambda out: hashlib.sha256(out.encode()).hexdigest(),
               lambda op, out: out.endswith("</svg>\n") and _draws_walk(out, walk.walk_of(op.args[0]))),
}


def _query_op(op: dict) -> Op:
    kind, expect = op["q"], None
    if kind == "from_string":
        args, expect = (op["word"],), parse_obj(op["x"])
    elif kind in ("simple", "mutate"):
        args = (ClusterPt(*op["v"]),)
    elif kind == "digits":
        args = (equiv.DigitPrefix(ClusterPt(*op["v"]), tuple(op["digits"])),)
    elif kind == "hom":
        args = (parse_obj(op["x"]), parse_obj(op["y"]))
    else:
        args = (parse_obj(op["x"]),)
    fn, text, check = QUERY_KINDS[kind]
    return Op(fn, args, text, check, expect)
