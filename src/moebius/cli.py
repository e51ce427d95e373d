"""Command-line front end: queries, invariant suites, SVG rendering.

Exit codes: 0 success, 1 domain error (message names the error class,
`AnswerTooLarge` for an int past the digits Python writes as text), 2
malformed arguments or input syntax (including a `check --depth` outside
1-MAX_CHECK_DEPTH, and a `kernel` or `cokernel` morphism past
MAX_KERNEL_DIM), 3 internal error: a broken invariant,
reported as one `internal error: ...` line, 141 stdout closed before the
output was written (the shell's status for SIGPIPE), with nothing printed.
Every error is one line on stderr, argparse's included; with --json it is
instead one JSON object on stdout, `{"error": <class>, "message": ...}`
(`ParseError` for exit 2, `AssertionError` for exit 3), and stderr stays
empty.

Each query returns its answer as (JSON value, text), and one printer,
`_printed`, writes it: under --json the value as one line of JSON, else
the text.  `check` prints its own rows, as it exits 1 on a failed
criterion, and `render` writes its SVG to a file or stdout.

Each handler imports the layers it uses when it is dispatched, so a cold
query loads only those: `hom`, `support`, `walk`, `approx` and `mutate` stop
at `walk`, and only `check` loads the acceptance suites.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import (MAX_CHECK_DEPTH, MAX_CLUSTER_DEPTH, MAX_KERNEL_DIM, AnswerTooLarge, MoebiusError,
                     ParseError, ShapeMismatch)

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process the signal ended
_LONG_EXPONENT_RE = re.compile(r"[eE][-+]?[\d_]{4}")  # past 999: `Fraction` would raise 10 to it


def _morphism_from_json(data):
    """src and dst must be lists of object strings, entries a list of lists
    of rationals read exactly; a zero denominator or an exponent past 999 is
    a parse error.  The shape is checked as written, then cluster summands
    go with their rows and columns."""
    from fractions import Fraction
    from .band import parse_obj
    from .cluster import member
    from .quotient import SumObj, MorQ

    if not isinstance(data, dict):
        raise ParseError("morphism JSON must be an object")
    try:
        src, dst, rows = data["src"], data["dst"], data["entries"]
    except KeyError as exc:
        raise ParseError(f"bad morphism JSON: missing {exc}")
    for key, items in (("src", src), ("dst", dst)):
        if not (isinstance(items, list) and all(isinstance(s, str) for s in items)):
            raise ParseError(f"morphism {key!r} must be a list of object strings")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ParseError("morphism 'entries' must be a list of lists")
    try:
        if any(_LONG_EXPONENT_RE.search(str(v)) for row in rows for v in row):
            raise ValueError("a decimal exponent past 999")
        entries = tuple(tuple(Fraction(str(v)) for v in row) for row in rows)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad morphism entry: {exc}")
    src, dst = [parse_obj(s) for s in src], [parse_obj(s) for s in dst]
    if len(entries) != len(dst) or any(len(row) != len(src) for row in entries):
        raise ShapeMismatch(f"entries must be {len(dst)}x{len(src)}, one row per dst "
                            f"and one column per src summand as written")
    cols = [j for j, x in enumerate(src) if member(x) is None]
    rows = [i for i, y in enumerate(dst) if member(y) is None]
    return MorQ(SumObj([src[j] for j in cols]), SumObj([dst[i] for i in rows]),
                tuple(tuple(entries[i][j] for j in cols) for i in rows))


def _printed(query):
    """The handler of a query, which returns its answer as (JSON value,
    text): it prints the value as one line of JSON under --json, else the
    text, and returns 0."""
    def handler(args) -> int:
        value, text = query(args)
        print(json.dumps(value) if args.json else text)
        return 0
    return handler


def _hom(args):
    from .band import parse_obj, hom_c_dim
    from .walk import hom_ct_dim

    x, y = parse_obj(args.x), parse_obj(args.y)
    c, ct = hom_c_dim(x, y), hom_ct_dim(x, y)
    return {"ambient": c, "quotient": ct}, f"C: {c}, C/T: {ct}"


def _support(args):
    from .band import parse_obj
    from .walk import support

    pts = sorted(support(parse_obj(args.x)))
    return pts, " ".join(str(p) for p in pts) if pts else "(empty)"


def _walk(args):
    from .band import parse_obj
    from .walk import walk_of

    w = walk_of(parse_obj(args.x))
    return w.to_json(), "\n".join(f"{v.pt}  rep ({v.rep[0]}, {v.rep[1]})  {v.role}"
                                   for v in w.vertices)


def _approx(args):
    from .band import parse_obj
    from .walk import approximation

    a = approximation(parse_obj(args.x))
    return ({"sources": a.sources, "sinks": a.sinks},
            "sources: " + (" ".join(str(p) for p in a.sources) or "(none)")
            + "\nsinks:   " + " ".join(str(p) for p in a.sinks))


def _mutate(args):
    from .cluster import STANDARD, parse_cluster_pt, mutate, object_of

    _, x_star = mutate(STANDARD, object_of(parse_cluster_pt(args.v)))
    return {"replacement": str(x_star)}, str(x_star)


def _to_string(args):
    from .band import parse_obj
    from .equiv import obj_to_string

    w = obj_to_string(parse_obj(args.x))
    return {"word": str(w)}, str(w)


def _from_string(args):
    from .strings import parse_word
    from .equiv import string_to_obj

    x = string_to_obj(parse_word(args.word))
    return {"object": str(x)}, str(x)


def _simple(args):
    from .cluster import parse_cluster_pt
    from .equiv import simple_object

    x = simple_object(parse_cluster_pt(args.v))
    return {"object": str(x)}, str(x)


def _kernel_or_cokernel(args):
    """The kernel and its inclusion, or the cokernel and its projection, as
    `args.command` names, of the JSON morphism on stdin.  Any morphism but a
    single nonzero basic one, which has a closed form, is split as string
    modules, so its source and its target may each cross at most
    MAX_KERNEL_DIM cluster chords in all (`errors`)."""
    from .equiv import obj_to_string
    from .quotient import kernel, cokernel

    try:  # a decimal as its text, which `_morphism_from_json` reads exactly
        data = json.load(sys.stdin, parse_float=str)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise ParseError(f"stdin is not JSON: {exc}")
    f = _morphism_from_json(data)
    if not (len(f.src) == len(f.dst) == 1 and f.entries[0][0]):
        for key, objs in (("src", f.src), ("dst", f.dst)):
            dim = sum(len(obj_to_string(x)) for x in objs)
            if dim > MAX_KERNEL_DIM:
                raise ParseError(f"morphism {key!r} crosses {dim} cluster chords, past the "
                                 f"{MAX_KERNEL_DIM} that kernel and cokernel accept")
    fn, key = (kernel, "inclusion") if args.command == "kernel" else (cokernel, "projection")
    obj, mor = fn(f)
    out = {"object": [str(s) for s in obj],
           key: {"src": [str(s) for s in mor.src], "dst": [str(s) for s in mor.dst],
                 "entries": [[str(v) for v in row] for row in mor.entries]}}
    return out, json.dumps(out, indent=2)


def _digits(args):
    from .cluster import parse_cluster_pt
    from .equiv import DigitPrefix, digits_to_coords, digit_vertex

    v = parse_cluster_pt(args.v)
    if any(d not in ("0", "1") for d in args.digits):
        raise ParseError("digits must be 0 or 1")
    p = DigitPrefix(v, tuple(int(d) for d in args.digits))
    am, bm = digits_to_coords(p)
    w = digit_vertex(p)
    return {"rep": [str(am), str(bm)], "pt": w}, f"({am}, {bm}) = {w}"


def _cmd_check(args) -> int:
    if not 1 <= args.depth <= MAX_CHECK_DEPTH:
        # depth 0 leaves most criteria with nothing to check
        raise ParseError(f"--depth must be between 1 and {MAX_CHECK_DEPTH}, got {args.depth}")
    from .checks import run_all

    results = run_all(args.depth)
    if args.json:
        print(json.dumps([{"index": r.index, "name": r.name, "ok": r.ok, "detail": r.detail,
                           "seconds": round(r.seconds, 2)} for r in results]))
    else:
        print("\n".join(r.line() for r in results))
    return 0 if all(r.ok for r in results) else 1


def _spec_list(data, key: str) -> list:
    items = data.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"render spec {key!r} must be a list")
    return items


def _parse_render_spec(data):
    """The objects, rects, walks and cluster depth of a JSON render spec."""
    from .dyadic import parse_dyadic
    from .band import parse_obj, Rect

    objects, rects, walks, depth = [], [], [], None
    for key, out in (("objects", objects), ("walks", walks)):
        for s in _spec_list(data, key):
            if not isinstance(s, str):
                raise ParseError(f"render spec {key!r} must hold object strings, got {s!r}")
            out.append(parse_obj(s))
    for r in _spec_list(data, "rects"):
        try:
            xs, ys, flags = r["x"], r["y"], r.get("open", [False, False, False, False])
            if not all(isinstance(b, list) and len(b) == 2 for b in (xs, ys)):
                raise ValueError("x and y must be lists of two bounds")
            if not (isinstance(flags, list) and len(flags) == 4
                    and all(isinstance(b, bool) for b in flags)):
                raise ValueError("open must be a list of four booleans")
            x_lo, x_hi = (parse_dyadic(str(v)) for v in xs)
            y_lo, y_hi = (parse_dyadic(str(v)) for v in ys)
            rects.append(Rect(x_lo, x_hi, y_lo, y_hi, *flags))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad rect: {exc}")
    if "cluster_depth" in data:
        depth = data["cluster_depth"]
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise ParseError(f"render spec 'cluster_depth' must be an integer, got {depth!r}")
    return objects, rects, walks, depth


def _cmd_render(args) -> int:
    from .band import parse_obj
    from .render import RenderSpec, render

    data = {}
    if args.spec:
        try:
            if args.spec == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.spec) as fh:
                    data = json.load(fh)
        except ValueError as exc:  # malformed, or an integer past Python's digit limit
            raise ParseError(f"render spec is not JSON: {exc}")
        except OSError as exc:
            raise ParseError(f"cannot read render spec: {exc}")
        if not isinstance(data, dict):
            raise ParseError("render spec must be a JSON object")
    objects, rects, walks, depth = _parse_render_spec(data)
    walks += map(parse_obj, args.walk or [])
    objects += map(parse_obj, args.object or [])
    if args.cluster_depth is not None:
        depth = args.cluster_depth
    if depth is not None and not 0 <= depth <= MAX_CLUSTER_DEPTH:
        raise ParseError(f"cluster depth must be between 0 and {MAX_CLUSTER_DEPTH}, got {depth}")
    doc = render(RenderSpec(objects, rects, walks, depth))
    if args.out == "-":
        sys.stdout.write(doc)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(doc)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc.strerror or exc}")
    return 0


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):  # one parse error line, not a usage block
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgParser(
        prog="moebius",
        description="Exact computations in the cluster-tilted quotient of the "
                    "continuous cluster category, in units of pi.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    add("hom", _printed(_hom), "hom dimensions in the ambient and quotient categories", "x", "y")
    add("support", _printed(_support), "cluster points supporting an object", "x")
    add("walk", _printed(_walk), "the walk attached to an object", "x")
    add("approx", _printed(_approx), "sources and sinks of the approximation sequence", "x")
    add("mutate", _printed(_mutate), "flip a standard-cluster chord", "v")
    add("to-string", _printed(_to_string), "word of an object", "x")
    add("from-string", _printed(_from_string), "object of a word", "word")
    add("simple", _printed(_simple), "object corresponding to the simple at a vertex", "v")
    add("kernel", _printed(_kernel_or_cokernel), "kernel of a JSON morphism on stdin")
    add("cokernel", _printed(_kernel_or_cokernel), "cokernel of a JSON morphism on stdin")
    p = add("digits", _printed(_digits), "coordinates of a digit-encoded tail vertex", "v")
    p.add_argument("digits", nargs="*")
    p = add("check", _cmd_check, "run the acceptance suites")
    p.add_argument("--depth", type=int, default=3,
                   help=f"grid exponent, 1-{MAX_CHECK_DEPTH} (default 3)")
    p = add("render", _cmd_render, "draw an SVG picture")
    p.add_argument("--out", default="-")
    p.add_argument("--spec", help="JSON spec file, or - for stdin")
    p.add_argument("--walk", action="append", metavar="OBJ")
    p.add_argument("--object", action="append", metavar="OBJ")
    p.add_argument("--cluster-depth", type=int,
                   help=f"draw cluster dots down to this depth, 0-{MAX_CLUSTER_DEPTH}")
    return ap


def _report(exc: Exception, code: int, as_json: bool) -> int:
    """Print the one-line error for exc and return its exit code: with
    --json a JSON object on stdout, else a line on stderr."""
    message = str(exc) if code != 3 else " ".join(str(exc).split()) or "assertion failed"
    if as_json:
        print(json.dumps({"error": type(exc).__name__, "message": message}))
    else:
        prefix = {1: type(exc).__name__, 2: "parse error", 3: "internal error"}[code]
        print(f"{prefix}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # read off argv, as argparse may fail before it sets args.json; it
    # takes an unambiguous prefix of an option too, such as --js
    as_json = any(len(a) > 2 and "--json".startswith(a) for a in argv)
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.fn(args)
        except ParseError as exc:
            code = _report(exc, 2, as_json)
        except MoebiusError as exc:
            code = _report(exc, 1, as_json)
        except AssertionError as exc:
            code = _report(exc, 3, as_json)
        except ValueError as exc:
            # an int of the answer past Python's digit limit for text (an input's
            # is a parse error); the limit stays, as writing an int is quadratic
            if "integer string conversion" not in str(exc):
                raise
            limit = sys.get_int_max_str_digits()
            code = _report(AnswerTooLarge(f"the answer holds an integer past {limit} digits"), 1, as_json)
        sys.stdout.flush()  # so a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`moebius check --json | head -c 10`): as the
        # Python docs advise, point stdout at devnull so the flush at exit
        # cannot raise again; a stand-in stdout with no descriptor needs none
        try:
            out = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), out)
        except OSError:
            pass
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
