import io
import json

import pytest
from hypothesis import event, given, settings, strategies as st

from moebius.cli import main
from moebius.errors import MAX_POINT_DEPTH


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hom(capsys):
    code, out, _ = run(capsys, "hom", "M(1/8,1/4)", "M(1/4,3/4)")
    assert code == 0 and out.strip() == "C: 1, C/T: 1"


def test_hom_json(capsys):
    code, out, _ = run(capsys, "hom", "--json", "M(1/8,1/4)", "M(1/4,3/4)")
    assert code == 0 and json.loads(out) == {"ambient": 1, "quotient": 1}


def test_support(capsys):
    code, out, _ = run(capsys, "support", "M(1/4,3/4)")
    assert code == 0 and out.strip() == "T(0,0) T(1,0) T(1,1)"


def test_walk_json_roundtrip(capsys):
    code, out, _ = run(capsys, "walk", "--json", "M(1/4,3/4)")
    assert code == 0
    data = json.loads(out)
    assert [d["pt"] for d in data] == [[2, 2], [1, 1], [0, 0], [1, 0], [2, 0]]
    assert [d["role"] for d in data] == ["sink", "source", "through", "through", "sink"]


def test_approx(capsys):
    code, out, _ = run(capsys, "approx", "--json", "M(1/8,1/4)")
    assert code == 0
    data = json.loads(out)
    assert data == {"sources": [[2, 1], [1, 3]], "sinks": [[3, 2], [0, 0], [2, 6]]}


def test_mutate(capsys):
    code, out, _ = run(capsys, "mutate", "T(0,0)")
    assert code == 0 and out.strip() == "M(1/2,1/2)"


def test_mutate_at_depth_60(capsys):
    from moebius.cluster import STANDARD, ClusterPt, object_of
    from oracles import mutate_on_angles
    v = ClusterPt(60, (5 << 57) + 1)
    code, out, _ = run(capsys, "mutate", str(v))
    assert code == 0 and out.strip() == str(mutate_on_angles(STANDARD, object_of(v))[1])


def test_strings_roundtrip(capsys):
    code, out, _ = run(capsys, "to-string", "M(1/8,1/4)")
    assert code == 0
    word_text = out.strip()
    code, out, _ = run(capsys, "from-string", word_text)
    assert code == 0 and out.strip() == "M(1/8,1/4)"


def test_simple(capsys):
    code, out, _ = run(capsys, "simple", "T(2,1)")
    assert code == 0 and out.strip() == "M(1/2,9/8)"


def test_digits(capsys):
    code, out, _ = run(capsys, "digits", "T(0,0)", "1", "0")
    assert code == 0 and out.strip() == "(-1/4, 1/2) = T(2,7)"


def test_kernel_json(capsys, monkeypatch):
    payload = json.dumps({"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"],
                          "entries": [["1"]]})
    code, out, _ = run(capsys, "kernel", "--json", stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert sorted(data["object"]) == sorted(["M(1/2,9/8)", "M(0,1/4)"])
    inc = data["inclusion"]
    assert inc["dst"] == ["M(1/8,1/4)"]
    assert len(inc["entries"]) == 1 and len(inc["entries"][0]) == 2


def test_cokernel_json(capsys, monkeypatch):
    payload = json.dumps({"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"],
                          "entries": [[1]]})
    code, out, _ = run(capsys, "cokernel", "--json", stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["object"] == ["M(7/4,2)"]  # canonical form of M(1,3/4)
    assert data["projection"]["src"] == ["M(1/4,3/4)"]


_MORPHISM_1X1 = json.dumps({"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"], "entries": [[1]]})

# One input per query subcommand, with its exact stdout as text and with
# --json; `kernel` and `cokernel` print their JSON indented as text.
_QUERY_OUTPUTS = [
    (["hom", "M(1/8,1/4)", "M(1/4,3/4)"], None,
     "C: 1, C/T: 1\n", '{"ambient": 1, "quotient": 1}\n'),
    (["support", "M(1/4,3/4)"], None, "T(0,0) T(1,0) T(1,1)\n", "[[0, 0], [1, 0], [1, 1]]\n"),
    (["support", "M(0,1/2)"], None, "(empty)\n", "[]\n"),  # a cluster object
    (["walk", "M(1/4,3/4)"], None,
     "T(2,2)  rep (1/4, -1/2)  sink\n"
     "T(1,1)  rep (0, -1/2)  source\n"
     "T(0,0)  rep (0, 0)  through\n"
     "T(1,0)  rep (0, 1/2)  through\n"
     "T(2,0)  rep (0, 3/4)  sink\n",
     '[{"pt": [2, 2], "rep": ["1/4", "-1/2"], "role": "sink"}, '
     '{"pt": [1, 1], "rep": ["0", "-1/2"], "role": "source"}, '
     '{"pt": [0, 0], "rep": ["0", "0"], "role": "through"}, '
     '{"pt": [1, 0], "rep": ["0", "1/2"], "role": "through"}, '
     '{"pt": [2, 0], "rep": ["0", "3/4"], "role": "sink"}]\n'),
    (["approx", "M(1/8,1/4)"], None,
     "sources: T(2,1) T(1,3)\nsinks:   T(3,2) T(0,0) T(2,6)\n",
     '{"sources": [[2, 1], [1, 3]], "sinks": [[3, 2], [0, 0], [2, 6]]}\n'),
    (["mutate", "T(0,0)"], None, "M(1/2,1/2)\n", '{"replacement": "M(1/2,1/2)"}\n'),
    (["to-string", "M(1/8,1/4)"], None,
     "T(1,3) < T(0,0) > T(1,1) > T(2,1)\n", '{"word": "T(1,3) < T(0,0) > T(1,1) > T(2,1)"}\n'),
    (["from-string", "T(2,1) < T(1,1) < T(0,0) > T(1,3)"], None,
     "M(1/8,1/4)\n", '{"object": "M(1/8,1/4)"}\n'),
    (["simple", "T(2,1)"], None, "M(1/2,9/8)\n", '{"object": "M(1/2,9/8)"}\n'),
    (["digits", "T(0,0)", "1", "0"], None,
     "(-1/4, 1/2) = T(2,7)\n", '{"rep": ["-1/4", "1/2"], "pt": [2, 7]}\n'),
    (["kernel"], _MORPHISM_1X1, None,
     '{"object": ["M(0,1/4)", "M(1/2,9/8)"], "inclusion": {"src": ["M(0,1/4)", "M(1/2,9/8)"], '
     '"dst": ["M(1/8,1/4)"], "entries": [["1", "1"]]}}\n'),
    (["cokernel"], _MORPHISM_1X1, None,
     '{"object": ["M(7/4,2)"], "projection": {"src": ["M(1/4,3/4)"], "dst": ["M(7/4,2)"], '
     '"entries": [["1"]]}}\n'),
]


@pytest.mark.parametrize("argv, stdin, text, json_line", _QUERY_OUTPUTS,
                         ids=[" ".join(case[0]) for case in _QUERY_OUTPUTS])
def test_query_prints_its_text_and_one_json_line(capsys, monkeypatch, argv, stdin, text, json_line):
    if text is None:
        text = json.dumps(json.loads(json_line), indent=2) + "\n"
    assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == (0, text, "")
    assert run(capsys, *argv, "--json", stdin=stdin, monkeypatch=monkeypatch) == (0, json_line, "")


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "hom", "M(1/8)", "M(1/4,3/4)")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("argv", [("support", "M(1_0/8,1/4)"), ("support", "M(1/8,1/4_0)"),
                                  ("support", "M(\u0661/8,1/4)"), ("support", "M(1/\u0668,1/4)"),
                                  ("simple", "T(\u0661,\u0660)"), ("simple", "T(1,\u0660)"),
                                  ("simple", "T(1_0,0)"), ("simple", "T(3,%s)" % ("1" * 5000))],
                         ids=["underscore", "underscore in den", "arabic-indic num", "arabic-indic den",
                              "arabic-indic point", "arabic-indic m", "underscore in n", "5000 digits"])
def test_textual_integers_are_ascii_digits(capsys, argv):
    # int() alone would read 1_0 as 10 and Arabic-Indic digits as ASCII
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["M(+1/8,1/4)", "M( 1/8 , +1/+4 )", "M(-15/8,-7/4)"])
def test_textual_integers_take_a_sign(capsys, text):
    code, out, _ = run(capsys, "support", text)
    assert code == 0 and out.strip() == "T(0,0) T(1,1) T(1,3) T(2,1)"


def test_domain_error_exit_1(capsys):
    for command in ("walk", "to-string"):  # `to-string` steps no walk
        code, out, err = run(capsys, command, "M(0,1/2)")
        assert code == 1 and out == "", command
        assert err == "InCluster: M(0,1/2) lies in the standard cluster\n", command


def test_band_boundary_is_domain_error(capsys):
    code, _, err = run(capsys, "hom", "M(0,1)", "M(0,0)")
    assert code == 1 and "BandBoundary" in err


def _assert_json_error(code, out, err):
    """With --json an error is one JSON object on stdout, naming the class of
    the error and its message, and nothing goes to stderr."""
    assert err == "" and out.count("\n") == 1 and out.endswith("\n"), (out, err)
    data = json.loads(out)
    assert set(data) == {"error", "message"} and data["message"], data
    assert (data["error"] == "ParseError") == (code == 2), (code, data)
    return data


def test_domain_error_json(capsys):
    code, out, err = run(capsys, "hom", "M(0,2)", "x", "--json")
    assert code == 1
    assert _assert_json_error(code, out, err) == {"error": "BandBoundary",
                                                  "message": "(0, 2) lies outside the open band"}


def test_parse_error_json(capsys):
    code, out, err = run(capsys, "hom", "M(1/8,1/4)", "--json")  # y is missing
    assert code == 2
    assert "required: y" in _assert_json_error(code, out, err)["message"]
    code, out, err = run(capsys, "check", "--js", "--depth", "0")  # an abbreviated --json
    assert code == 2 and "--depth" in _assert_json_error(code, out, err)["message"]


def test_kernel_stdin_error_json(capsys, monkeypatch):
    code, out, err = run(capsys, "kernel", "--json", stdin="not json", monkeypatch=monkeypatch)
    assert code == 2 and "not JSON" in _assert_json_error(code, out, err)["message"]
    payload = json.dumps({"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"], "entries": [[1, 1]]})
    code, out, err = run(capsys, "cokernel", "--json", stdin=payload, monkeypatch=monkeypatch)
    assert code == 1 and _assert_json_error(code, out, err)["error"] == "ShapeMismatch"


_BIG = "1" + "0" * 3000  # 10^3000, within the digit limit as input


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("argv, stdin", [
    (["simple", "T(15000,1)"], None),  # a Dyadic over 2^15000
    (["mutate", "T(15000,1)"], None),
    (["from-string", "T(15000,1)"], None),
    (["kernel"], json.dumps({"src": ["M(1/8,1/4)", "M(1/4,3/4)"], "dst": ["M(1/4,3/4)"],
                             "entries": [["1/" + _BIG, _BIG]]})),  # an entry over 10^6000
    *(([command, f"T({MAX_POINT_DEPTH},1)"], None)  # the deepest point read
      for command in ("simple", "mutate", "digits", "from-string")),
])
def test_answer_past_the_digit_limit_is_one_line_exit_1(capsys, monkeypatch, argv, stdin, json_flag):
    argv = [*argv, *(["--json"] if json_flag else [])]
    code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    if json_flag:
        assert _assert_json_error(code, out, err)["error"] == "AnswerTooLarge"
    else:
        assert out == "" and err.startswith("AnswerTooLarge: ") and err.count("\n") == 1


_DEEP = f"T({MAX_POINT_DEPTH + 1},1)"  # one past the deepest point read
_HUGE = "T(99999999999999999999999,1)"


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("argv", [
    ["simple", _HUGE], ["mutate", _HUGE], ["digits", _HUGE, "1", "0"], ["from-string", _HUGE],
    ["from-string", f"T(0,0) > {_HUGE}"], ["simple", "T(9999999999,1)"],
    ["simple", _DEEP], ["mutate", _DEEP], ["digits", _DEEP], ["from-string", _DEEP],
], ids=" ".join)
def test_point_past_the_depth_bound_is_one_line_exit_2(capsys, argv, json_flag):
    argv = [*argv, *(["--json"] if json_flag else [])]
    code, out, err = run(capsys, *argv)
    assert code == 2
    if json_flag:
        assert _assert_json_error(code, out, err)["message"].startswith(f"depth past {MAX_POINT_DEPTH} in ")
    else:
        assert out == "" and err.startswith(f"parse error: depth past {MAX_POINT_DEPTH} in ")
        assert err.count("\n") == 1


def test_render_spec_integer_past_the_digit_limit_exit_2(capsys, monkeypatch):
    spec = '{"cluster_depth": 1' + "0" * 5000 + "}"
    code, out, err = run(capsys, "render", "--spec", "-", stdin=spec, monkeypatch=monkeypatch)
    assert code == 2 and out == "" and err.startswith("parse error: render spec is not JSON")


def test_render_stdout(capsys):
    code, out, _ = run(capsys, "render", "--cluster-depth", "2")
    assert code == 0
    assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")
    assert out.count('circle class="cluster"') == 7  # 1 + 2 + 4


def test_render_spec_stdin(capsys, monkeypatch):
    payload = json.dumps({"walks": ["M(1/4,3/4)"],
                          "rects": [{"x": ["0", "1/4"], "y": ["-1/2", "3/4"],
                                     "open": [False, False, False, False]}],
                          "cluster_depth": 1})
    code, out, _ = run(capsys, "render", "--spec", "-", stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    assert out.count('class="walk"') == 4
    assert out.count('class="rect-closed"') == 4


def test_kernel_bad_stdin_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, "kernel", stdin="not json", monkeypatch=monkeypatch)
    assert code == 2 and "parse error" in err
    payload = json.dumps({"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"]})
    code, _, err = run(capsys, "kernel", stdin=payload, monkeypatch=monkeypatch)
    assert code == 2 and "entries" in err


def _kernel_stdin_error(capsys, monkeypatch, payload):
    for which in ("kernel", "cokernel"):
        code, out, err = run(capsys, which, stdin=json.dumps(payload), monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1
    return err


def test_kernel_zero_denominator_exit_2(capsys, monkeypatch):
    err = _kernel_stdin_error(capsys, monkeypatch, {"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"],
                                                   "entries": [["1/0"]]})
    assert "entry" in err


def test_kernel_src_not_a_list_exit_2(capsys, monkeypatch):
    err = _kernel_stdin_error(capsys, monkeypatch, {"src": "M(1/8,1/4)", "dst": ["M(1/4,3/4)"],
                                                   "entries": [["1"]]})
    assert "'src' must be a list" in err


def test_kernel_past_its_bound_exit_2_before_any_split(capsys, monkeypatch):
    # the zero morphism on an object whose chord crosses 1,039 cluster
    # chords is split as string modules, so it is refused before any split;
    # the identity on it is basic, read off in closed form, and not bounded
    from moebius import quotient
    from moebius.band import normal_form
    from moebius.dyadic import Dyadic
    from moebius.errors import MAX_KERNEL_DIM

    def no_split(f):
        raise AssertionError("split past the bound")

    x = str(normal_form(Dyadic(1, 520), Dyadic((1 << 519) + 3, 520)))
    monkeypatch.setattr(quotient, "_kernel_rep", no_split)
    monkeypatch.setattr(quotient, "_cokernel_rep", no_split)
    err = _kernel_stdin_error(capsys, monkeypatch, {"src": [x], "dst": [x], "entries": [["0"]]})
    assert err == (f"parse error: morphism 'src' crosses 1039 cluster chords, past the "
                   f"{MAX_KERNEL_DIM} that kernel and cokernel accept\n")
    for which in ("kernel", "cokernel"):
        payload = json.dumps({"src": [x], "dst": [x], "entries": [["1"]]})
        code, out, _ = run(capsys, which, "--json", stdin=payload, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["object"] == []


def _entries_payload(number: str) -> str:
    # a JSON number written as is, so no float comes between it and the CLI
    return ('{"src": ["M(1/8,1/4)", "M(1/4,3/4)"], "dst": ["M(1/4,3/4)"], '
            f'"entries": [[{number}, 1]]}}')


# JSON decimals are read from their text: the kernel of (a, 1) is M(1/8,1/4),
# included by the column (1, -a), with a exactly as written
_DECIMALS = {"1e-400": f"-1/{10 ** 400}", "0.30000000000000001": "-30000000000000001/100000000000000000",
             "1e400": f"-{10 ** 400}", "1E+999": f"-{10 ** 999}", "-2.5E+1": "25"}


@pytest.mark.parametrize("number", sorted(_DECIMALS))
def test_kernel_reads_json_decimals_exactly(capsys, monkeypatch, number):
    payload = _entries_payload(number)
    code, out, err = run(capsys, "kernel", "--json", stdin=payload, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["object"] == ["M(1/8,1/4)"]
    assert data["inclusion"]["entries"] == [["1"], [_DECIMALS[number]]]


_OUT_OF_REACH = {"NaN": "bad morphism entry", "Infinity": "bad morphism entry",
                 "1e999999999": "exponent past 999", "1e1000": "exponent past 999",
                 "1e-1000": "exponent past 999", "1" * 5000: "stdin is not JSON"}


@pytest.mark.parametrize("number", sorted(_OUT_OF_REACH), ids=lambda n: n if len(n) < 20 else "5000 digits")
def test_kernel_json_number_out_of_reach_exit_2(capsys, monkeypatch, number):
    # not a number, or past a bound: one parse error line, without first
    # raising 10 to a huge exponent or reading a 5000-digit integer
    payload, message = _entries_payload(number), _OUT_OF_REACH[number]
    for which in ("kernel", "cokernel"):
        code, out, err = run(capsys, which, stdin=payload, monkeypatch=monkeypatch)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("parse error: ") and message in err, err[:200]


_WITH_CLUSTER_SUMMAND = {"src": ["M(0,1/2)", "M(1/8,1/4)"], "dst": ["M(1/4,3/4)"]}


def test_kernel_drops_cluster_summand_with_its_column(capsys, monkeypatch):
    # M(0,1/2) = T(1,0) is zero in the quotient; its column goes with it
    payload = json.dumps(dict(_WITH_CLUSTER_SUMMAND, entries=[[1, 1]]))
    code, out, err = run(capsys, "kernel", "--json", stdin=payload, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert sorted(data["object"]) == ["M(0,1/4)", "M(1/2,9/8)"]
    assert data["inclusion"]["dst"] == ["M(1/8,1/4)"]
    code, out, _ = run(capsys, "cokernel", "--json", stdin=payload, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["object"] == ["M(7/4,2)"]


@pytest.mark.parametrize("entries", [[[1]], [[1, 1], [1, 1]], [[1, 1, 1]], [[1], [1, 1]]])
def test_kernel_shape_checked_as_written(capsys, monkeypatch, entries):
    payload = json.dumps(dict(_WITH_CLUSTER_SUMMAND, entries=entries))
    for which in ("kernel", "cokernel"):
        code, out, err = run(capsys, which, stdin=payload, monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert err.startswith("ShapeMismatch: entries must be 1x2") and err.count("\n") == 1


def test_check_runs_small(capsys):
    code, out, _ = run(capsys, "check", "--depth", "1")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 11
    assert all("PASS" in l for l in lines)


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--json", "--depth", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 11 and all(d["ok"] for d in data)


@pytest.mark.parametrize("argv", [("support", "M(1/8,1/4)"), ("check", "--depth", "1", "--json")])
def test_closed_stdout_exits_141_without_traceback(argv):
    # stdout is a pipe whose read end is already closed, so the first write
    # fails with EPIPE whatever the timing
    import os, subprocess, sys
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "moebius.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_digits_not_binary_exit_2(capsys):
    code, out, err = run(capsys, "digits", "T(0,0)", "x")
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_render_spec_bad_json_exit_2(capsys, monkeypatch):
    code, out, err = run(capsys, "render", "--spec", "-", stdin="{bad", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "render", "--spec", "-", stdin="[1]", monkeypatch=monkeypatch)
    assert code == 2 and err.startswith("parse error: ")


def test_render_spec_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "render", "--spec", str(tmp_path / "absent.json"))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing/x.svg", "."])
def test_render_out_unwritable_exit_2(capsys, tmp_path, where):
    code, out, err = run(capsys, "render", "--walk", "M(1/4,3/4)", "--out", str(tmp_path / where))
    assert code == 2 and out == ""
    assert err.startswith("parse error: cannot write ") and err.count("\n") == 1


def test_render_out_writes_file(capsys, tmp_path):
    code, out, err = run(capsys, "render", "--walk", "M(1/4,3/4)", "--out", str(tmp_path / "w.svg"))
    assert code == 0 and out == "" and err == ""
    assert (tmp_path / "w.svg").read_text().count('class="walkpt"') == 5


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_check_rejects_depth_below_one(capsys, depth):
    code, out, err = run(capsys, "check", "--depth", depth)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "--depth" in err


@pytest.mark.parametrize("depth", ["6", "7", "9999999"])
def test_check_rejects_depth_above_cap(capsys, monkeypatch, depth):
    import moebius.checks

    def never(depth):
        raise AssertionError("run_all reached past the depth cap")

    monkeypatch.setattr(moebius.checks, "run_all", never)
    code, out, err = run(capsys, "check", "--depth", depth)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "--depth" in err and err.count("\n") == 1


def _render_spec_error(capsys, monkeypatch, spec):
    code, out, err = run(capsys, "render", "--spec", "-", stdin=json.dumps(spec),
                         monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    return err


def test_render_spec_cluster_depth_not_integer_exit_2(capsys, monkeypatch):
    err = _render_spec_error(capsys, monkeypatch, {"cluster_depth": "x"})
    assert "cluster_depth" in err


def test_render_spec_object_not_string_exit_2(capsys, monkeypatch):
    err = _render_spec_error(capsys, monkeypatch, {"objects": [1]})
    assert "objects" in err


def test_render_spec_cluster_depth_above_cap_exit_2(capsys, monkeypatch):
    err = _render_spec_error(capsys, monkeypatch, {"cluster_depth": 99})
    assert "between 0 and 12" in err


@pytest.mark.parametrize("depth", ["-1", "13"])
def test_render_cluster_depth_flag_out_of_range_exit_2(capsys, depth):
    code, out, err = run(capsys, "render", "--cluster-depth", depth)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "between 0 and 12" in err


@pytest.mark.parametrize("rect", [{"x": "01", "y": ["0", "1"]},
                                  {"x": ["0", "1"], "y": ["0", "1"], "open": "xy"},
                                  {"x": ["0", "1"], "y": ["0", "1"], "open": [0, 0, 0, 0]},
                                  ["0", "1"]])
def test_render_spec_malformed_rect_exit_2(capsys, monkeypatch, rect):
    err = _render_spec_error(capsys, monkeypatch, {"rects": [rect]})
    assert "bad rect" in err


def test_internal_error_exit_3(capsys, monkeypatch):
    import moebius.walk

    def broken(x):
        raise AssertionError("walk from (0, 0) to (0, 1)\nis stuck")

    monkeypatch.setattr(moebius.walk, "walk_of", broken)
    code, out, err = run(capsys, "walk", "M(1/4,3/4)")
    assert code == 3 and out == ""
    assert err == "internal error: walk from (0, 0) to (0, 1) is stuck\n"
    assert "Traceback" not in err
    code, out, err = run(capsys, "walk", "--json", "M(1/4,3/4)")
    assert code == 3 and _assert_json_error(code, out, err) == {
        "error": "AssertionError", "message": "walk from (0, 0) to (0, 1) is stuck"}


def test_exponent_64_queries_take_no_depth_cap(capsys):
    x = "M(1/18446744073709551616,3/4)"
    for argv in (("walk", x), ("support", x), ("approx", x), ("hom", x, "M(1/4,3/4)")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
    assert out.strip() == "C: 1, C/T: 1"
    code, out, _ = run(capsys, "to-string", x)
    assert code == 0 and out.count(">") + out.count("<") == 64
    code, out, _ = run(capsys, "from-string", out.strip())
    assert code == 0 and out.strip() == x


# -- in-process fuzz of the word commands ---------------------------------------

@st.composite
def _mostly(draw, good, *bad, weight=5):
    """A good draw about `weight` times as often as one of the bad values."""
    return draw(st.sampled_from(bad) if draw(st.integers(0, weight)) == weight else good)


@st.composite
def _cluster_token(draw):
    n = draw(st.integers(0, 70))
    m = draw(st.one_of(st.integers(0, (2 << n) - 1), st.integers(-3, 3)))
    return f"T({n},{m})"


@st.composite
def _object_token(draw):
    k = draw(st.integers(0, 70))
    a, b = draw(st.integers(-(2 << k), 2 << k)), draw(st.integers(-(2 << k), 2 << k))
    return f"M({a}/{1 << k},{b}/{1 << k})"


@st.composite
def _path_word(draw):
    """Adjacent cluster points of depth <= 70 with letters drawn at random and
    optional ray markers: sometimes a valid word, mostly one the quiver rejects."""
    from moebius.cluster import ClusterPt, in_neighbors, out_neighbors
    v = ClusterPt(draw(st.integers(0, 70)), draw(st.integers(0, 1 << 71)))
    parts = [str(v)]
    for _ in range(draw(st.integers(0, 4))):
        nxt = [u for u in (*in_neighbors(v), *out_neighbors(v)) if u.n <= 70]
        v = draw(st.sampled_from(nxt))
        parts += [draw(st.sampled_from("<>")), str(v)]
    marks = st.sampled_from(["", "~"])
    return draw(marks) + " ".join(parts) + draw(marks)


_TOKENS = st.one_of(_cluster_token(), _object_token(), st.sampled_from(["<", ">", "~"]),
                    st.text(alphabet="T(),<>~-/ 0123456789M", max_size=8))
_ARGUMENTS = st.one_of(_cluster_token(), _object_token(), _path_word(),
                       st.lists(_TOKENS, max_size=7).map(" ".join))


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away, as `moebius ... | head -c 0` sees it."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _main_in_process(argv, stdin="", closed=False):
    """Exit code, stdout and stderr of main on argv with the given stdin, the
    stdout closed at the other end if `closed`."""
    import contextlib, sys
    out, err, saved = _ClosedStdout() if closed else io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv, code, out, err, closed=False):
    # an exception escaping main would end the real command in a traceback;
    # every success writes, so on a closed stdout it ends in 141 and silence
    assert code in ((1, 2, 3, 141) if closed else (0, 1, 2, 3)), argv
    event(f"exit {code}")
    assert "Traceback" not in out + err, argv
    if code == 141:
        assert err == "", (argv, err)
    elif code and "--json" in argv:
        _assert_json_error(code, out, err)
    elif code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["from-string", "to-string", "simple", "walk"]),
       json_flag=st.booleans(), argument=_ARGUMENTS, closed=st.booleans())
def test_word_commands_fuzz(command, json_flag, argument, closed):
    argv = [command, *(["--json"] if json_flag else []), argument]
    _assert_clean_exit(argv, *_main_in_process(argv, closed=closed), closed=closed)


# -- in-process fuzz of render and kernel/cokernel, stdin included --------------

@st.composite
def _band_object(draw, max_exp=6):
    """M(x, y) of exponent 2 to max_exp with 0 < |y - x| < 1: in the band,
    and mostly off the cluster."""
    k = draw(st.integers(2, max_exp))
    a = draw(st.integers(-(2 << k), 2 << k))
    d = draw(st.integers(1, (1 << k) - 1)) * draw(st.sampled_from([1, -1]))
    return f"M({a}/{1 << k},{a + d}/{1 << k})"


_SCALARS = _mostly(st.sampled_from([0, 1, -2, "1/2", "-3/4", 1.5]), "1/0", "x", True, None,
                   weight=12)
_BOUNDS = _mostly(st.sampled_from(["0", "1/4", "-1/2", "3/4", "-2", 1, 2]), "1/3", "x", [0])
_RECT = _mostly(st.fixed_dictionaries(
    {"x": st.lists(_BOUNDS, min_size=2, max_size=2), "y": st.lists(_BOUNDS, min_size=2, max_size=2)},
    optional={"open": _mostly(st.lists(st.booleans(), min_size=4, max_size=4), "xy", [0, 0, 0, 0])}),
    ["0", "1"], {})
_OBJECT_LISTS = _mostly(st.lists(_mostly(_band_object(), "M(1/3,1/2)", "T(1,1)", 1), max_size=2),
                        "M(1/4,3/4)", [1], None)
_RENDER_SPEC = _mostly(
    st.fixed_dictionaries({}, optional={
        "objects": _OBJECT_LISTS, "walks": _OBJECT_LISTS,
        "rects": _mostly(st.lists(_RECT, max_size=2), {}, "x"),
        "cluster_depth": _mostly(st.integers(0, 4), -1, 13, "2", True, None)}),
    [1, 2], None, "spec")
_MORPHISM = _mostly(
    st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(lambda nm: st.fixed_dictionaries(
        {"src": st.lists(_band_object(4), min_size=nm[0], max_size=nm[0]),
         "dst": st.lists(_band_object(4), min_size=nm[1], max_size=nm[1]),
         "entries": st.lists(st.lists(_SCALARS, min_size=nm[0], max_size=nm[0]),
                             min_size=nm[1], max_size=nm[1])})),
    {"src": "M(1/8,1/4)", "dst": ["M(1/4,3/4)"], "entries": [["1"]]},
    {"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"], "entries": [["1", "1"]]},
    {"src": ["M(1/8,1/4)"], "dst": [3], "entries": [[1]]},
    {"src": ["M(1/8,1/4)"], "dst": ["M(1/4,3/4)"], "entries": "1"},
    {"src": ["M(0,1)"], "dst": ["M(1/4,3/4)"], "entries": [[1]]}, {"dst": []}, [1, 2],
    weight=10)


def _stdin_text(value):
    return _mostly(value.map(json.dumps), "", "{bad", "[1")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("render-out")


@settings(max_examples=100, deadline=None)
@given(walks=st.lists(_mostly(_band_object(64), "M(1/4)", "M(0,1/2)"), max_size=2),
       objects=st.lists(_mostly(_band_object(), "M(0,1)", "M(1/4,5/4)", "x"), max_size=2),
       depth=_mostly(st.one_of(st.none(), st.integers(0, 4)), -1, 13),
       out=_mostly(st.sampled_from(["-", "out.svg"]), "missing/out.svg", "."),
       spec=st.one_of(st.none(), _stdin_text(_RENDER_SPEC)))
def test_render_fuzz(fuzz_dir, walks, objects, depth, out, spec):
    argv = ["render", *(a for w in walks for a in ("--walk", w)),
            *(a for o in objects for a in ("--object", o)),
            *(["--cluster-depth", str(depth)] if depth is not None else []),
            "--out", out if out == "-" else str(fuzz_dir / out),
            *(["--spec", "-"] if spec is not None else [])]
    code, stdout, err = _main_in_process(argv, spec or "")
    _assert_clean_exit(argv, code, stdout, err)
    if code == 0 and out == "-":
        assert stdout.endswith("</svg>\n"), argv


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["kernel", "cokernel"]), json_flag=st.booleans(),
       stdin=_stdin_text(_MORPHISM))
def test_kernel_commands_fuzz(command, json_flag, stdin):
    argv = [command, *(["--json"] if json_flag else [])]
    code, out, err = _main_in_process(argv, stdin)
    _assert_clean_exit(argv, code, out, err)
    if code == 0:
        assert "object" in json.loads(out), stdin


# -- in-process fuzz of the query commands, digits and check --------------------

_ARITY = {"hom": 2, "support": 1, "approx": 1, "mutate": 1}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_ARITY)), json_flag=st.booleans(),
       arguments=st.lists(st.one_of(_band_object(64), _ARGUMENTS), min_size=3, max_size=3),
       arity_off=_mostly(st.just(0), -1, 1), closed=st.booleans())
def test_query_commands_fuzz(command, json_flag, arguments, arity_off, closed):
    argv = [command, *(["--json"] if json_flag else []),
            *arguments[:_ARITY[command] + arity_off]]
    _assert_clean_exit(argv, *_main_in_process(argv, closed=closed), closed=closed)


@settings(max_examples=100, deadline=None)
@given(json_flag=st.booleans(), vertex=st.one_of(_cluster_token(), _ARGUMENTS),
       digits=st.lists(_mostly(st.sampled_from(["0", "1"]), "2", "01", "", "x", "-1", "1/2",
                               weight=30), max_size=12))
def test_digits_fuzz(json_flag, vertex, digits):
    argv = ["digits", *(["--json"] if json_flag else []), vertex, *digits]
    _assert_clean_exit(argv, *_main_in_process(argv))


@settings(max_examples=20, deadline=None)
@given(json_flag=st.booleans(), depth=_mostly(st.just("1"), "0", "-1", "6", "7", "9999999", "x", "",
                                              weight=1))
def test_check_fuzz(json_flag, depth):
    # depth 1 or an invalid one: a valid deeper grid takes seconds per run
    argv = ["check", *(["--json"] if json_flag else []), "--depth", depth]
    code, out, err = _main_in_process(argv)
    _assert_clean_exit(argv, code, out, err)
    assert (code == 0) == (depth == "1"), (argv, err)
