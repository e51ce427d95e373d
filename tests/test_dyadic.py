import pytest
from hypothesis import given, strategies as st

from moebius.dyadic import Dyadic, decimal, parse_dyadic
from moebius.errors import ParseError

from oracles import fraction

dyadics = st.builds(Dyadic, st.integers(-1 << 40, 1 << 40), st.integers(0, 24))


def _reduced_at(e):
    """Values whose reduced exponent is exactly e."""
    nums = st.integers(-1 << 40, 1 << 40)
    if e == 0:
        return st.builds(Dyadic, nums)
    return nums.map(lambda k: Dyadic(2 * k + 1, e))


# Pairs on the equal-exponent fast path and on the aligning path.
pairs = st.one_of(st.integers(0, 24).flatmap(lambda e: st.tuples(_reduced_at(e), _reduced_at(e))),
                  st.tuples(dyadics, dyadics))
edge_pairs = [(Dyadic(0), Dyadic(0)), (Dyadic(0), Dyadic(-3, 2)), (Dyadic(1, 3), Dyadic(1, 3)),
              (Dyadic(-1, 2), Dyadic(3, 2)), (Dyadic(5), Dyadic(-5)), (Dyadic(-7, 5), Dyadic(0))]


def _is_reduced(d: Dyadic) -> bool:
    return d.exp == 0 or d.num % 2 == 1


def test_reduction_invariant():
    d = Dyadic(4, 3)
    assert (d.num, d.exp) == (1, 1)
    assert (Dyadic(0, 7).num, Dyadic(0, 7).exp) == (0, 0)


def test_arithmetic_examples():
    assert str(Dyadic(1, 3) + Dyadic(1, 2)) == "3/8"
    assert str(Dyadic(1) * Dyadic(1, 1)) == "1/2"
    assert Dyadic(-3, 2) < Dyadic(-5, 3)


@given(dyadics, dyadics)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a
    assert a + b == b + a


@given(dyadics, dyadics)
def test_mul_matches_fractions(a, b):
    assert fraction(a * b) == fraction(a) * fraction(b)


@given(dyadics)
def test_reduced_form(a):
    assert a.exp == 0 or a.num % 2 == 1


def test_parse_and_str():
    assert parse_dyadic("3/8") == Dyadic(3, 3)
    assert parse_dyadic("-17/8") == Dyadic(-17, 3)
    assert parse_dyadic("5") == Dyadic(5)
    assert str(Dyadic(-1, 1)) == "-1/2"
    with pytest.raises(ParseError):
        parse_dyadic("1/3")
    with pytest.raises(ParseError):
        parse_dyadic("x")


def test_decimal_exact():
    # num/2^exp is decimal(num * 5^exp, exp)
    assert decimal(3 * 5 ** 3, 3) == "0.375"
    assert decimal(-5 * 5 ** 2, 2) == "-1.25"
    assert decimal(7, 0) == "7"


def test_constructor_reduces_and_rejects_negative_exponent():
    assert (Dyadic(-12, 3).num, Dyadic(-12, 3).exp) == (-3, 1)
    assert (Dyadic(8, 2).num, Dyadic(8, 2).exp) == (2, 0)
    assert (Dyadic(-3, 0).num, Dyadic(-3, 0).exp) == (-3, 0)
    for num in (0, 1, 2):
        with pytest.raises(ValueError):
            Dyadic(num, -1)


def _check_arithmetic(a, b):
    fa, fb = fraction(a), fraction(b)
    for got, want in ((a + b, fa + fb), (a - b, fa - fb), (-a, -fa), (-b, -fb)):
        assert fraction(got) == want
        assert _is_reduced(got)


def _check_order(a, b):
    fa, fb = fraction(a), fraction(b)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb)
    assert (b < a, b <= a, b > a, b >= a) == (fb < fa, fb <= fa, fb > fa, fb >= fa)


@given(pairs)
def test_add_sub_neg_match_fractions(pair):
    _check_arithmetic(*pair)


@given(pairs)
def test_comparisons_match_fractions(pair):
    _check_order(*pair)


@pytest.mark.parametrize("a,b", edge_pairs)
def test_fast_paths_on_zero_and_negative_numerators(a, b):
    _check_arithmetic(a, b)
    _check_order(a, b)


@given(st.lists(st.one_of(dyadics, _reduced_at(3), st.just(Dyadic(0))), max_size=30))
def test_sorted_matches_fraction_order(ds):
    assert sorted(ds) == sorted(ds, key=fraction)
    if ds:
        assert min(ds) == min(ds, key=fraction)
        assert max(ds) == max(ds, key=fraction)
