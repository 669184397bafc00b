"""Ring axioms, division, substitution and serialisation of LaurentPoly."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasep.laurent import (
    ONE,
    Q,
    Y,
    ZERO,
    LaurentPoly,
    NotDivisible,
    PoleAtZero,
)

coeffs = st.integers(min_value=-(10**6), max_value=10**6)
exponents = st.integers(min_value=-8, max_value=8)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coeffs, max_size=6
).map(LaurentPoly)
large_polys = st.dictionaries(
    st.tuples(exponents, exponents), coeffs, min_size=8, max_size=40
).map(LaurentPoly)


def _q_int_row(c, a, b, m):
    """c q^a y^b [m]_q."""
    return LaurentPoly({(a + i, b): c for i in range(m)})


# Sums of c q^a y^b [m]_q: with c = 1 their rows are all ones, the window-sum
# case of the row product, which the strategies above seldom make.
ones_polys = st.lists(
    st.tuples(st.just(1) | coeffs, exponents, exponents, st.integers(1, 12)),
    min_size=1,
    max_size=4,
).map(lambda parts: sum((_q_int_row(*part) for part in parts), ZERO))
any_polys = polys | large_polys | ones_polys


def naive_product(a, b):
    """a * b term by term, the reference for the row product."""
    out = {}
    for ea, fa, ca in a.terms():
        for eb, fb, cb in b.terms():
            key = (ea + eb, fa + fb)
            out[key] = out.get(key, 0) + ca * cb
    return LaurentPoly(out)


def one_minus_q_power(k):
    return LaurentPoly({(i, 0): (-1) ** i * comb(k, i) for i in range(k + 1)})


def test_add_examples():
    assert (Q + Y) + (-1 * Q) == Y
    assert ZERO + (ONE + Q) == ONE + Q
    assert (ONE + Q) + (ONE + Q) == 2 * ONE + 2 * Q


def test_mul_examples():
    assert (ONE - Q) * (ONE + Q) == ONE - Q**2
    assert LaurentPoly.monomial(1, -2, 0) * Q**2 == ONE
    assert (ONE + Y) ** 2 == ONE + 2 * Y + Y**2


def test_exact_div_examples():
    assert (ONE - Q**2).exact_div(ONE + Q) == ONE - Q
    num = Y * (ONE + Y) * (ONE - Q) ** 2
    den = Y * (ONE - Q) ** 2
    assert num.exact_div(den) == ONE + Y
    with pytest.raises(NotDivisible):
        (ONE + Q).exact_div(ONE - Q)
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_coeff_extraction():
    p = Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert p.coeff_y(2) == 3 * ONE + Q
    assert (ONE + 2 * Q**2).coeff(2, 0) == 2
    assert p.coeff(5, 5) == 0


def test_eval_examples():
    assert (Y + Y * Q).eval_q(0) == Y
    with pytest.raises(PoleAtZero):
        LaurentPoly.monomial(1, -1, 0).eval_q(0)
    p = Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert p.eval_q(1).eval_y(1).to_int() == 6
    assert (Q + ONE).eval_q(Fraction(1, 2)) == LaurentPoly({(0, 0): Fraction(3, 2)})


def test_eval_y_pole():
    with pytest.raises(PoleAtZero):
        LaurentPoly.monomial(1, 0, -1).eval_y(0)


def test_bounds():
    assert ZERO.bounds() is None
    b = (LaurentPoly.monomial(1, -2, 1) + Q**3).bounds()
    assert (b.q_min, b.q_max, b.y_min, b.y_max) == (-2, 3, 0, 1)


def test_canonical_order_and_json():
    p = Y**2 * Q - Y + LaurentPoly.monomial(4, -1, 0)
    obj = p.to_json_obj()
    keys = [(t["q"], t["y"]) for t in obj["terms"]]
    assert keys == sorted(keys)
    assert all(isinstance(t["c"], str) for t in obj["terms"])
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly.from_json(ZERO.to_json()) == ZERO


def test_pretty():
    p = Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert p.pretty() == "y^3 + (3 + q)*y^2 + y"
    assert ZERO.pretty() == "0"
    assert LaurentPoly.monomial(-1, -1, 0).pretty() == "-q^-1"


def test_zero_coefficients_pruned():
    p = LaurentPoly({(0, 0): 5, (1, 1): 0})
    assert len(p) == 1
    assert (Q - Q).is_zero


def test_cancellation_leaves_canonical_rows():
    x = ONE + Q + Q**2
    for got, want in (
        (x - Q**2, ONE + Q),  # trailing zero inside a row
        (x - ONE, Q + Q**2),  # leading zero inside a row
        (x * Y - x * Y, ZERO),
        (Q * (ONE + Y) - Q, Q * Y),  # a whole row cancels
        ((ONE - Q) * (ONE + Q) * Y + Y, (2 * ONE - Q**2) * Y),
    ):
        assert got == want
        assert hash(got) == hash(want)
        assert len(got) == len(want)
    assert len(ONE - Q**2) == 2


def test_pow_matches_repeated_multiplication():
    for p in (ONE + Q + Q**2, Y - 2 * Q, LaurentPoly.monomial(3, -1, 2) + ONE):
        power = ONE
        for k in range(10):
            assert p**k == power
            power = power * p


@settings(max_examples=100, deadline=None)
@given(any_polys, any_polys)
def test_mul_matches_naive_product(a, b):
    assert a * b == naive_product(a, b)


def test_dense_mul_fraction_coefficients():
    a = LaurentPoly({(i, 0): Fraction(1, i + 1) for i in range(10)})
    b = LaurentPoly({(i, j): i - j for i in range(4) for j in range(4)})
    assert a * b == naive_product(a, b)
    assert b * a == naive_product(a, b)


def test_exact_div_by_one_minus_q_power():
    a = (Y**2 - 3 * Q) * (ONE + LaurentPoly.monomial(5, -4, -1)) + Q**7
    for k in range(7):
        d = one_minus_q_power(k)
        for divisor in (d, -d, LaurentPoly.monomial(1, 3, 0) * d,
                        LaurentPoly.monomial(-1, -2, 5) * d):
            num = a * divisor
            assert num.exact_div(divisor) == a
            assert num.exact_div(divisor) == num._heap_div(divisor)
        assert ZERO.exact_div(d) == ZERO


def test_exact_div_negative_exponents():
    a = LaurentPoly({(-3, -2): 4, (-1, 0): -1, (2, -1): 7})
    d = one_minus_q_power(4)
    assert (a * d).exact_div(d) == a
    assert (a * d).exact_div(LaurentPoly.monomial(1, -5, 0) * d) == a * Q**5


def test_exact_div_by_one_minus_q_power_not_divisible():
    num = (ONE + Y + Q * Y**3) * one_minus_q_power(2)
    assert num.exact_div(one_minus_q_power(2)) == ONE + Y + Q * Y**3
    for d in (one_minus_q_power(3), -one_minus_q_power(3)):
        with pytest.raises(NotDivisible):
            num.exact_div(d)
        with pytest.raises(NotDivisible):
            num._heap_div(d)


@settings(max_examples=150, deadline=None)
@given(any_polys, any_polys, any_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(any_polys, any_polys)
def test_division_inverts_multiplication(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=80, deadline=None)
@given(polys)
def test_json_roundtrip(p):
    assert LaurentPoly.from_json(p.to_json()) == p
