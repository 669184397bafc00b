"""Ring axioms, division, substitution and serialisation of LaurentPoly."""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coeff_y
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
    assert Y * 0 == ZERO


def test_int_operands_only_multiply():
    """An int may multiply a polynomial, but not add to it or equal it."""
    with pytest.raises(TypeError):
        ONE + 1
    with pytest.raises(TypeError):
        ONE - 1
    assert (ONE == 1) is False
    assert (ONE != 1) is True


def test_exact_div_examples():
    num = Y * (ONE + Y) * (ONE - Q) ** 2
    assert num.exact_div(2) == Y * (ONE + Y)
    with pytest.raises(NotDivisible):
        (ONE + Q).exact_div(1)


def test_exact_div_refuses_a_negative_power():
    with pytest.raises(ValueError, match="nonnegative"):
        (ONE - Q).exact_div(-1)


def test_coeff_extraction():
    p = Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert coeff_y(p, 2) == 3 * ONE + Q
    assert (ONE + 2 * Q**2).coeff(2, 0) == 2
    assert p.coeff(5, 5) == 0


def test_eval_examples():
    assert (Y + Y * Q).eval_q(0) == Y
    with pytest.raises(PoleAtZero):
        LaurentPoly.monomial(1, -1, 0).eval_q(0)
    p = Y**3 + (3 * ONE + Q) * Y**2 + Y
    assert p.eval_q(1).eval_y(1).to_int() == 6
    assert (Q + ONE).eval_q(Fraction(1, 2)) == LaurentPoly({(0, 0): Fraction(3, 2)})


def reference_eval(p, axis, value):
    """p with value put for q (axis 0) or y (axis 1), term by term."""
    v = Fraction(value)
    out = {}
    for e_q, e_y, c in p.terms():
        key = (0, e_y) if axis == 0 else (e_q, 0)
        out[key] = out.get(key, 0) + c * v ** (e_q, e_y)[axis]
    return {k: c for k, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(
    any_polys,
    st.fractions(max_denominator=50).filter(bool) | st.integers(-9, 9).filter(bool),
    st.fractions(max_denominator=50).filter(bool) | st.integers(-9, 9).filter(bool),
)
def test_eval_matches_term_by_term_reference(p, q, y):
    at_q = p.eval_q(q)
    assert dict(((e_q, e_y), c) for e_q, e_y, c in at_q.terms()) == reference_eval(p, 0, q)
    assert all(type(c) is int or c.denominator > 1 for _, _, c in at_q.terms())
    # The coefficients are now Fractions: substitute y into them.
    both = at_q.eval_y(y)
    assert dict(((e_q, e_y), c) for e_q, e_y, c in both.terms()) == reference_eval(at_q, 1, y)
    assert both == p.eval_y(y).eval_q(q)


def test_eval_q_examples():
    p = LaurentPoly({(-3, 0): 2, (1, 0): -1, (-1, 2): 5, (4, 2): 7})
    want = {(0, 0): Fraction(-31, 2), (0, 2): Fraction(-153, 16)}
    assert p.eval_q(Fraction(-1, 2)) == LaurentPoly(want)
    assert p.eval_q(-2) == LaurentPoly({(0, 0): Fraction(7, 4), (0, 2): Fraction(219, 2)})
    assert p.eval_q(1) == LaurentPoly({(0, 0): 1, (0, 2): 12})
    assert type(p.eval_q(1).coeff(0, 2)) is int


def test_eval_y_pole():
    with pytest.raises(PoleAtZero):
        LaurentPoly.monomial(1, 0, -1).eval_y(0)


def test_canonical_order_and_json():
    p = Y**2 * Q - Y + LaurentPoly.monomial(4, -1, 0)
    obj = json.loads(p.to_json())
    keys = [(t["q"], t["y"]) for t in obj["terms"]]
    assert keys == sorted(keys)
    assert all(isinstance(t["c"], str) for t in obj["terms"])
    assert ZERO.to_json() == '{"terms":[]}'
    p = (Y + 3 * Q).eval_q(Fraction(1, 2))
    assert p.to_json() == '{"terms":[{"q":0,"y":0,"c":"3/2"},{"q":0,"y":1,"c":"1"}]}'


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
        assert len(got) == len(want)
    assert len(ONE - Q**2) == 2


def test_from_rows_trims_and_drops_zero_rows():
    p = LaurentPoly.from_rows(
        {0: (0, [0, 0]), 1: (-2, [0, 3, 0, -1, 0]), 2: (4, []), 3: (0, [7])}
    )
    assert p == LaurentPoly({(-1, 1): 3, (1, 1): -1, (0, 3): 7})
    assert p.y_support() == [1, 3]
    assert LaurentPoly.from_rows({0: (0, [0])}).is_zero


def _padded_rows(p, before, after):
    """The dense rows {e_y: (lo, row)} of p, each padded with zeros at both ends."""
    rows = {}
    for ey in p.y_support():
        row = coeff_y(p, ey)
        qs = [eq for eq, _, _ in row.terms()]
        dense = [row.coeff(eq, 0) for eq in range(qs[0], qs[-1] + 1)]
        rows[ey] = (qs[0] - before, [0] * before + dense + [0] * after)
    return rows


@given(any_polys, st.integers(0, 3), st.integers(0, 3))
def test_from_rows_of_padded_rows(p, before, after):
    """Each row of p, padded with zeros at both ends, gives p back."""
    rows = _padded_rows(p, before, after)
    rows[9] = (0, [0] * after)  # a zero row, dropped
    got = LaurentPoly.from_rows(rows)
    assert got == p


@given(any_polys, any_polys, st.integers(0, 2), st.integers(0, 2))
def test_from_rows_of_tuple_rows(p, other, before, after):
    """Rows given as tuples build the same polynomial as the same rows given
    as lists, and it takes part in every ring operation as its twin does."""
    rows = _padded_rows(p, before, after)
    twin = LaurentPoly.from_rows(rows)
    got = LaurentPoly.from_rows({ey: (lo, tuple(row)) for ey, (lo, row) in rows.items()})
    assert got == twin == p
    one_minus_q = ONE - Q
    ops = (
        lambda a: a + other,
        lambda a: other + a,
        lambda a: a - other,
        lambda a: other - a,
        lambda a: a - ONE,
        lambda a: a - a,
        lambda a: -a,
        lambda a: a * other,
        lambda a: other * a,
        lambda a: 3 * a,
        lambda a: a**2,
        lambda a: (a * one_minus_q).exact_div(1),
        lambda a: a.eval_q(Fraction(2, 3)),
        lambda a: a.eval_y(-2),
    )
    for op in ops:
        assert op(got) == op(twin)
    assert got.to_json() == twin.to_json()
    assert got.pretty() == twin.pretty()


def test_pow_matches_repeated_multiplication():
    for p in (ONE + Q + Q**2, Y - 2 * Q, LaurentPoly.monomial(3, -1, 2) + ONE):
        power = ONE
        for k in range(10):
            assert p**k == power
            power = power * p
    with pytest.raises(ValueError, match="nonnegative"):
        Y**-1


@settings(max_examples=100, deadline=None)
@given(any_polys, any_polys)
def test_mul_matches_naive_product(a, b):
    assert a * b == naive_product(a, b)


def test_monomial_factor_shifts_rows_on_either_side():
    """A monomial times a polynomial is a shift of the rows, whichever side
    the monomial is on, as in Y * q_int(h + 1) in the Motzkin transfer."""
    polys = (ONE + Q + Q**2, 3 * ONE - Q**4, (ONE + Q) * Y + Q**2 * Y**3, Q)
    monomials = (Y, 2 * ONE, LaurentPoly.monomial(-3, -2, 1), Q)
    want = [(m, p, naive_product(m, p)) for m in monomials for p in polys]
    for m, p, product in want:
        assert (m * p)._rows == (p * m)._rows == product._rows


def test_dense_mul_fraction_coefficients():
    a = LaurentPoly({(i, 0): Fraction(1, i + 1) for i in range(10)})
    b = LaurentPoly({(i, j): i - j for i in range(4) for j in range(4)})
    assert a * b == naive_product(a, b)
    assert b * a == naive_product(a, b)


def test_exact_div_by_one_minus_q_power():
    a = (Y**2 - 3 * Q) * (ONE + LaurentPoly.monomial(5, -4, -1)) + Q**7
    for k in range(7):
        assert (a * one_minus_q_power(k)).exact_div(k) == a
        assert ZERO.exact_div(k) == ZERO


def test_exact_div_negative_exponents():
    a = LaurentPoly({(-3, -2): 4, (-1, 0): -1, (2, -1): 7})
    assert (a * one_minus_q_power(4)).exact_div(4) == a


def test_exact_div_by_one_minus_q_power_not_divisible():
    num = (ONE + Y + Q * Y**3) * one_minus_q_power(2)
    assert num.exact_div(2) == ONE + Y + Q * Y**3
    with pytest.raises(NotDivisible):
        num.exact_div(3)


@settings(max_examples=150, deadline=None)
@given(any_polys, any_polys, any_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(any_polys, st.integers(0, 6))
def test_division_inverts_multiplication(a, k):
    assert (a * one_minus_q_power(k)).exact_div(k) == a


@settings(max_examples=80, deadline=None)
@given(polys)
def test_json_roundtrip(p):
    terms = [(t["q"], t["y"], int(t["c"])) for t in json.loads(p.to_json())["terms"]]
    assert terms == list(p.terms())


def reference_json(p):
    """The wire format through json.dumps, the reference for to_json."""
    terms = [{"q": eq, "y": ey, "c": str(c)} for eq, ey, c in p.terms()]
    return json.dumps({"terms": terms}, separators=(",", ":"))


@settings(max_examples=80, deadline=None)
@given(any_polys, st.fractions(max_denominator=50).filter(bool))
def test_json_matches_reference(p, q):
    assert p.to_json() == reference_json(p)
    # Substitution can leave Fraction coefficients, which print as "a/b".
    p = p.eval_q(q)
    assert p.to_json() == reference_json(p)
