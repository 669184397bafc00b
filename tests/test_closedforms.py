"""Alternating closed forms, coefficient formulas and asymptotic ratios."""

import pytest

from conftest import coeff_y
from pasep import ansatz, cli, closedforms as cf, paths
from pasep.laurent import ONE, Q, Y, LaurentPoly
from pasep.qcombinat import binomial, catalan


def test_partition_polynomial_small():
    assert cf.partition_polynomial(1) == Y
    assert cf.partition_polynomial(2) == Y + Y**2
    assert cf.partition_polynomial(3) == Y**3 + (3 * ONE + Q) * Y**2 + Y


def test_closed_forms_match_their_double_sums_term_by_term():
    """Both closed forms against their alternating double sums, written out
    one (k, i, j) term at a time into a (q, y) term map and then divided by
    (1-q)^n."""
    for n in range(1, 13):
        terms, terms_y1 = {}, {}
        for k in range(n + 1):
            sign = (-1) ** k
            c = binomial(2 * n, n - k) - binomial(2 * n, n - k - 2)
            for i in range(k + 1):
                e = i * (k + 1 - i)
                terms_y1[(e, 0)] = terms_y1.get((e, 0), 0) + sign * c
                for j in range(n - k + 1):
                    a = (
                        binomial(n, j) * binomial(n, j + k)
                        - binomial(n, j - 1) * binomial(n, j + k + 1)
                    )
                    terms[(e, i + j)] = terms.get((e, i + j), 0) + sign * a
        assert cf.partition_polynomial(n) == LaurentPoly(terms).exact_div(n), n
        assert cf.partition_polynomial_y1(n) == LaurentPoly(terms_y1).exact_div(n), n


def test_partition_polynomial_vs_matrix():
    for n in range(1, 11):
        m = ansatz.yd_plus_e(n + 1)
        assert cf.partition_polynomial(n) == Y * ansatz.scalar_product(m, n - 1)


def test_partition_polynomial_positivity():
    import math

    for n in range(1, 13):
        p = cf.partition_polynomial(n)
        assert all(c > 0 for _, _, c in p.terms())
        assert p.eval_q(1).eval_y(1).to_int() == math.factorial(n)


def test_y1_specialisation():
    assert cf.partition_polynomial_y1(2) == 2 * ONE
    assert cf.partition_polynomial_y1(3) == 5 * ONE + Q
    for n in range(1, 13):
        assert cf.partition_polynomial_y1(n) == cf.partition_polynomial(n).eval_y(1)


def test_y1_low_coefficients_equal_the_exact_division():
    """At every size and column `pasep table` takes, the truncated division
    it reads gives the coefficients of the exact one, zeros past the
    degree included."""
    stop = cli.TABLE_COEFF_CAP + 1
    for n in range(1, cli.METHOD_CAPS["theorem1"] + 1):
        p = cf.partition_polynomial_y1(n)
        assert cf.y1_low_coefficients(n, stop) == [p.coeff(m, 0) for m in range(stop)], n
    assert cf.y1_low_coefficients(5, 7) == [42, 45, 25, 7, 1, 0, 0]
    assert cf.y1_low_coefficients(1, 0) == []
    with pytest.raises(ValueError, match="n >= 1 required"):
        cf.y1_low_coefficients(0, 3)


def test_y_coefficient_formula():
    assert cf.y_coefficient_formula(1, 2) == ONE
    assert cf.y_coefficient_formula(2, 2) == ONE
    assert cf.y_coefficient_formula(2, 3) == 3 * ONE + Q
    for n in range(1, 10):
        p = cf.partition_polynomial(n)
        for m in range(1, n + 1):
            assert cf.y_coefficient_formula(m, n) == coeff_y(p, m), (m, n)


def test_matching_closed_form():
    assert cf.matching_closed_form(1) == ONE
    assert cf.matching_closed_form(2) == 2 * ONE + Q
    assert cf.matching_closed_form(3).eval_q(1).to_int() == 15


def test_low_order_coefficients():
    assert cf.low_order_coefficients(3) == (5, 1, 0, 0)
    assert cf.low_order_coefficients(4) == (14, 8, 2, 0)
    assert cf.low_order_coefficients(5)[0] == 42
    for n in range(1, 13):
        p = cf.partition_polynomial_y1(n)
        lo = cf.low_order_coefficients(n)
        for m in range(4):
            assert p.coeff(m, 0) == lo[m], (n, m)


def test_q10_closed_form():
    for n in range(8, 13):
        assert cf.q10_coefficient(n) == cf.partition_polynomial_y1(n).coeff(10, 0)
    assert cf.q10_coefficient(7) == 0
    assert cf.partition_polynomial_y1(7).coeff(10, 0) == 0


def test_narayana():
    assert cf.narayana_violations(3) == []
    at0 = cf.partition_polynomial(4).eval_q(0)
    assert [at0.coeff(0, m) for m in range(1, 5)] == [1, 6, 6, 1]
    for n in range(1, 9):
        assert sum(cf.narayana_number(n, m) for m in range(1, n + 1)) == catalan(n)


def test_small_q_coefficient_formulas():
    assert cf.q1_y_coefficient(3, 2) == 1
    assert cf.q2_y_coefficient(3, 2) == 0
    for n in range(1, 11):
        p = cf.partition_polynomial(n)
        for m in range(1, n + 1):
            assert p.coeff(1, m) == cf.q1_y_coefficient(n, m), (n, m)
            assert p.coeff(2, m) == cf.q2_y_coefficient(n, m), (n, m)


def test_asymptotic_ratio_m0():
    r50 = cf.asymptotic_ratio(0, 50)
    assert abs(r50 - 0.977944) < 1e-4
    r20, r40, r60 = (cf.asymptotic_ratio(0, n) for n in (20, 40, 60))
    assert r20 < r40 < r60 < 1
    assert abs(r60 - 1) < 0.10


def test_asymptotic_ratio_trend_m1_m2():
    for m in (1, 2):
        r20, r40, r60 = (cf.asymptotic_ratio(m, n) for n in (20, 40, 60))
        assert r20 < r40 < r60 < 1


def test_asymptotic_ratio_refuses_swapped_arguments():
    """m past the top power of q at size n, or n < 1, names both arguments
    instead of reading a zero coefficient or failing deeper down."""
    with pytest.raises(ValueError, match=r"asymptotic_ratio\(m=60, n=2\)"):
        cf.asymptotic_ratio(60, 2)
    with pytest.raises(ValueError, match=r"asymptotic_ratio\(m=400, n=0\)"):
        cf.asymptotic_ratio(400, 0)
    assert cf.asymptotic_ratio(1, 3) > 0  # q^1 is the top power at n = 3


def test_partition_polynomial_matches_motzkin():
    for n in range(1, 16):
        assert cf.partition_polynomial(n) == paths.motzkin_polynomial(n)


def test_input_validation():
    with pytest.raises(ValueError):
        cf.partition_polynomial(0)
    with pytest.raises(ValueError):
        cf.y_coefficient_formula(3, 2)
