"""Closed-form evaluations of the partition polynomial and its coefficients.

The flagship formula: for n > 0 the partition polynomial (the y-marked,
q-marked distribution over S_n; equivalently y <W|(yD+E)^(n-1)|V>) equals

    (1/(1-q)^n) * sum_k (-1)^k
        [ sum_j y^j (binom(n,j) binom(n,j+k) - binom(n,j-1) binom(n,j+k+1)) ]
        * [ sum_i y^i q^(i(k+1-i)) ].

The division is exact; a nonzero remainder would signal a defect and is
raised as NotDivisible rather than smoothed over.  Everything else in this
module (single-coefficient formulas, low-order Taylor data, the q^10 column,
Narayana specialisation, matching crossings, asymptotic ratios) is derived
from or checked against that polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, pi, sqrt

from .laurent import ONE, Q, Y, ZERO, LaurentPoly
from .paths import core_closed_form
from .qcombinat import binomial, catalan
from .report import CheckReport


@lru_cache(maxsize=None)
def partition_polynomial(n: int) -> LaurentPoly:
    """The size-n partition polynomial in y and q (alternating double sum)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    num = ZERO
    for k in range(n + 1):
        outer = LaurentPoly(
            {
                (0, j): binomial(n, j) * binomial(n, j + k)
                - binomial(n, j - 1) * binomial(n, j + k + 1)
                for j in range(n - k + 1)
            }
        )
        if outer.is_zero:
            continue
        term = outer * core_closed_form(k)
        num = num + (term if k % 2 == 0 else -term)
    return num.exact_div((ONE - Q) ** n)


@lru_cache(maxsize=None)
def partition_polynomial_y1(n: int) -> LaurentPoly:
    """The y=1 specialisation, from its own central-binomial form."""
    if n < 1:
        raise ValueError("n >= 1 required")
    num = ZERO
    for k in range(n + 1):
        c = binomial(2 * n, n - k) - binomial(2 * n, n - k - 2)
        if not c:
            continue
        inner_terms: dict = {}
        for i in range(k + 1):
            key = (i * (k + 1 - i), 0)  # exponents may repeat across i
            inner_terms[key] = inner_terms.get(key, 0) + 1
        term = LaurentPoly(inner_terms) * c
        num = num + (term if k % 2 == 0 else -term)
    return num.exact_div((ONE - Q) ** n)


@lru_cache(maxsize=None)
def _q_int_power(j: int, n: int) -> LaurentPoly:
    """[j]_q^n, shared by every (m, i) with m - i = j.

    Computed as (1 - q^j)^n / (1 - q)^n: the binomial expansion, then n
    prefix-sum passes, far cheaper than squaring the dense [j]_q.
    """
    num = LaurentPoly({(j * i, 0): (-1) ** i * binomial(n, i) for i in range(n + 1)})
    return num.exact_div((ONE - Q) ** n)


def y_coefficient_formula(m: int, n: int) -> LaurentPoly:
    """Closed form for the coefficient of y^m in the partition polynomial:

        sum_{i=0}^{m-1} (-1)^i [m-i]_q^n q^(mi-m^2) (binom(n,i) q^(m-i) + binom(n,i-1))
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    total = ZERO
    for i in range(m):
        # The two-term factor takes the sign and the shift, so the large
        # power is multiplied once.
        factor = (
            LaurentPoly.monomial(binomial(n, i), m - i, 0)
            + LaurentPoly.from_int(binomial(n, i - 1))
        ) * LaurentPoly.monomial((-1) ** i, m * i - m * m, 0)
        total = total + _q_int_power(m - i, n) * factor
    return total


@lru_cache(maxsize=None)
def matching_closed_form(n: int) -> LaurentPoly:
    """Crossing polynomial of perfect matchings of 2n points:

        (1/(1-q)^n) sum_k (-1)^k (binom(2n,n-k) - binom(2n,n-k-1)) q^(k(k+1)/2)
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    num = ZERO
    for k in range(n + 1):
        c = binomial(2 * n, n - k) - binomial(2 * n, n - k - 1)
        if not c:
            continue
        mono = LaurentPoly.monomial(c, k * (k + 1) // 2, 0)
        num = num + (mono if k % 2 == 0 else -mono)
    return num.exact_div((ONE - Q) ** n)


def low_order_coefficients(n: int) -> tuple[int, int, int, int]:
    """The first four q-coefficients of the y=1 polynomial in closed form:

        C_n,  binom(2n,n-3),  (n/2) binom(2n,n-4),  ((n+1)(n+2)/6) binom(2n,n-5).
    """
    c0 = catalan(n)
    c1 = binomial(2 * n, n - 3)
    num2 = n * binomial(2 * n, n - 4)
    if num2 % 2:
        raise ArithmeticError("q^2 closed form is not an integer")
    num3 = (n + 1) * (n + 2) * binomial(2 * n, n - 5)
    if num3 % 6:
        raise ArithmeticError("q^3 closed form is not an integer")
    return c0, c1, num2 // 2, num3 // 6


_Q10_POLY = (
    (13, 1),
    (12, 70),
    (11, 2093),
    (10, 32354),
    (9, 228543),
    (8, -318990),
    (7, -17493961),
    (6, -104051458),
    (5, -6828164),
    (4, 2022876520),
    (3, 6310831968),
    (2, 5832578304),
    (1, 14397419520),
    (0, 5748019200),
)


def q10_coefficient(n: int) -> int:
    """Closed form for the q^10 coefficient of the y=1 polynomial (0 for n < 8)."""
    if n < 8:
        return 0
    poly = sum(c * n**e for e, c in _Q10_POLY)
    value = Fraction(factorial(2 * n) * poly) / Fraction(
        factorial(10) * factorial(n + 12) * factorial(n - 8)
    )
    if value.denominator != 1:
        raise ArithmeticError("q^10 closed form is not an integer")
    return int(value)


def narayana_number(n: int, m: int) -> int:
    """N(n,m) = (1/n) binom(n,m) binom(n,m-1)."""
    num = binomial(n, m) * binomial(n, m - 1)
    if num % n:
        raise ArithmeticError("Narayana formula did not divide evenly")
    return num // n


def narayana_report(n: int) -> CheckReport:
    """At q=0 the coefficient of y^m is the Narayana number N(n,m)."""
    at0 = partition_polynomial(n).eval_q(0)
    violations = []
    for m in range(0, n + 2):
        got = at0.coeff(0, m)
        want = narayana_number(n, m) if 1 <= m <= n else 0
        if got != want:
            violations.append(f"y^{m}: got {got}, want {want}")
    return CheckReport(f"narayana specialisation (n={n})", not violations, violations)


def q1_y_coefficient(n: int, m: int) -> int:
    """Closed form for the coefficient of q y^m: binom(n,m+1) binom(n,m-2)."""
    return binomial(n, m + 1) * binomial(n, m - 2)


def q2_y_coefficient(n: int, m: int) -> int:
    """Closed form for the coefficient of q^2 y^m:

        binom(n+1,m-2) binom(n+1,m+2) (nm + m - m^2 - 4) / (2(n+1)).
    """
    num = (
        binomial(n + 1, m - 2)
        * binomial(n + 1, m + 2)
        * (n * m + m - m * m - 4)
    )
    den = 2 * (n + 1)
    if num % den:
        raise ArithmeticError("q^2 y^m closed form is not an integer")
    return num // den


def asymptotic_ratio(m: int, n: int) -> float:
    """Exact [q^m] coefficient of the y=1 polynomial divided by the growth
    estimate 4^n n^(m-3/2) / (sqrt(pi) m!).  The huge factors cancel
    exactly before the one rounding to float."""
    coeff = partition_polynomial_y1(n).coeff(m, 0)
    return float(Fraction(coeff * factorial(m), 4**n)) * sqrt(pi) * n ** (1.5 - m)


__all__ = [
    "partition_polynomial",
    "partition_polynomial_y1",
    "y_coefficient_formula",
    "matching_closed_form",
    "low_order_coefficients",
    "q10_coefficient",
    "narayana_number",
    "narayana_report",
    "q1_y_coefficient",
    "q2_y_coefficient",
    "asymptotic_ratio",
]
